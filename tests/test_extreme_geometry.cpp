// Adversarial geometry for the metric loops, the delay kernels and the
// A-tree's own pricing: nets of 1k+ sinks whose coordinates sit at
// +-(kMaxRoutableCoord - 1), the edge of what validate_net admits.  Every
// metric is an exact int64 accumulation; here it is recomputed in __int128
// from the raw node geometry, so a silent int64 wrap -- or any drift between
// the FlatTree pass and the constructor's reported costs -- fails the
// comparison instead of passing unnoticed.  The RPH terms and the Elmore
// delays are recomputed in long double from the same walk and must agree
// to a relative 1e-12.  The corner-source net's QMST sum reaches about
// 2^62.8 at 1024 sinks; at 2048 sinks it no longer fits int64 although
// validate_net admits the net, so the metric throws and the pipeline routes
// the net on a diagnosed fallback rung.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <random>
#include <vector>

#include "atree/generalized.h"
#include "baseline/spt.h"
#include "batch/pipeline.h"
#include "delay/elmore.h"
#include "delay/rph.h"
#include "rtree/flat_tree.h"
#include "rtree/metrics.h"
#include "rtree/validate.h"
#include "tech/technology.h"

namespace cong93 {
namespace {

using Wide = __int128;

constexpr Coord kEdge = kMaxRoutableCoord - 1;

/// Metrics recomputed from scratch in 128-bit arithmetic: path lengths are
/// re-derived by walking parents, not read from Node::pl.  `edge` and `pl`
/// keep the per-node values (indexed by node id) for the delay
/// recomputation.
struct WideMetrics {
    Wide length = 0;
    Wide sink_pl = 0;
    Wide all_pl = 0;
    Wide radius = 0;
    std::vector<Wide> edge;
    std::vector<Wide> pl;
};

WideMetrics wide_metrics(const RoutingTree& tree)
{
    const auto wide_dist = [](Point a, Point b) {
        return static_cast<Wide>(std::abs(static_cast<Length>(a.x) - b.x)) +
               static_cast<Wide>(std::abs(static_cast<Length>(a.y) - b.y));
    };
    WideMetrics m;
    m.edge.assign(tree.node_count(), 0);
    m.pl.assign(tree.node_count(), 0);
    // Node ids grow from parent to child, so one ascending pass suffices.
    for (std::size_t i = 1; i < tree.node_count(); ++i) {
        const RoutingTree::Node& n = tree.node(static_cast<NodeId>(i));
        EXPECT_LT(n.parent, static_cast<NodeId>(i));
        m.edge[i] = wide_dist(n.p, tree.point(n.parent));
        m.pl[i] = m.pl[static_cast<std::size_t>(n.parent)] + m.edge[i];
    }
    for (std::size_t i = 0; i < tree.node_count(); ++i) {
        const RoutingTree::Node& n = tree.node(static_cast<NodeId>(i));
        if (i > 0) {
            const Wide l = m.edge[i];
            const Wide a = m.pl[i] - l;
            m.length += l;
            m.all_pl += l * a + l * (l + 1) / 2;
        }
        if (n.is_sink) {
            m.sink_pl += m.pl[i];
            m.radius = std::max(m.radius, m.pl[i]);
        }
    }
    return m;
}

/// The RPH terms of Eq. 4-7 and the Elmore delay at every sink (in
/// tree.sinks() order), recomputed in long double from the 128-bit walk.
struct WideDelays {
    long double t1 = 0, t2 = 0, t3 = 0, t4 = 0;
    std::vector<long double> elmore;
};

WideDelays wide_delays(const RoutingTree& tree, const WideMetrics& w,
                       const Technology& tech)
{
    using LD = long double;
    const LD rd = tech.driver_resistance_ohm;
    const LD r0 = tech.r_grid();
    const LD c0 = tech.c_grid();
    const auto load = [&](NodeId id) -> LD {
        const double c = tree.node(id).sink_cap_f;
        return c >= 0.0 ? c : tech.sink_load_f;
    };

    WideDelays d;
    d.t1 = rd * c0 * static_cast<LD>(w.length);
    d.t3 = r0 * c0 * static_cast<LD>(w.all_pl);
    for (const NodeId s : tree.sinks()) {
        d.t2 += r0 * static_cast<LD>(w.pl[static_cast<std::size_t>(s)]) * load(s);
        d.t4 += rd * load(s);
    }

    // Subtree capacitance bottom-up, then the shared-resistance path sum
    // top-down (children have larger ids than their parents).
    const std::size_t n = tree.node_count();
    const auto parent = [&](std::size_t i) {
        return static_cast<std::size_t>(tree.node(static_cast<NodeId>(i)).parent);
    };
    std::vector<LD> cap(n), path(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const auto id = static_cast<NodeId>(i);
        cap[i] = c0 * static_cast<LD>(w.edge[i]);
        if (tree.node(id).is_sink) cap[i] += load(id);
    }
    for (std::size_t i = n; i-- > 1;) cap[parent(i)] += cap[i];
    for (std::size_t i = 1; i < n; ++i) {
        const LD l = static_cast<LD>(w.edge[i]);
        path[i] = path[parent(i)] + r0 * l * (cap[i] - c0 * l / 2);
    }
    for (const NodeId s : tree.sinks())
        d.elmore.push_back(rd * cap[0] + path[static_cast<std::size_t>(s)]);
    return d;
}

/// Relative agreement of a double kernel with its long-double recomputation.
constexpr long double kDelayRelTol = 1e-12L;

void expect_close(double got, long double want, const char* what)
{
    EXPECT_LE(std::abs(static_cast<long double>(got) - want),
              kDelayRelTol * std::abs(want))
        << what << ": got " << got << ", want " << static_cast<double>(want);
}

Coord random_coord(std::mt19937_64& rng)
{
    return static_cast<Coord>(
        std::uniform_int_distribution<Length>(-kEdge, kEdge)(rng));
}

/// `count` sinks uniform over the admissible box.
Net box_net(std::mt19937_64& rng, Point source, int count)
{
    Net net;
    net.source = source;
    for (int i = 0; i < count; ++i)
        net.sinks.push_back(Point{random_coord(rng), random_coord(rng)});
    return net;
}

/// `count` sinks on the boundary of the admissible box: one coordinate is
/// exactly +-kEdge.
Net rim_net(std::mt19937_64& rng, Point source, int count)
{
    Net net;
    net.source = source;
    for (int i = 0; i < count; ++i) {
        const Coord side = (rng() & 1) != 0 ? kEdge : -kEdge;
        const Coord free = random_coord(rng);
        net.sinks.push_back((rng() & 1) != 0 ? Point{side, free} : Point{free, side});
    }
    return net;
}

void expect_exact(const Net& net)
{
    ASSERT_TRUE(validate_net(net).ok);
    const AtreeResult r = build_atree_general(net);
    const RoutingTree& tree = r.tree;
    const FlatTree ft(tree);
    const WideMetrics w = wide_metrics(tree);

    EXPECT_TRUE(static_cast<Wide>(total_length(ft)) == w.length);
    EXPECT_TRUE(static_cast<Wide>(sum_sink_path_lengths(ft)) == w.sink_pl);
    EXPECT_TRUE(static_cast<Wide>(sum_all_node_path_lengths(ft)) == w.all_pl);
    EXPECT_TRUE(static_cast<Wide>(radius(ft)) == w.radius);

    EXPECT_TRUE(static_cast<Wide>(r.cost) == w.length);
    EXPECT_TRUE(static_cast<Wide>(r.qmst_cost) == w.all_pl);
    EXPECT_LE(r.lower_bound(), r.cost);
    EXPECT_LE(r.qmst_lower_bound(), r.qmst_cost);

    const Technology tech = mcm_technology();
    const WideDelays want = wide_delays(tree, w, tech);
    const RphTerms rph = rph_terms(ft, tech);
    expect_close(rph.t1, want.t1, "t1");
    expect_close(rph.t2, want.t2, "t2");
    expect_close(rph.t3, want.t3, "t3");
    expect_close(rph.t4, want.t4, "t4");
    const std::vector<double> elmore = elmore_all_sinks(ft, tech);
    ASSERT_EQ(elmore.size(), want.elmore.size());
    for (std::size_t k = 0; k < elmore.size(); ++k)
        expect_close(elmore[k], want.elmore[k], "elmore");
}

TEST(ExtremeGeometry, CenteredSourceOverTheFullBox)
{
    std::mt19937_64 rng(0xB0C5);
    expect_exact(box_net(rng, Point{0, 0}, 1024));
}

TEST(ExtremeGeometry, CornerSourceOverTheFullBox)
{
    // Longest paths: every sink is reached from the far corner.
    std::mt19937_64 rng(0xC0C5);
    expect_exact(box_net(rng, Point{-kEdge, -kEdge}, 1024));
}

TEST(ExtremeGeometry, SinksOnTheBoxRim)
{
    std::mt19937_64 rng(0x0121);
    expect_exact(rim_net(rng, Point{kEdge, -kEdge}, 1200));
    expect_exact(rim_net(rng, Point{0, 0}, 1200));
}

TEST(ExtremeGeometry, CornerSourceQmstOverflowIsDiagnosedNotWrapped)
{
    std::mt19937_64 rng(0xC0C5);
    const Net net = box_net(rng, Point{-kEdge, -kEdge}, 2048);
    ASSERT_TRUE(validate_net(net).ok);

    // The star's QMST sum really is beyond int64; the metric throws instead
    // of returning a wrapped value.
    const RoutingTree star = build_spt(net);
    EXPECT_TRUE(wide_metrics(star).all_pl >
                static_cast<Wide>(std::numeric_limits<Length>::max()));
    EXPECT_THROW(sum_all_node_path_lengths(FlatTree(star)), std::overflow_error);

    // The A-tree prices its tree with the same checked accumulator, so it
    // throws too; the pipeline catches that at the topology stage and takes
    // the ladder.
    try {
        build_atree_general(net);
        ADD_FAILURE() << "build_atree_general priced an int64-overflowing tree";
    } catch (const std::overflow_error& e) {
        EXPECT_NE(std::string(e.what()).find("overflows int64"), std::string::npos);
    }
    PipelineOptions opts;
    opts.threads = 1;
    opts.wiresize = false;
    opts.moment_check = false;
    const std::vector<NetRouteResult> r =
        route_batch(std::vector<Net>{net}, mcm_technology(), opts);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_TRUE(is_routed(r[0].status));
    EXPECT_NE(r[0].status, RouteStatus::ok);
    ASSERT_FALSE(r[0].diag.events.empty());
    EXPECT_EQ(r[0].diag.events.front().stage, RouteStage::topology);
    EXPECT_NE(r[0].diag.events.front().message.find("overflows int64"),
              std::string::npos);
    EXPECT_GT(r[0].wirelength, 0);
    EXPECT_GT(r[0].rph_s, 0.0);  // the RPH t3 term sums the same QMST cost
    EXPECT_GT(r[0].elmore_max_s, 0.0);
}

}  // namespace
}  // namespace cong93
