// Adversarial geometry for the metric loops and the A-tree's own pricing:
// nets of 1k+ sinks whose coordinates sit at +-(kMaxRoutableCoord - 1), the
// edge of what validate_net admits.  Every metric is an exact int64
// accumulation; here it is recomputed in __int128 from the raw node
// geometry, so a silent int64 wrap -- or any drift between the RoutingTree
// node walk, the FlatTree pass and the constructor's reported costs --
// fails the comparison instead of passing unnoticed.  The corner-source
// net's QMST sum reaches about 2^62.8 at 1024 sinks; at 2048 sinks it no
// longer fits int64 although validate_net admits the net, so the metric
// throws and the pipeline routes the net on a diagnosed fallback rung.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <random>
#include <vector>

#include "atree/generalized.h"
#include "baseline/spt.h"
#include "batch/pipeline.h"
#include "rtree/flat_tree.h"
#include "rtree/metrics.h"
#include "rtree/validate.h"

namespace cong93 {
namespace {

using Wide = __int128;

constexpr Coord kEdge = kMaxRoutableCoord - 1;

/// Metrics recomputed from scratch in 128-bit arithmetic: path lengths are
/// re-derived by walking parents, not read from Node::pl.
struct WideMetrics {
    Wide length = 0;
    Wide sink_pl = 0;
    Wide all_pl = 0;
    Wide radius = 0;
};

WideMetrics wide_metrics(const RoutingTree& tree)
{
    const auto wide_dist = [](Point a, Point b) {
        return static_cast<Wide>(std::abs(static_cast<Length>(a.x) - b.x)) +
               static_cast<Wide>(std::abs(static_cast<Length>(a.y) - b.y));
    };
    std::vector<Wide> pl(tree.node_count(), 0);
    // Node ids grow from parent to child, so one ascending pass suffices.
    for (std::size_t i = 1; i < tree.node_count(); ++i) {
        const RoutingTree::Node& n = tree.node(static_cast<NodeId>(i));
        EXPECT_LT(n.parent, static_cast<NodeId>(i));
        pl[i] = pl[static_cast<std::size_t>(n.parent)] +
                wide_dist(n.p, tree.point(n.parent));
    }
    WideMetrics m;
    for (std::size_t i = 0; i < tree.node_count(); ++i) {
        const RoutingTree::Node& n = tree.node(static_cast<NodeId>(i));
        if (i > 0) {
            const Wide l = wide_dist(n.p, tree.point(n.parent));
            const Wide a = pl[i] - l;
            m.length += l;
            m.all_pl += l * a + l * (l + 1) / 2;
        }
        if (n.is_sink) {
            m.sink_pl += pl[i];
            m.radius = std::max(m.radius, pl[i]);
        }
    }
    return m;
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

    EXPECT_EQ(total_length(tree), total_length(ft));
    EXPECT_EQ(sum_sink_path_lengths(tree), sum_sink_path_lengths(ft));
    EXPECT_EQ(sum_all_node_path_lengths(tree), sum_all_node_path_lengths(ft));
    EXPECT_EQ(radius(tree), radius(ft));
    EXPECT_EQ(mdrt_cost(tree, 1.0, 0.5, 0.25), mdrt_cost(ft, 1.0, 0.5, 0.25));

    EXPECT_TRUE(static_cast<Wide>(total_length(tree)) == w.length);
    EXPECT_TRUE(static_cast<Wide>(sum_sink_path_lengths(tree)) == w.sink_pl);
    EXPECT_TRUE(static_cast<Wide>(sum_all_node_path_lengths(tree)) == w.all_pl);
    EXPECT_TRUE(static_cast<Wide>(radius(tree)) == w.radius);

    EXPECT_EQ(r.cost, total_length(tree));
    EXPECT_EQ(r.qmst_cost, sum_all_node_path_lengths(tree));
    EXPECT_LE(r.lower_bound(), r.cost);
    EXPECT_LE(r.qmst_lower_bound(), r.qmst_cost);
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

    // The star's QMST sum really is beyond int64; both metric forms throw
    // instead of returning a wrapped value.
    const RoutingTree star = build_spt(net);
    EXPECT_TRUE(wide_metrics(star).all_pl >
                static_cast<Wide>(std::numeric_limits<Length>::max()));
    EXPECT_THROW(sum_all_node_path_lengths(star), std::overflow_error);
    EXPECT_THROW(sum_all_node_path_lengths(FlatTree(star)), std::overflow_error);

    // The A-tree prices its tree with the same metric, so it throws too; the
    // pipeline catches that at the topology stage and takes the ladder.
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
