// Tests for the extension modules: bottom-up DP wiresizing (the paper's
// negative claim), critical-sink A-trees (Section 6 future work), RLC
// simulation (Table 4 inductance), net/tree text I/O and grafting.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "atree/critical.h"
#include "atree/generalized.h"
#include "netgen/netgen.h"
#include "rtree/io.h"
#include "rtree/metrics.h"
#include "rtree/validate.h"
#include "sim/delay_measure.h"
#include "sim/moments.h"
#include "sim/transient.h"
#include "sim/two_pole.h"
#include "wiresize/bottom_up.h"
#include "wiresize/owsa.h"

namespace cong93 {
namespace {

// ---------------------------------------------------------------- bottom-up

TEST(BottomUp, NeverBeatsOwsaAndOftenLoses)
{
    // Section 4.1: "a simple bottom-up dynamic programming approach ... does
    // not produce optimal solutions in general".
    const Technology tech = mcm_technology();
    const auto nets = random_nets(1111, 20, kMcmGrid, 12);
    int strictly_worse = 0;
    for (const Net& net : nets) {
        const RoutingTree tree = build_atree_general(net).tree;
        const FlatTree ft(tree);
        const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(4));
        const BottomUpResult bu = bottom_up_wiresize(ctx);
        const OwsaResult o = owsa(ctx);
        EXPECT_GE(bu.delay, o.delay * (1.0 - 1e-9));
        if (bu.delay > o.delay * (1.0 + 1e-9)) ++strictly_worse;
        EXPECT_TRUE(is_monotone(ctx, bu.assignment));
    }
    EXPECT_GT(strictly_worse, 5) << "bottom-up DP should usually be suboptimal";
}

TEST(BottomUp, StillBetterThanNoWiresizing)
{
    const Technology tech = mcm_technology();
    const auto nets = random_nets(2222, 10, kMcmGrid, 8);
    for (const Net& net : nets) {
        const RoutingTree tree = build_atree_general(net).tree;
        const FlatTree ft(tree);
        const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(3));
        const BottomUpResult bu = bottom_up_wiresize(ctx);
        EXPECT_LE(bu.delay, ctx.delay(min_assignment(ctx.segment_count())) * (1.0 + 1e-9));
    }
}

// ----------------------------------------------------------- critical sinks

TEST(CriticalAtree, ValidAtreeAndCoverage)
{
    const auto nets = random_nets(3333, 10, kMcmGrid, 8);
    for (const Net& net : nets) {
        const CriticalAtreeResult r = build_atree_critical(net, {0, 3});
        require_valid(r.tree, net);
        EXPECT_TRUE(is_atree(r.tree));
        EXPECT_EQ(r.cost, total_length(FlatTree(r.tree)));
        EXPECT_GE(r.cost, build_atree_general(net).cost);  // isolation costs wire
    }
}

TEST(CriticalAtree, CriticalSinkNotSlower)
{
    const Technology tech = mcm_technology();
    const auto nets = random_nets(4444, 15, kMcmGrid, 10);
    double plain_sum = 0.0, crit_sum = 0.0;
    for (const Net& net : nets) {
        std::size_t critical = 0;
        for (std::size_t i = 1; i < net.sinks.size(); ++i)
            if (dist(net.source, net.sinks[i]) >
                dist(net.source, net.sinks[critical]))
                critical = i;
        const Point cp = net.sinks[critical];
        const auto delay_at = [&](const RoutingTree& tree) {
            const DelayReport d = measure_delay(FlatTree(tree), tech);
            const auto sinks = tree.sinks();
            for (std::size_t i = 0; i < sinks.size(); ++i)
                if (tree.point(sinks[i]) == cp) return d.sink_delays[i];
            return -1.0;
        };
        plain_sum += delay_at(build_atree_general(net).tree);
        crit_sum += delay_at(build_atree_critical(net, {critical}).tree);
    }
    EXPECT_LT(crit_sum, plain_sum);
}

TEST(CriticalAtree, AllCriticalEqualsPlain)
{
    const Net net{{10, 10}, {{40, 20}, {5, 50}, {60, 60}}};
    std::vector<std::size_t> all{0, 1, 2};
    const CriticalAtreeResult r = build_atree_critical(net, all);
    const AtreeResult plain = build_atree_general(net);
    EXPECT_EQ(r.cost, plain.cost);
    EXPECT_EQ(r.critical_cost, r.cost);
}

TEST(CriticalAtree, RejectsBadIndex)
{
    const Net net{{0, 0}, {{1, 1}}};
    EXPECT_THROW(build_atree_critical(net, {5}), std::invalid_argument);
}

// ------------------------------------------------------------------ RLC sim

TEST(Rlc, MomentsOfSeriesRlc)
{
    // Single series R-L with load C: H = 1/(1 + RCs + LCs^2).
    const double r = 50.0, l = 5e-9, c = 2e-12;
    std::vector<RcTree::RcNode> nodes(1);
    nodes[0] = {-1, r, c, l};
    const RcTree rc(std::move(nodes));
    const auto m = compute_moments(rc, 2);
    EXPECT_NEAR(m[0][0], -r * c, 1e-18);
    EXPECT_NEAR(m[1][0], r * c * r * c - l * c, 1e-27);
    // Two-pole fit recovers the exact denominator: b1 = RC, b2 = LC.
    const TwoPole tp = fit_two_pole(m[0][0], m[1][0]);
    EXPECT_NEAR(tp.b1, r * c, 1e-18);
    EXPECT_NEAR(tp.b2, l * c, 1e-27);
}

TEST(Rlc, UnderdampedResponseRingsAndSettles)
{
    // Strongly underdamped: R^2C^2 << 4LC.
    const double r = 5.0, l = 100e-9, c = 2e-12;
    std::vector<RcTree::RcNode> nodes(1);
    nodes[0] = {-1, r, c, l};
    const RcTree rc(std::move(nodes));
    const auto m = compute_moments(rc, 2);
    const TwoPole tp = fit_two_pole(m[0][0], m[1][0]);
    // Complex poles: response overshoots 1.
    double peak = 0.0;
    for (int i = 1; i <= 400; ++i)
        peak = std::max(peak, two_pole_response(tp, i * 0.05e-9));
    EXPECT_GT(peak, 1.05);
    // First crossing is near a quarter period of omega = 1/sqrt(LC).
    const double t50 = two_pole_threshold_delay(tp, 0.5);
    EXPECT_GT(t50, 0.0);
    EXPECT_LT(t50, 3.14 * std::sqrt(l * c));
}

TEST(Rlc, TransientMatchesAnalyticSeriesRlc)
{
    // Underdamped series RLC step response:
    // v(t) = 1 - e^{-at}(cos wd t + a/wd sin wd t), a = R/2L, wd = sqrt(1/LC - a^2).
    const double r = 20.0, l = 10e-9, c = 1e-12;
    std::vector<RcTree::RcNode> nodes(1);
    nodes[0] = {-1, r, c, l};
    const RcTree rc(std::move(nodes));
    const double a = r / (2.0 * l);
    const double wd = std::sqrt(1.0 / (l * c) - a * a);
    TransientSim sim(rc, 2e-12);
    for (int i = 0; i < 3000; ++i) {
        sim.step(1.0);
        const double t = sim.time();
        const double expected =
            1.0 - std::exp(-a * t) * (std::cos(wd * t) + a / wd * std::sin(wd * t));
        // Backward Euler damps the ringing; allow a generous envelope.
        EXPECT_NEAR(sim.voltage(0), expected, 0.15);
    }
    EXPECT_NEAR(sim.voltage(0), 1.0, 0.02);  // settles to the step level
}

TEST(Rlc, InductanceIncreasesMcmDelaySlightly)
{
    const Technology tech = mcm_technology();
    const auto nets = random_nets(5555, 5, kMcmGrid, 8);
    for (const Net& net : nets) {
        const FlatTree tree(build_atree_general(net).tree);
        const double rc_only =
            measure_delay(tree, tech, SimMethod::two_pole, 0.5, false).mean;
        const double rlc =
            measure_delay(tree, tech, SimMethod::two_pole, 0.5, true).mean;
        // Inductance adds time-of-flight: delay must not shrink, and on MCM
        // geometry the effect is a modest correction (< 40%).
        EXPECT_GE(rlc, rc_only * 0.999);
        EXPECT_LE(rlc, rc_only * 1.4);
    }
}

TEST(Rlc, HasInductanceFlag)
{
    const Technology tech = mcm_technology();
    RoutingTree t(Point{0, 0});
    t.mark_sink(t.add_child(t.root(), Point{100, 0}));
    const FlatTree ft(t);
    EXPECT_FALSE(RcTree::from_flat_tree(ft, tech, 8, false).has_inductance());
    EXPECT_TRUE(RcTree::from_flat_tree(ft, tech, 8, true).has_inductance());
}

// ----------------------------------------------------------------- text I/O

TEST(Io, NetRoundTrip)
{
    const Net net{{10, -20}, {{30, 40}, {-5, 2}}};
    const Net back = parse_net(format_net(net));
    EXPECT_EQ(back.source, net.source);
    EXPECT_EQ(back.sinks, net.sinks);
}

TEST(Io, NetsRoundTripAndComments)
{
    const auto nets = random_nets(6, 4, 500, 5);
    const auto back = parse_nets("# header comment\n" + format_nets(nets));
    ASSERT_EQ(back.size(), nets.size());
    for (std::size_t i = 0; i < nets.size(); ++i) {
        EXPECT_EQ(back[i].source, nets[i].source);
        EXPECT_EQ(back[i].sinks, nets[i].sinks);
    }
}

TEST(Io, NetParseErrors)
{
    EXPECT_THROW(parse_net("net\nsink 1 2\nend\n"), std::invalid_argument);
    EXPECT_THROW(parse_net("net\nsource 0 0\nend\n"), std::invalid_argument);
    EXPECT_THROW(parse_net("net\nsource 0 0\nsink 1 2\n"), std::invalid_argument);
    EXPECT_THROW(parse_net("bogus\n"), std::invalid_argument);
    EXPECT_THROW(parse_net("net\nsource a b\nsink 1 2\nend\n"),
                 std::invalid_argument);
    // Numbers follow the netlist's rules: int32 coordinates, finite caps,
    // whole tokens; anything else is std::invalid_argument.
    for (const char* bad : {"sink 4294967301 7", "sink 2147483648 7",
                            "sink 99999999999999999999999 7", "sink 1.5 7",
                            "sink 1 7x", "sink 1 7 nan", "sink 1 7 inf",
                            "sink 1 7 -inf", "sink 1 7 1e999", "sink 1 7 2e-12f"}) {
        EXPECT_THROW(parse_net(std::string("net\nsource 0 0\n") + bad + "\nend\n"),
                     std::invalid_argument)
            << bad;
    }
    EXPECT_EQ(parse_net("net\nsource 0 0\nsink -2147483648 2147483647\nend\n")
                  .sinks.front(),
              (Point{std::numeric_limits<Coord>::min(), std::numeric_limits<Coord>::max()}));
}

TEST(Io, CapsRoundTripBitExact)
{
    // Shortest round-trip formatting: format -> parse gives the same bits.
    const Net net{{0, 0},
                  {{10, 0}, {0, 10}, {7, 7}},
                  {1.234567891e-12, -1.0, 0.1 + 0.2}};
    const Net back = parse_net(format_net(net));
    ASSERT_EQ(back.sink_caps.size(), net.sink_caps.size());
    EXPECT_EQ(back.sink_caps[0], net.sink_caps[0]);
    EXPECT_LT(back.sink_caps[1], 0.0);
    EXPECT_EQ(back.sink_caps[2], net.sink_caps[2]);
    EXPECT_EQ(format_net(back), format_net(net));

    RoutingTree t(Point{0, 0});
    t.mark_sink(t.add_child(t.root(), Point{5, 0}), 1.234567891e-12);
    t.mark_sink(t.add_child(t.root(), Point{0, 5}), 0.1 + 0.2);
    const RoutingTree tb = parse_tree(format_tree(t));
    EXPECT_EQ(tb.node(1).sink_cap_f, 1.234567891e-12);
    EXPECT_EQ(tb.node(2).sink_cap_f, 0.1 + 0.2);
    EXPECT_EQ(format_tree(tb), format_tree(t));
}

TEST(Io, TreeRoundTrip)
{
    const Net net{{0, 0}, {{120, 40}, {30, 200}, {250, 250}}};
    const RoutingTree tree = build_atree_general(net).tree;
    const RoutingTree back = parse_tree(format_tree(tree));
    ASSERT_EQ(back.node_count(), tree.node_count());
    const FlatTree back_ft(back), tree_ft(tree);
    EXPECT_EQ(total_length(back_ft), total_length(tree_ft));
    EXPECT_EQ(sum_all_node_path_lengths(back_ft), sum_all_node_path_lengths(tree_ft));
    EXPECT_EQ(back.sinks().size(), tree.sinks().size());
    EXPECT_TRUE(spans_net(back, net));
}

TEST(Io, TreeParseErrors)
{
    EXPECT_THROW(parse_tree(""), std::invalid_argument);
    EXPECT_THROW(parse_tree("tree\nend\n"), std::invalid_argument);
    EXPECT_THROW(parse_tree("tree\nnode 0 0 0 5 0\nend\n"), std::invalid_argument);
    EXPECT_THROW(parse_tree("tree\nnode 0 0 0 -1 0\nnode 2 1 0 0 0\nend\n"),
                 std::invalid_argument);
    // A parent index beyond int32 range (4294967296 truncates to 0).
    EXPECT_THROW(parse_tree("tree\nnode 0 0 0 -1 0\nnode 1 1 0 4294967296 1\nend\n"),
                 std::invalid_argument);
    for (const char* bad : {"node 1 4294967297 0 0 1", "node 1 1 0 0 1 nan",
                            "node 1 1 0 0 1 inf", "node 1 1 0 0 2", "node x 1 0 0 1",
                            "node 1 1 0 0 1 1e-12junk", "node 0 1 0 -1 1"}) {
        EXPECT_THROW(parse_tree(std::string("tree\nnode 0 0 0 -1 0\n") + bad + "\nend\n"),
                     std::invalid_argument)
            << bad;
    }
}

// -------------------------------------------------------------------- graft

TEST(Graft, CopiesSubtreeWithSinks)
{
    RoutingTree a(Point{0, 0});
    RoutingTree b(Point{0, 0});
    const NodeId m = b.add_child(b.root(), Point{0, 5});
    b.mark_sink(b.add_child(m, Point{4, 5}), 2e-12);
    graft(a, a.root(), b);
    EXPECT_EQ(a.node_count(), 3u);
    EXPECT_EQ(total_length(FlatTree(a)), 9);
    ASSERT_EQ(a.sinks().size(), 1u);
    EXPECT_DOUBLE_EQ(a.node(a.sinks()[0]).sink_cap_f, 2e-12);
}

TEST(Graft, RejectsMismatchedAnchor)
{
    RoutingTree a(Point{0, 0});
    RoutingTree b(Point{1, 1});
    EXPECT_THROW(graft(a, a.root(), b), std::invalid_argument);
}

}  // namespace
}  // namespace cong93
