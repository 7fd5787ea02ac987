#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "atree/atree.h"
#include "delay/elmore.h"
#include "netgen/netgen.h"
#include "sim/delay_measure.h"
#include "sim/moments.h"
#include "sim/transient.h"
#include "sim/two_pole.h"

namespace cong93 {
namespace {

/// Simple lumped RC: driver Rd into a single capacitor C.
RcTree single_rc(double rd, double c)
{
    std::vector<RcTree::RcNode> nodes(1);
    nodes[0].parent = -1;
    nodes[0].r_ohm = rd;
    nodes[0].c_f = c;
    return RcTree(std::move(nodes));
}

/// Two-stage ladder: Rd -> C1 -> R2 -> C2.
RcTree ladder2(double rd, double c1, double r2, double c2)
{
    std::vector<RcTree::RcNode> nodes(2);
    nodes[0] = {-1, rd, c1};
    nodes[1] = {0, r2, c2};
    return RcTree(std::move(nodes));
}

TEST(RcTree, Validation)
{
    EXPECT_THROW(RcTree({}), std::invalid_argument);
    std::vector<RcTree::RcNode> bad(2);
    bad[0] = {-1, 10.0, 1e-12};
    bad[1] = {1, 10.0, 1e-12};  // parent does not precede child
    EXPECT_THROW(RcTree(std::move(bad)), std::invalid_argument);
    std::vector<RcTree::RcNode> two(2);
    two[0] = {-1, 10.0, 1e-12};
    two[1] = {0, 10.0, 1e-12};
    EXPECT_EQ(RcTree(two, {1}).sink_nodes(), std::vector<int>{1});
    EXPECT_THROW(RcTree(two, {2}), std::invalid_argument);  // no node 2
}

TEST(Moments, SingleRcFirstAndSecond)
{
    // H(s) = 1/(1+RCs): m1 = -RC, m2 = (RC)^2.
    const double rd = 100.0, c = 2e-12;
    const RcTree rc = single_rc(rd, c);
    const auto m = compute_moments(rc, 3);
    EXPECT_NEAR(m[0][0], -rd * c, 1e-18);
    EXPECT_NEAR(m[1][0], rd * c * rd * c, 1e-30);
    EXPECT_NEAR(m[2][0], -std::pow(rd * c, 3.0), 1e-42);
}

TEST(Moments, LadderElmore)
{
    const double rd = 50.0, c1 = 1e-12, r2 = 200.0, c2 = 3e-12;
    const RcTree rc = ladder2(rd, c1, r2, c2);
    const auto elm = rc_elmore_delays(rc);
    EXPECT_NEAR(elm[0], rd * (c1 + c2), 1e-18);
    EXPECT_NEAR(elm[1], rd * (c1 + c2) + r2 * c2, 1e-18);
}

TEST(Moments, MatchElmoreModuleOnRoutingTrees)
{
    const Technology tech = mcm_technology();
    const Net net{{0, 0}, {{300, 100}, {50, 400}, {220, 260}}};
    const AtreeResult r = build_atree(net);
    // Many sections per edge -> the lumped Elmore converges to the
    // distributed closed form of delay/elmore.h.
    const FlatTree ft(r.tree);
    const RcTree rc = RcTree::from_flat_tree(ft, tech, 64);
    const auto elm = rc_elmore_delays(rc);
    const auto expected = elmore_all_sinks(ft, tech);
    const auto sinks = rc.sink_nodes();
    ASSERT_EQ(sinks.size(), expected.size());
    for (std::size_t i = 0; i < sinks.size(); ++i) {
        const double got = elm[static_cast<std::size_t>(sinks[i])];
        EXPECT_NEAR(got, expected[i], 0.002 * expected[i]);
    }
}

TEST(TwoPole, SinglePoleFallback)
{
    // Exactly one pole: b2 = m1^2 - m2 = 0 -> single-pole response.
    const double rc = 1e-9;
    const TwoPole tp = fit_two_pole(-rc, rc * rc);
    EXPECT_NEAR(tp.b2, 0.0, 1e-30);
    const double t50 = two_pole_threshold_delay(tp, 0.5);
    EXPECT_NEAR(t50, rc * std::log(2.0), 1e-3 * rc);
}

TEST(TwoPole, ResponseShape)
{
    const TwoPole tp{2e-9, 0.5e-18};
    EXPECT_DOUBLE_EQ(two_pole_response(tp, 0.0), 0.0);
    EXPECT_NEAR(two_pole_response(tp, 1e-6), 1.0, 1e-6);
    // Monotone for real poles.
    double prev = -1.0;
    for (int i = 1; i <= 50; ++i) {
        const double v = two_pole_response(tp, i * 0.2e-9);
        EXPECT_GE(v, prev);
        prev = v;
    }
    // Threshold delays are ordered.
    EXPECT_LT(two_pole_threshold_delay(tp, 0.5), two_pole_threshold_delay(tp, 0.9));
}

TEST(TwoPole, MatchesTransientOnLadder)
{
    const RcTree rc = ladder2(50.0, 1e-12, 200.0, 3e-12);
    const auto m = compute_moments(rc, 2);
    const TwoPole tp = fit_two_pole(m[0][1], m[1][1]);
    const double t_tp = two_pole_threshold_delay(tp, 0.5);
    // Transient reference at the far node.
    std::vector<RcTree::RcNode> copy = rc.nodes();
    RcTree rc2(std::move(copy));
    TransientSim sim(rc2, 1e-13);
    double t_tr = 0.0;
    double prev = 0.0;
    while (sim.voltage(1) < 0.5) {
        prev = sim.voltage(1);
        sim.step(1.0);
        t_tr = sim.time();
    }
    // Interpolate.
    const double cur = sim.voltage(1);
    t_tr -= (cur - 0.5) / (cur - prev) * 1e-13;
    EXPECT_NEAR(t_tp, t_tr, 0.05 * t_tr);  // two poles: exact for a 2-node ladder
}

TEST(Transient, SingleRcAnalytic)
{
    const double rd = 100.0, c = 2e-12;
    const RcTree rc = single_rc(rd, c);
    const double tau = rd * c;
    TransientSim sim(rc, tau / 2000.0);
    while (sim.time() < tau) sim.step(1.0);
    EXPECT_NEAR(sim.voltage(0), 1.0 - std::exp(-1.0), 2e-3);
}

TEST(Transient, SinkDelaysCloseToTwoPole)
{
    const Technology tech = mcm_technology();
    const auto nets = random_nets(55, 3, kMcmGrid, 6);
    for (const Net& net : nets) {
        Net shifted = net;  // make first-quadrant relative net via general...
        const AtreeResult r = [&] {
            // Use the generalized entry through atree.h would need another
            // include; simply reflect sinks into the first quadrant.
            Net fq;
            fq.source = Point{0, 0};
            for (const Point s : net.sinks)
                fq.sinks.push_back(Point{static_cast<Coord>(std::abs(s.x - net.source.x)),
                                         static_cast<Coord>(std::abs(s.y - net.source.y))});
            return build_atree(fq);
        }();
        const RcTree rc = RcTree::from_flat_tree(FlatTree(r.tree), tech, 8);
        const auto tp = two_pole_sink_delays(rc, 0.5);
        const auto tr = transient_sink_delays(rc, 0.5);
        ASSERT_EQ(tp.size(), tr.size());
        // The two-pole fit is tight for the dominant (far) sinks and known
        // to overestimate electrically-near sinks (zero-initial-slope
        // artifact); check accordingly.
        double tp_mean = 0.0, tr_mean = 0.0, tp_max = 0.0, tr_max = 0.0;
        for (std::size_t i = 0; i < tp.size(); ++i) {
            tp_mean += tp[i] / static_cast<double>(tp.size());
            tr_mean += tr[i] / static_cast<double>(tr.size());
            tp_max = std::max(tp_max, tp[i]);
            tr_max = std::max(tr_max, tr[i]);
        }
        EXPECT_NEAR(tp_max, tr_max, 0.10 * tr_max) << "far-sink delay diverges";
        EXPECT_NEAR(tp_mean, tr_mean, 0.20 * tr_mean) << "mean delay diverges";
        for (std::size_t i = 0; i < tp.size(); ++i)
            EXPECT_NEAR(tp[i], tr[i], 0.35 * tr_mean + 1e-12)
                << "two-pole vs transient diverge at sink " << i;
        (void)shifted;
    }
}

TEST(Transient, WaveformsReachSteadyState)
{
    const RcTree rc = ladder2(50.0, 1e-12, 200.0, 3e-12);
    const auto wf = transient_waveforms(rc, {0, 1}, 0.95);
    ASSERT_EQ(wf.size(), 2u);
    EXPECT_GE(wf[0].value.back(), 0.95);
    EXPECT_GE(wf[1].value.back(), 0.95);
    // Node 1 lags node 0.
    EXPECT_LE(wf[1].value.front(), wf[0].value.front() + 1e-12);
}

TEST(DelayMeasure, WiresizedFasterThanUniform)
{
    // Wider stems must reduce the simulated delay too (Figure 4's claim,
    // checked with the simulator rather than the RPH objective).
    const Technology tech = mcm_technology();
    RoutingTree t(Point{200, 0});
    const NodeId mid = t.add_child(t.root(), Point{200, 150});
    t.mark_sink(t.add_child(mid, Point{0, 150}));
    t.mark_sink(t.add_child(mid, Point{400, 150}));
    const FlatTree ft(t);
    const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(2));
    const std::size_t stem = static_cast<std::size_t>(ctx.seg_roots()[0]);
    Assignment uniform(3, 0);
    Assignment wide_stem(3, 0);
    wide_stem[stem] = 1;

    const auto d_uniform = measure_delay_wiresized(ctx, uniform, SimMethod::two_pole);
    const auto d_wide = measure_delay_wiresized(ctx, wide_stem, SimMethod::two_pole);
    EXPECT_LT(d_wide.mean, d_uniform.mean);
}

TEST(DelayMeasure, UniformEntryPoints)
{
    const Technology tech = mcm_technology();
    const Net net{{0, 0}, {{500, 300}, {100, 900}}};
    const AtreeResult r = build_atree(net);
    const FlatTree ft(r.tree);
    const auto d2 = measure_delay(ft, tech, SimMethod::two_pole);
    const auto dt = measure_delay(ft, tech, SimMethod::transient);
    ASSERT_EQ(d2.sink_delays.size(), 2u);
    EXPECT_GT(d2.mean, 0.0);
    EXPECT_NEAR(d2.mean, dt.mean, 0.15 * dt.mean);
    EXPECT_GE(d2.max, d2.mean);
}

TEST(DelayMeasure, ThresholdOutsideUnitIntervalThrows)
{
    // Both simulators share one contract: a crossing level in (0, 1).  A
    // negative level used to make the transient loop latch a negative delay
    // on its first step; a level >= 1 is never crossed by an RC tree.
    const Technology tech = mcm_technology();
    const FlatTree ft(build_atree(Net{{0, 0}, {{500, 300}, {100, 900}}}).tree);
    for (const SimMethod m : {SimMethod::two_pole, SimMethod::transient}) {
        for (const double thr : {-0.5, 0.0, 1.0, 1.5, std::nan("")}) {
            EXPECT_THROW(measure_delay(ft, tech, m, thr), std::invalid_argument)
                << "method " << static_cast<int>(m) << " threshold " << thr;
        }
        EXPECT_NO_THROW(measure_delay(ft, tech, m, 0.9));
    }
    const RcTree rc = RcTree::from_flat_tree(ft, tech, 8);
    EXPECT_THROW(transient_ramp_delays(rc, 1e-9, -0.5), std::invalid_argument);
    EXPECT_THROW(transient_ramp_delays(rc, 1e-9, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace cong93
