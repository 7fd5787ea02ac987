// Deeper simulator validation: higher-order moments against hand-derived
// series expansions, two-pole response mathematics, backward-Euler
// convergence order, and discretization convergence.
#include <gtest/gtest.h>

#include <cmath>

#include "atree/atree.h"
#include "sim/moments.h"
#include "sim/transient.h"
#include "sim/two_pole.h"
#include "tech/technology.h"
#include "wiresize/assignment.h"
#include "wiresize/counting.h"

namespace cong93 {
namespace {

RcTree ladder2(double rd, double c1, double r2, double c2)
{
    std::vector<RcTree::RcNode> nodes(2);
    nodes[0] = {-1, rd, c1, 0.0};
    nodes[1] = {0, r2, c2, 0.0};
    return RcTree(std::move(nodes));
}

TEST(MomentsDeep, ThirdOrderLadder)
{
    // For the far node of a 2-stage ladder the transfer function is exactly
    // H(s) = 1 / (1 + b1 s + b2 s^2) with
    //   b1 = Rd(C1+C2) + R2 C2,  b2 = Rd C1 R2 C2.
    // Series: m1 = -b1, m2 = b1^2 - b2, m3 = -b1^3 + 2 b1 b2.
    const double rd = 70.0, c1 = 2e-12, r2 = 130.0, c2 = 5e-12;
    const double b1 = rd * (c1 + c2) + r2 * c2;
    const double b2 = rd * c1 * r2 * c2;
    const RcTree rc = ladder2(rd, c1, r2, c2);
    const auto m = compute_moments(rc, 3);
    EXPECT_NEAR(m[0][1], -b1, 1e-12 * b1);
    EXPECT_NEAR(m[1][1], b1 * b1 - b2, 1e-12 * b1 * b1);
    EXPECT_NEAR(m[2][1], -b1 * b1 * b1 + 2.0 * b1 * b2, 1e-12 * b1 * b1 * b1);
}

TEST(MomentsDeep, MomentsMatchBruteForceSharedResistance)
{
    // m1 = -Σ_k R(shared path) C_k via direct double loop.
    const Technology tech = mcm_technology();
    const Net net{{0, 0}, {{50, 20}, {10, 70}, {65, 65}}};
    const RcTree rc = RcTree::from_flat_tree(FlatTree(build_atree(net).tree), tech, 4);
    const auto m = compute_moments(rc, 1);

    // Brute force: R(shared) via common-ancestor walk.
    const auto path_to_root = [&](int node) {
        std::vector<int> path;
        for (int i = node; i >= 0; i = rc.node(static_cast<std::size_t>(i)).parent)
            path.push_back(i);
        return path;
    };
    for (const int sink : rc.sink_nodes()) {
        const auto sp = path_to_root(sink);
        double elmore = 0.0;
        for (std::size_t k = 0; k < rc.size(); ++k) {
            const auto kp = path_to_root(static_cast<int>(k));
            // Shared resistance: sum of r over branches on both paths.
            double shared = 0.0;
            for (const int a : sp)
                for (const int b : kp)
                    if (a == b) shared += rc.node(static_cast<std::size_t>(a)).r_ohm;
            elmore += shared * rc.node(k).c_f;
        }
        EXPECT_NEAR(-m[0][static_cast<std::size_t>(sink)], elmore, 1e-9 * elmore);
    }
}

TEST(TwoPoleDeep, ZeroInitialSlope)
{
    const TwoPole tp{1e-9, 0.1e-18};
    // v(eps) = O(eps^2): halving eps quarters the response.
    const double v1 = two_pole_response(tp, 1e-12);
    const double v2 = two_pole_response(tp, 0.5e-12);
    EXPECT_GT(v1, 0.0);
    EXPECT_NEAR(v1 / v2, 4.0, 0.1);
}

TEST(TwoPoleDeep, ThresholdMonotoneInThreshold)
{
    const TwoPole tp{3e-9, 1.5e-18};
    double prev = 0.0;
    for (const double thr : {0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
        const double t = two_pole_threshold_delay(tp, thr);
        EXPECT_GT(t, prev);
        prev = t;
    }
    EXPECT_THROW(two_pole_threshold_delay(tp, 0.0), std::invalid_argument);
    EXPECT_THROW(two_pole_threshold_delay(tp, 1.0), std::invalid_argument);
}

TEST(TwoPoleDeep, ExactOnSecondOrderSystem)
{
    // Analytic 50% crossing of 1/(1+b1 s+b2 s^2) with well separated real
    // poles p1 >> p2 approaches the single-pole value b1*ln2 as b2 -> 0.
    const double b1 = 2e-9;
    double prev = two_pole_threshold_delay(TwoPole{b1, 0.2 * b1 * b1}, 0.5);
    for (const double frac : {0.1, 0.01, 0.001}) {
        const double t = two_pole_threshold_delay(TwoPole{b1, frac * b1 * b1}, 0.5);
        EXPECT_LT(t, prev);
        prev = t;
    }
    EXPECT_NEAR(prev, b1 * std::log(2.0), 0.02 * b1);
}

TEST(TransientDeep, BackwardEulerFirstOrderConvergence)
{
    // Error at a fixed time halves when dt halves (O(dt) global error).
    const double rd = 100.0, c = 2e-12, tau = rd * c;
    std::vector<RcTree::RcNode> nodes(1);
    nodes[0] = {-1, rd, c, 0.0};
    const RcTree rc(std::move(nodes));
    const double t_obs = tau;  // observe at one time constant
    const double exact = 1.0 - std::exp(-1.0);
    const auto error_at = [&](double dt) {
        TransientSim sim(rc, dt);
        while (sim.time() < t_obs - dt / 2) sim.step(1.0);
        return std::abs(sim.voltage(0) - exact);
    };
    const double e1 = error_at(tau / 100.0);
    const double e2 = error_at(tau / 200.0);
    EXPECT_NEAR(e1 / e2, 2.0, 0.35);
}

TEST(TransientDeep, SectionCountConvergence)
{
    // Transient sink delay converges as the wire discretization refines.
    const Technology tech = mcm_technology();
    const Net net{{0, 0}, {{1500, 500}}};
    const FlatTree tree(build_atree(net).tree);
    const double d4 = transient_sink_delays(RcTree::from_flat_tree(tree, tech, 4))[0];
    const double d16 = transient_sink_delays(RcTree::from_flat_tree(tree, tech, 16))[0];
    const double d64 = transient_sink_delays(RcTree::from_flat_tree(tree, tech, 64))[0];
    EXPECT_LT(std::abs(d64 - d16), std::abs(d64 - d4) + 1e-15);
    EXPECT_NEAR(d16, d64, 0.02 * d64);
}

TEST(PadeDeep, RecoversExactZeroOfLadderNearNode)
{
    // The near node of a 2-stage ladder has the exact transfer function
    // H0 = (1 + R2C2 s)/(1 + (RdC1+RdC2+R2C2)s + RdC1R2C2 s^2): the Pade
    // fit from three moments must recover it exactly.
    const double rd = 70.0, c1 = 2e-12, r2 = 130.0, c2 = 5e-12;
    const RcTree rc = ladder2(rd, c1, r2, c2);
    const auto m = compute_moments(rc, 3);
    const PoleFit pf = fit_pade12(m[0][0], m[1][0], m[2][0]);
    EXPECT_NEAR(pf.a1, r2 * c2, 1e-9 * r2 * c2);
    EXPECT_NEAR(pf.b1, rd * (c1 + c2) + r2 * c2, 1e-9 * pf.b1);
    EXPECT_NEAR(pf.b2, rd * c1 * r2 * c2, 1e-9 * pf.b2);
    // Its step response then matches the transient simulator pointwise.
    TransientSim sim(rc, 5e-13);
    for (int i = 0; i < 2000; ++i) {
        sim.step(1.0);
        EXPECT_NEAR(pole_fit_response(pf, sim.time()), sim.voltage(0), 0.01);
    }
}

TEST(PadeDeep, FallsBackToTwoPoleOnDegenerateMoments)
{
    // Pure single-pole moments make the Pade system singular: fall back.
    const double rc = 1e-9;
    const PoleFit pf = fit_pade12(-rc, rc * rc, -rc * rc * rc);
    EXPECT_DOUBLE_EQ(pf.a1, 0.0);
    EXPECT_NEAR(pf.b1, rc, 1e-18);
}

TEST(PadeDeep, ImprovesNearSinkAccuracy)
{
    // The motivating failure: electrically-near sinks of MCM A-trees where
    // the classic two-pole fit overestimates by up to ~2x.  The Pade fit
    // must be at least as accurate on average and strictly better on the
    // worst sink.
    const Technology tech = mcm_technology();
    const Net net{{0, 0}, {{200, 150}, {1500, 400}, {600, 2100}, {2200, 2200}}};
    const RcTree rc = RcTree::from_flat_tree(FlatTree(build_atree(net).tree), tech, 8);
    const auto tp = two_pole_sink_delays(rc, 0.5);
    const auto pd = pade_sink_delays(rc, 0.5);
    const auto tr = transient_sink_delays(rc, 0.5);
    double worst_tp = 0.0, worst_pd = 0.0, sum_tp = 0.0, sum_pd = 0.0;
    for (std::size_t i = 0; i < tr.size(); ++i) {
        const double e_tp = std::abs(tp[i] - tr[i]) / tr[i];
        const double e_pd = std::abs(pd[i] - tr[i]) / tr[i];
        worst_tp = std::max(worst_tp, e_tp);
        worst_pd = std::max(worst_pd, e_pd);
        sum_tp += e_tp;
        sum_pd += e_pd;
    }
    EXPECT_LT(worst_pd, worst_tp);
    EXPECT_LE(sum_pd, sum_tp * 1.05);
}

TEST(PadeDeep, ThresholdDelayOrderedAndGuarded)
{
    const PoleFit pf{2e-9, 0.5e-18, 0.3e-9};
    EXPECT_LT(pole_fit_threshold_delay(pf, 0.5), pole_fit_threshold_delay(pf, 0.9));
    EXPECT_THROW(pole_fit_threshold_delay(pf, -0.1), std::invalid_argument);
    EXPECT_DOUBLE_EQ(pole_fit_response(pf, 0.0), 0.0);
    EXPECT_NEAR(pole_fit_response(pf, 1e-6), 1.0, 1e-6);
}

TEST(CountingDeep, MatchesExplicitEnumeration)
{
    // Build a branchy tree, enumerate all r^n assignments, count monotone
    // ones, and compare with the counting DP.
    RoutingTree t(Point{0, 0});
    const NodeId a = t.add_child(t.root(), Point{0, 4});
    const NodeId b = t.add_child(a, Point{-3, 4});
    const NodeId c = t.add_child(a, Point{4, 4});
    const NodeId d = t.add_child(c, Point{4, 9});
    t.mark_sink(b);
    t.mark_sink(d);
    t.mark_sink(t.add_child(c, Point{9, 4}));
    const FlatTree ft(t);
    for (const int r : {2, 3, 4}) {
        const WiresizeContext ctx(ft, mcm_technology(), WidthSet::uniform_steps(r));
        long monotone = 0;
        Assignment cur(ctx.segment_count(), 0);
        for (;;) {
            monotone += is_monotone(ctx, cur) ? 1 : 0;
            std::size_t i = 0;
            while (i < cur.size() && ++cur[i] == r) cur[i++] = 0;
            if (i == cur.size()) break;
        }
        EXPECT_DOUBLE_EQ(monotone_assignment_count(ctx), static_cast<double>(monotone))
            << "r=" << r;
        EXPECT_DOUBLE_EQ(exhaustive_assignment_count(ctx.segment_count(), r),
                         std::pow(static_cast<double>(r),
                                  static_cast<double>(ctx.segment_count())));
    }
}

}  // namespace
}  // namespace cong93
