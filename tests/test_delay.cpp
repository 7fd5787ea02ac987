#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "delay/elmore.h"
#include "delay/rph.h"
#include "rtree/metrics.h"
#include "tech/technology.h"
#ifdef CONG93_HAVE_ORACLES
#include "oracle/rph_reference.h"
#endif

namespace cong93 {
namespace {

RoutingTree make_t_tree()
{
    RoutingTree t(Point{5, 0});
    const NodeId mid = t.add_child(t.root(), Point{5, 4});
    t.mark_sink(t.add_child(mid, Point{0, 4}));
    t.mark_sink(t.add_child(mid, Point{10, 4}));
    return t;
}

/// Random rectilinear tree: each new node hangs off a random existing node
/// with a random H or V edge; leaves are sinks.
RoutingTree random_tree(std::mt19937_64& rng, int extra_nodes, Coord span = 40)
{
    RoutingTree t(Point{0, 0});
    std::uniform_int_distribution<Coord> step(1, span);
    std::uniform_int_distribution<int> coin(0, 1);
    for (int i = 0; i < extra_nodes; ++i) {
        std::uniform_int_distribution<NodeId> pick(0, static_cast<NodeId>(t.node_count()) - 1);
        const NodeId from = pick(rng);
        const Point p = t.point(from);
        const Coord d = step(rng) * (coin(rng) ? 1 : -1);
        const Point q = coin(rng) ? Point{static_cast<Coord>(p.x + d), p.y}
                                  : Point{p.x, static_cast<Coord>(p.y + d)};
        if (q == p) continue;
        t.add_child(from, q);
    }
    for (std::size_t i = 1; i < t.node_count(); ++i)
        if (t.node(static_cast<NodeId>(i)).children.empty())
            t.mark_sink(static_cast<NodeId>(i));
    return t;
}

/// The RPH bound t(T) of Eq. 2.
double rph_bound(const RoutingTree& t, const Technology& tech)
{
    return rph_terms(FlatTree(t), tech).total();
}

#ifdef CONG93_HAVE_ORACLES
TEST(Rph, ClosedFormMatchesBruteForce)
{
    const Technology tech = mcm_technology();
    std::mt19937_64 rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        const RoutingTree t = random_tree(rng, 12);
        const double closed = rph_bound(t, tech);
        const double brute = rph_delay_bruteforce(t, tech);
        EXPECT_NEAR(closed, brute, 1e-12 + 1e-9 * brute);
    }
}
#endif  // CONG93_HAVE_ORACLES

TEST(Rph, TermsDecomposition)
{
    const Technology tech = mcm_technology();
    const RoutingTree t = make_t_tree();
    const RphTerms terms = rph_terms(FlatTree(t), tech);
    // t1 = Rd*C0*length = 25 * 1.5fF * 14.
    EXPECT_NEAR(terms.t1, 25.0 * 1.5e-15 * 14.0, 1e-25);
    // t2 = R0 * Σ Ck*pl = 0.2 * 1000fF * (9+9).
    EXPECT_NEAR(terms.t2, 0.2 * 1000e-15 * 18.0, 1e-25);
    // t3 = R0*C0*Σ pl = 0.2 * 1.5fF * 80.
    EXPECT_NEAR(terms.t3, 0.2 * 1.5e-15 * 80.0, 1e-25);
    // t4 = Rd * Σ Ck.
    EXPECT_NEAR(terms.t4, 25.0 * 2000e-15, 1e-25);
    EXPECT_NEAR(terms.total(), rph_bound(t, tech), 1e-22);
}

TEST(Rph, SingleWireAgainstHandComputation)
{
    // One wire of 3 grids, one sink with load C.
    Technology tech = mcm_technology();
    RoutingTree t(Point{0, 0});
    t.mark_sink(t.add_child(t.root(), Point{3, 0}));
    const double r0 = tech.r_grid(), c0 = tech.c_grid();
    const double rd = tech.driver_resistance_ohm, cl = tech.sink_load_f;
    const double expected = (rd + r0) * c0 + (rd + 2 * r0) * c0 + (rd + 3 * r0) * c0 +
                            (rd + 3 * r0) * cl;
    EXPECT_NEAR(rph_bound(t, tech), expected, 1e-22);
}

TEST(Rph, ScalesWithDriverResistance)
{
    const RoutingTree t = make_t_tree();
    Technology small = mcm_technology();
    Technology large = mcm_technology();
    large.driver_resistance_ohm *= 10.0;
    EXPECT_GT(rph_bound(t, large), rph_bound(t, small));
}

TEST(Elmore, SingleWireClosedForm)
{
    // Distributed line: Elmore at the end = Rd*(Cw+Cl) + Rw*(Cw/2 + Cl).
    Technology tech = mcm_technology();
    RoutingTree t(Point{0, 0});
    t.mark_sink(t.add_child(t.root(), Point{100, 0}));
    const double rw = tech.r_grid() * 100.0, cw = tech.c_grid() * 100.0;
    const double rd = tech.driver_resistance_ohm, cl = tech.sink_load_f;
    const double expected = rd * (cw + cl) + rw * (cw / 2.0 + cl);
    const auto v = elmore_all_sinks(FlatTree(t), tech);
    ASSERT_EQ(v.size(), 1u);
    EXPECT_NEAR(v[0], expected, 1e-18);
}

TEST(Elmore, RphBoundDominatesElmore)
{
    // The RPH uniform bound uses full source->k resistance, which is >= the
    // shared-path resistance of the Elmore delay, so rph >= elmore at every
    // sink (discretization differs by the within-edge C/2 term; RPH sums
    // (Rd + R0*pl_k) per node which also upper-bounds it).
    const Technology tech = mcm_technology();
    std::mt19937_64 rng(21);
    for (int trial = 0; trial < 20; ++trial) {
        const RoutingTree t = random_tree(rng, 10);
        if (t.sinks().empty()) continue;
        const double bound = rph_bound(t, tech);
        for (const double e : elmore_all_sinks(FlatTree(t), tech))
            EXPECT_LE(e, bound * (1.0 + 1e-9));
    }
}

TEST(Elmore, MeanAndMax)
{
    const Technology tech = mcm_technology();
    const auto v = elmore_all_sinks(FlatTree(make_t_tree()), tech);
    ASSERT_EQ(v.size(), 2u);
    // Symmetric tree: both sinks equal, so they are also the mean and max.
    EXPECT_NEAR(v[0], v[1], 1e-18);
    EXPECT_NEAR((v[0] + v[1]) / 2.0, v[0], 1e-18);
    EXPECT_NEAR(std::max(v[0], v[1]), v[0], 1e-18);
}

TEST(Elmore, LongerPathSlower)
{
    const Technology tech = mcm_technology();
    RoutingTree t(Point{0, 0});
    const NodeId near = t.add_child(t.root(), Point{10, 0});
    const NodeId far = t.add_child(near, Point{200, 0});
    t.mark_sink(near);
    t.mark_sink(far);
    const auto v = elmore_all_sinks(FlatTree(t), tech);
    EXPECT_LT(v[0], v[1]);
}

}  // namespace
}  // namespace cong93
