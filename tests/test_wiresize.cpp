#include <gtest/gtest.h>

#include "atree/atree.h"
#include "atree/generalized.h"
#include "netgen/netgen.h"
#include "wiresize/combined.h"
#include "wiresize/counting.h"
#include "wiresize/grewsa.h"
#include "wiresize/owsa.h"

namespace cong93 {
namespace {

/// The Figure 4 T-tree, scaled for the MCM grid.
RoutingTree make_t_tree()
{
    RoutingTree t(Point{200, 0});
    const NodeId mid = t.add_child(t.root(), Point{200, 150});
    t.mark_sink(t.add_child(mid, Point{0, 150}));
    t.mark_sink(t.add_child(mid, Point{400, 150}));
    return t;
}

TEST(WidthSet, Construction)
{
    const WidthSet w = WidthSet::uniform_steps(4);
    EXPECT_EQ(w.count(), 4);
    EXPECT_DOUBLE_EQ(w[0], 1.0);
    EXPECT_DOUBLE_EQ(w[3], 4.0);
    EXPECT_THROW(WidthSet({}), std::invalid_argument);
    EXPECT_THROW(WidthSet({2.0, 1.0}), std::invalid_argument);
    EXPECT_THROW(WidthSet({0.5, 1.0}), std::invalid_argument);
}

TEST(Assignment, MonotoneAndDominates)
{
    const Technology tech = mcm_technology();
    const FlatTree ft(make_t_tree());
    const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(2));
    ASSERT_EQ(ctx.segment_count(), 3u);
    Assignment a{1, 0, 1};  // stem wide, one branch wide
    // Branch wider than stem is not monotone.
    const std::size_t stem = static_cast<std::size_t>(ctx.seg_roots()[0]);
    Assignment bad(3, 0);
    for (std::size_t i = 0; i < 3; ++i) bad[i] = (i == stem) ? 0 : 1;
    EXPECT_FALSE(is_monotone(ctx, bad));
    Assignment good(3, 0);
    good[stem] = 1;
    EXPECT_TRUE(is_monotone(ctx, good));
    EXPECT_TRUE(dominates(max_assignment(3, 2), min_assignment(3)));
    EXPECT_FALSE(dominates(min_assignment(3), max_assignment(3, 2)));
    (void)a;
}

TEST(DelayEval, MatchesBruteForce)
{
    const Technology tech = mcm_technology();
    const FlatTree ft(make_t_tree());
    const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(4));
    for (const Assignment& a :
         {Assignment{0, 0, 0}, Assignment{3, 3, 3}, Assignment{2, 1, 0},
          Assignment{3, 0, 2}}) {
        const double fast = ctx.delay(a);
        const double brute = ctx.delay_bruteforce(a);
        EXPECT_NEAR(fast, brute, 1e-9 * brute);
    }
}

TEST(DelayEval, UniformWidthMatchesRphDelay)
{
    // With all widths 1 the wiresized formula reduces to Eq. 2.
    const Technology tech = mcm_technology();
    const Net net{{0, 0}, {{120, 40}, {30, 200}, {250, 250}}};
    const AtreeResult r = build_atree(net);
    const FlatTree ft(r.tree);
    const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(3));
    const double uniform = ctx.delay(min_assignment(ctx.segment_count()));
    // Compare against the uniform-width RPH delay of delay/rph.h.
    // (Same formula, different code path.)
    const double reference = ctx.delay_bruteforce(min_assignment(ctx.segment_count()));
    EXPECT_NEAR(uniform, reference, 1e-9 * reference);
}

TEST(DelayEval, ThetaPhiDecomposition)
{
    const Technology tech = mcm_technology();
    const FlatTree ft(make_t_tree());
    const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(4));
    const Assignment a{1, 0, 2};
    for (std::size_t i = 0; i < ctx.segment_count(); ++i) {
        const auto tp = ctx.theta_phi(a, i);
        // psi + theta*w + phi/w must reproduce the delay for EVERY width of
        // segment i (with others fixed).
        for (int k = 0; k < 4; ++k) {
            Assignment b = a;
            b[i] = k;
            const double w = ctx.widths()[k];
            EXPECT_NEAR(tp.psi + tp.theta * w + tp.phi / w, ctx.delay(b),
                        1e-9 * ctx.delay(b));
        }
    }
}

TEST(DelayEval, TermsSumToDelay)
{
    const Technology tech = mcm_technology();
    const FlatTree ft(make_t_tree());
    const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(3));
    const Assignment a{2, 1, 0};
    const auto terms = ctx.terms(a);
    EXPECT_NEAR(terms.total(), ctx.delay(a), 1e-9 * ctx.delay(a));
    EXPECT_GT(terms.t1, 0.0);
    EXPECT_GT(terms.t2, 0.0);
    EXPECT_GT(terms.t3, 0.0);
    EXPECT_GT(terms.t4, 0.0);
}

TEST(Owsa, WideStemWinsOnFigure4Tree)
{
    // Figure 4's claim: the T-tree is faster with a wider stem.
    const Technology tech = mcm_technology();
    const FlatTree ft(make_t_tree());
    const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(2));
    const OwsaResult r = owsa(ctx);
    const std::size_t stem = static_cast<std::size_t>(ctx.seg_roots()[0]);
    EXPECT_EQ(r.assignment[stem], 1);  // stem takes the wider width
    EXPECT_LT(r.delay, ctx.delay(min_assignment(3)));
    EXPECT_TRUE(is_monotone(ctx, r.assignment));
}

TEST(Owsa, MatchesExhaustiveOnSmallTrees)
{
    const Technology tech = mcm_technology();
    const auto nets = random_nets(42, 6, 400, 4);
    for (const Net& net : nets) {
        const AtreeResult a = build_atree_general(net);
        const FlatTree ft(a.tree);
        for (const int r : {2, 3}) {
            const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(r));
            if (ctx.segment_count() > 9) break;
            // Exhaustive over all r^n assignments.
            double best = 1e99;
            Assignment cur(ctx.segment_count(), 0);
            for (;;) {
                best = std::min(best, ctx.delay(cur));
                std::size_t i = 0;
                while (i < cur.size() && ++cur[i] == r) cur[i++] = 0;
                if (i == cur.size()) break;
            }
            const OwsaResult o = owsa(ctx);
            EXPECT_NEAR(o.delay, best, 1e-9 * best);
            EXPECT_TRUE(is_monotone(ctx, o.assignment));
        }
    }
}

TEST(Grewsa, OptimalForTwoWidths)
{
    // Theorem 6: GREWSA is optimal when r = 2.
    const Technology tech = mcm_technology();
    const auto nets = random_nets(77, 8, 600, 6);
    for (const Net& net : nets) {
        const AtreeResult a = build_atree_general(net);
        const FlatTree ft(a.tree);
        const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(2));
        const GrewsaResult lo = grewsa_from_min(ctx);
        const GrewsaResult hi = grewsa_from_max(ctx);
        const OwsaResult o = owsa(ctx);
        EXPECT_NEAR(lo.delay, o.delay, 1e-9 * o.delay);
        EXPECT_NEAR(hi.delay, o.delay, 1e-9 * o.delay);
    }
}

TEST(GrewsaOwsa, BoundsBracketAndOptimal)
{
    const Technology tech = mcm_technology();
    const auto nets = random_nets(99, 6, 600, 6);
    for (const Net& net : nets) {
        const AtreeResult a = build_atree_general(net);
        const FlatTree ft(a.tree);
        for (const int r : {3, 4}) {
            const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(r));
            const CombinedResult c = grewsa_owsa(ctx);
            const OwsaResult o = owsa(ctx);
            EXPECT_NEAR(c.delay, o.delay, 1e-9 * o.delay);
            // The dominance bounds bracket the optimal assignment.
            EXPECT_TRUE(dominates(o.assignment, c.lower_bounds));
            EXPECT_TRUE(dominates(c.upper_bounds, o.assignment));
            // Far fewer assignments examined than plain OWSA.
            EXPECT_LE(c.assignments_examined, o.assignments_examined);
            // Delay lower bound from Eq. 51-54 is valid.
            const double lb = delay_lower_bound(ctx, c.lower_bounds, c.upper_bounds);
            EXPECT_LE(lb, o.delay * (1.0 + 1e-9));
        }
    }
}

TEST(Counting, ExhaustiveAndMonotone)
{
    const Technology tech = mcm_technology();
    const FlatTree ft(make_t_tree());
    EXPECT_DOUBLE_EQ(exhaustive_assignment_count(3, 2), 8.0);
    // Monotone assignments of stem+2 branches with r=2:
    // stem=W1 -> branches W1 (1); stem=W2 -> branches free (4). Total 5.
    EXPECT_DOUBLE_EQ(
        monotone_assignment_count(WiresizeContext(ft, tech, WidthSet::uniform_steps(2))),
        5.0);
    // r=3: stem=1 ->1, stem=2 ->4, stem=3 ->9. Total 14.
    EXPECT_DOUBLE_EQ(
        monotone_assignment_count(WiresizeContext(ft, tech, WidthSet::uniform_steps(3))),
        14.0);
}

TEST(Counting, ChainFormula)
{
    // For a chain of n segments, monotone assignments = C(n+r-1, r-1).
    RoutingTree t(Point{0, 0});
    NodeId cur = t.root();
    Point p{0, 0};
    for (int i = 0; i < 4; ++i) {
        // Alternate directions so each edge is its own segment.
        p = (i % 2 == 0) ? Point{static_cast<Coord>(p.x + 3), p.y}
                         : Point{p.x, static_cast<Coord>(p.y + 3)};
        cur = t.add_child(cur, p);
    }
    t.mark_sink(cur);
    const Technology tech = mcm_technology();
    const FlatTree ft(t);
    const WiresizeContext c2(ft, tech, WidthSet::uniform_steps(2));
    const WiresizeContext c3(ft, tech, WidthSet::uniform_steps(3));
    ASSERT_EQ(c2.segment_count(), 4u);
    EXPECT_DOUBLE_EQ(monotone_assignment_count(c2), 5.0);   // C(5,1)
    EXPECT_DOUBLE_EQ(monotone_assignment_count(c3), 15.0);  // C(6,2)
}

}  // namespace
}  // namespace cong93
