// Property-based tests of the A-tree algorithm over random nets
// (parameterized sweeps): structural invariants, the safe-move optimality
// corollaries, lower-bound validity, and comparisons with the exact DP.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>

#include "atree/atree.h"
#include "atree/exact_rsa.h"
#include "atree/generalized.h"
#include "baseline/exact_steiner.h"
#include "rtree/metrics.h"
#include "rtree/validate.h"

namespace cong93 {
namespace {

struct Case {
    std::uint64_t seed;
    int sinks;
    Coord span;
    bool general;  // arbitrary quadrants vs first quadrant only
};

class AtreeProperty : public ::testing::TestWithParam<Case> {
protected:
    void SetUp() override
    {
        const Case c = GetParam();
        std::mt19937_64 rng(c.seed);
        std::uniform_int_distribution<Coord> coord(
            c.general ? -c.span : 0, c.span);
        net_.source = Point{0, 0};
        for (int i = 0; i < c.sinks; ++i)
            net_.sinks.push_back(Point{coord(rng), coord(rng)});
        result_ = std::make_unique<AtreeResult>(
            c.general ? build_atree_general(net_) : build_atree(net_));
    }

    Net net_;
    std::unique_ptr<AtreeResult> result_;
};

TEST_P(AtreeProperty, TreeIsValidAndSpansNet)
{
    require_valid(result_->tree, net_);
}

TEST_P(AtreeProperty, TreeIsAnAtree)
{
    // Definition 1: every source-to-node path is rectilinearly shortest.
    EXPECT_TRUE(is_atree(result_->tree));
}

TEST_P(AtreeProperty, SinkPathsAreShortest)
{
    // A-trees are SPTs: the t2 term is optimal.  (Deduplicate: coincident
    // sinks share one tree node, so they count once in the tree sum.)
    std::set<Point> unique_sinks(net_.sinks.begin(), net_.sinks.end());
    Length direct = 0;
    for (const Point s : unique_sinks) direct += dist(net_.source, s);
    EXPECT_EQ(sum_sink_path_lengths(FlatTree(result_->tree)), direct);
}

TEST_P(AtreeProperty, CostsAreConsistent)
{
    const FlatTree ft(result_->tree);
    EXPECT_EQ(result_->cost, total_length(ft));
    EXPECT_EQ(result_->qmst_cost, sum_all_node_path_lengths(ft));
    EXPECT_GE(result_->sb_total, 0);
    EXPECT_GE(result_->sb_qmst_total, 0);
    EXPECT_LE(result_->lower_bound(), result_->cost);
    EXPECT_LE(result_->qmst_lower_bound(), result_->qmst_cost);
}

TEST_P(AtreeProperty, LowerBoundBelowExactOptimum)
{
    const Case c = GetParam();
    if (c.general || c.sinks > 8) GTEST_SKIP() << "exact DP is first-quadrant only";
    const Length opt = exact_rsa_cost(net_);
    EXPECT_LE(result_->lower_bound(), opt);
    EXPECT_GE(result_->cost, opt);
    const Length opt_qmst = exact_rsa_cost(net_, RsaCost::qmst);
    EXPECT_LE(result_->qmst_lower_bound(), opt_qmst);
    EXPECT_GE(result_->qmst_cost, opt_qmst);
}

TEST_P(AtreeProperty, AllSafeImpliesOptimal)
{
    const Case c = GetParam();
    if (c.general || c.sinks > 8 || !result_->all_safe()) GTEST_SKIP();
    EXPECT_EQ(result_->cost, exact_rsa_cost(net_));
    EXPECT_EQ(result_->qmst_cost, exact_rsa_cost(net_, RsaCost::qmst));
}

TEST_P(AtreeProperty, CostAtLeastSteinerOptimum)
{
    const Case c = GetParam();
    if (c.general || c.sinks > 8) GTEST_SKIP();
    EXPECT_GE(result_->cost, exact_steiner_cost(net_));
}

TEST_P(AtreeProperty, MinSbPolicyGivesValidLowerBound)
{
    const Case c = GetParam();
    if (c.general || c.sinks > 8) GTEST_SKIP();
    const AtreeResult lb_run =
        build_atree(net_, AtreeOptions{HeuristicPolicy::min_suboptimality});
    const Length opt = exact_rsa_cost(net_);
    EXPECT_LE(lb_run.lower_bound(), opt);
    EXPECT_TRUE(is_atree(lb_run.tree));
}

TEST_P(AtreeProperty, MoveCountsAreSane)
{
    const int moves = result_->safe_moves + result_->heuristic_moves;
    // At least one move per sink is needed to join the forest.
    EXPECT_GE(moves, 1);
    // Defensive upper bound: the engine should not thrash.
    EXPECT_LE(moves, 20 * static_cast<int>(net_.sinks.size()) + 20);
}

INSTANTIATE_TEST_SUITE_P(
    FirstQuadrant, AtreeProperty,
    ::testing::Values(Case{101, 2, 10, false}, Case{102, 3, 10, false},
                      Case{103, 4, 12, false}, Case{104, 5, 20, false},
                      Case{105, 6, 20, false}, Case{106, 7, 50, false},
                      Case{107, 8, 100, false}, Case{108, 8, 8, false},
                      Case{109, 12, 200, false}, Case{110, 16, 4000, false},
                      Case{111, 24, 1000, false}, Case{112, 5, 5, false}),
    [](const ::testing::TestParamInfo<Case>& info) {
        return "s" + std::to_string(info.param.sinks) + "_span" +
               std::to_string(info.param.span) + "_seed" +
               std::to_string(info.param.seed);
    });

INSTANTIATE_TEST_SUITE_P(
    General, AtreeProperty,
    ::testing::Values(Case{201, 4, 50, true}, Case{202, 8, 100, true},
                      Case{203, 16, 2000, true}, Case{204, 6, 10, true},
                      Case{205, 10, 300, true}, Case{206, 20, 1000, true}),
    [](const ::testing::TestParamInfo<Case>& info) {
        return "s" + std::to_string(info.param.sinks) + "_span" +
               std::to_string(info.param.span) + "_seed" +
               std::to_string(info.param.seed);
    });

/// Many-seed stress: every first-quadrant net of moderate size yields a
/// valid A-tree whose cost is within the ERROR bound of optimal.
TEST(AtreeStress, HundredRandomNets)
{
    std::mt19937_64 rng(999);
    for (int trial = 0; trial < 100; ++trial) {
        std::uniform_int_distribution<Coord> coord(0, 60);
        std::uniform_int_distribution<int> nsink(2, 7);
        Net net;
        net.source = Point{0, 0};
        const int k = nsink(rng);
        for (int i = 0; i < k; ++i) net.sinks.push_back(Point{coord(rng), coord(rng)});
        const AtreeResult r = build_atree(net);
        require_valid(r.tree, net);
        ASSERT_TRUE(is_atree(r.tree));
        const Length opt = exact_rsa_cost(net);
        ASSERT_LE(r.lower_bound(), opt);
        ASSERT_GE(r.cost, opt);
        // Empirical quality claim of Section 3.4: within a few percent.
        ASSERT_LE(static_cast<double>(r.cost), 1.25 * static_cast<double>(opt) + 2.0);
    }
}

}  // namespace
}  // namespace cong93
