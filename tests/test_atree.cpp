#include <gtest/gtest.h>

#include "atree/atree.h"
#include "atree/forest.h"
#include "atree/generalized.h"
#include "rtree/metrics.h"
#include "rtree/validate.h"

namespace cong93 {
namespace {

TEST(Forest, InitialState)
{
    Forest f(Point{0, 0}, {{3, 4}, {1, 1}});
    EXPECT_EQ(f.node_count(), 3u);
    EXPECT_EQ(f.roots().size(), 3u);
    EXPECT_FALSE(f.single_tree());
    EXPECT_EQ(f.total_length(), 0);
    EXPECT_TRUE(f.covers(Point{3, 4}));
    EXPECT_FALSE(f.covers(Point{2, 2}));
}

TEST(Forest, RejectsBadNets)
{
    EXPECT_THROW(Forest(Point{1, 0}, {}), std::invalid_argument);
    EXPECT_THROW(Forest(Point{0, 0}, {{-1, 2}}), std::invalid_argument);
}

TEST(Forest, AnalyzeDfToOrigin)
{
    // A single sink dominates only the origin.
    Forest f(Point{0, 0}, {{3, 4}});
    int sink_root = -1;
    for (const int r : f.roots())
        if (f.node(r).p == (Point{3, 4})) sink_root = r;
    ASSERT_GE(sink_root, 0);
    const auto q = f.analyze(sink_root);
    EXPECT_EQ(q.df, 7);
    EXPECT_EQ(*q.mf_west, (Point{0, 0}));
    EXPECT_EQ(q.dx, kInfLen);
    EXPECT_EQ(q.dy, kInfLen);
}

TEST(Forest, AnalyzeRegionalQueries)
{
    // p = (4,4); a NW root at (2,6) and an SE root at (7,1).
    Forest f(Point{0, 0}, {{4, 4}, {2, 6}, {7, 1}});
    int p_root = -1;
    for (const int r : f.roots())
        if (f.node(r).p == (Point{4, 4})) p_root = r;
    const auto q = f.analyze(p_root);
    EXPECT_EQ(q.dx, 2);
    EXPECT_EQ(*q.mx, (Point{2, 6}));
    EXPECT_EQ(q.dy, 3);
    EXPECT_EQ(*q.my, (Point{7, 1}));
    EXPECT_EQ(q.df, 8);  // the origin
}

TEST(Forest, ApplyPathFreshRoot)
{
    Forest f(Point{0, 0}, {{5, 5}, {9, 9}});
    int r55 = -1;
    for (const int r : f.roots())
        if (f.node(r).p == (Point{5, 5})) r55 = r;
    const auto res = f.apply_path(r55, {Point{5, 2}});
    EXPECT_FALSE(res.merged);
    EXPECT_EQ(res.end_point, (Point{5, 2}));
    EXPECT_EQ(f.roots().size(), 3u);
    EXPECT_EQ(f.total_length(), 3);
    EXPECT_TRUE(f.covers(Point{5, 3}));
    // The new point is a root; the old root is not.
    bool found_new = false;
    for (const int r : f.roots()) found_new = found_new || f.node(r).p == (Point{5, 2});
    EXPECT_TRUE(found_new);
}

TEST(Forest, ApplyPathMergesAtContact)
{
    Forest f(Point{0, 0}, {{5, 5}, {5, 2}});
    int r55 = -1;
    for (const int r : f.roots())
        if (f.node(r).p == (Point{5, 5})) r55 = r;
    // Walking south from (5,5) toward (5,0) must stop at the sink (5,2).
    const auto res = f.apply_path(r55, {Point{5, 0}});
    EXPECT_TRUE(res.merged);
    EXPECT_EQ(res.end_point, (Point{5, 2}));
    EXPECT_EQ(f.roots().size(), 2u);
    EXPECT_EQ(f.total_length(), 3);
}

TEST(Forest, ApplyPathSplitsMidSegment)
{
    Forest f(Point{0, 0}, {{5, 5}, {8, 3}});
    int r55 = -1, r83 = -1;
    for (const int r : f.roots()) {
        if (f.node(r).p == (Point{5, 5})) r55 = r;
        if (f.node(r).p == (Point{8, 3})) r83 = r;
    }
    // Grow (5,5) down to (5,3): root now (5,3).
    const auto res1 = f.apply_path(r55, {Point{5, 3}});
    // Walk (8,3) west; it must merge into the middle of nothing -- the
    // vertical wire is at x=5 spanning y in [3,5], so a westward walk at y=3
    // hits (5,3), the new root itself.
    const auto res2 = f.apply_path(r83, {Point{0, 3}});
    EXPECT_TRUE(res2.merged);
    EXPECT_EQ(res2.end_point, (Point{5, 3}));
    EXPECT_EQ(f.roots().size(), 2u);
    EXPECT_EQ(f.total_length(), 2 + 3);
    // Merged tree root is (5,3).
    bool root53 = false;
    for (const int r : f.roots()) root53 = root53 || f.node(r).p == (Point{5, 3});
    EXPECT_TRUE(root53);
    (void)res1;
}

TEST(Atree, SingleSink)
{
    const Net net{{0, 0}, {{3, 4}}};
    const AtreeResult r = build_atree(net);
    require_valid(r.tree, net);
    EXPECT_TRUE(is_atree(r.tree));
    EXPECT_EQ(r.cost, 7);
    EXPECT_TRUE(r.all_safe());
    EXPECT_EQ(r.lower_bound(), 7);
}

TEST(Atree, TwoAlignedSinks)
{
    const Net net{{0, 0}, {{0, 3}, {0, 7}}};
    const AtreeResult r = build_atree(net);
    require_valid(r.tree, net);
    EXPECT_TRUE(is_atree(r.tree));
    EXPECT_EQ(r.cost, 7);  // one straight wire
}

TEST(Atree, StaircasePerfectSharing)
{
    // Sinks on a staircase: optimal arborescence shares the full "lower
    // envelope"; optimum = 8 (e.g. sinks (1,3),(2,2),(3,1) cost: spine).
    const Net net{{0, 0}, {{1, 3}, {2, 2}, {3, 1}}};
    const AtreeResult r = build_atree(net);
    require_valid(r.tree, net);
    EXPECT_TRUE(is_atree(r.tree));
    // Lower bound from the paper's machinery must hold.
    EXPECT_LE(r.lower_bound(), r.cost);
    EXPECT_LE(r.cost, 8);
}

TEST(Atree, DominatingChainIsOneSpine)
{
    // All sinks on one monotone chain: the A-tree is a single staircase of
    // length dist(origin, farthest).
    const Net net{{0, 0}, {{2, 1}, {4, 2}, {6, 5}}};
    const AtreeResult r = build_atree(net);
    require_valid(r.tree, net);
    EXPECT_TRUE(is_atree(r.tree));
    EXPECT_EQ(r.cost, 11);
    EXPECT_TRUE(r.all_safe());
}

TEST(Atree, FourCornersExample)
{
    const Net net{{0, 0}, {{10, 2}, {2, 10}, {8, 8}, {5, 5}}};
    const AtreeResult r = build_atree(net);
    require_valid(r.tree, net);
    EXPECT_TRUE(is_atree(r.tree));
    EXPECT_GE(r.cost, r.lower_bound());
    EXPECT_GE(r.safe_moves + r.heuristic_moves, 4);
}

TEST(Atree, RejectsNonFirstQuadrant)
{
    const Net net{{5, 5}, {{0, 0}}};
    EXPECT_THROW(build_atree(net), std::invalid_argument);
}

TEST(Atree, TranslatedSource)
{
    // First-quadrant relative to a nonzero source.
    const Net net{{100, 200}, {{103, 204}, {110, 202}}};
    const AtreeResult r = build_atree(net);
    require_valid(r.tree, net);
    EXPECT_TRUE(is_atree(r.tree));
}

TEST(Atree, DuplicateAndCoincidentSinks)
{
    const Net net{{0, 0}, {{3, 3}, {3, 3}, {0, 0}}};
    const AtreeResult r = build_atree(net);
    EXPECT_TRUE(spans_net(r.tree, net));
    EXPECT_EQ(r.cost, 6);
}

TEST(AtreeGeneral, FourQuadrants)
{
    const Net net{{50, 50}, {{60, 60}, {40, 62}, {35, 35}, {70, 40}}};
    const AtreeResult r = build_atree_general(net);
    require_valid(r.tree, net);
    EXPECT_TRUE(is_atree(r.tree));
}

TEST(AtreeGeneral, AxisSinks)
{
    const Net net{{10, 10}, {{10, 20}, {20, 10}, {10, 0}, {0, 10}}};
    const AtreeResult r = build_atree_general(net);
    require_valid(r.tree, net);
    EXPECT_TRUE(is_atree(r.tree));
    EXPECT_EQ(r.cost, 40);  // four straight spokes
}

TEST(AtreeGeneral, MatchesFirstQuadrantBuilderOnFirstQuadrantNets)
{
    const Net net{{0, 0}, {{4, 7}, {6, 2}, {3, 3}}};
    const AtreeResult a = build_atree(net);
    const AtreeResult b = build_atree_general(net);
    EXPECT_EQ(a.cost, b.cost);
}

TEST(Atree, SigmaQmst)
{
    // sigma(p, d) = Σ_{i=0..d-1} (px+py-i).
    EXPECT_EQ(sigma_qmst(Point{3, 4}, 0), 0);
    EXPECT_EQ(sigma_qmst(Point{3, 4}, 1), 7);
    EXPECT_EQ(sigma_qmst(Point{3, 4}, 3), 7 + 6 + 5);
    // Monotone in d for fixed p (as required by Lemma 3's corollary).
    for (Length d = 1; d < 7; ++d)
        EXPECT_GT(sigma_qmst(Point{3, 4}, d), sigma_qmst(Point{3, 4}, d - 1));
}

TEST(Atree, QmstCostMatchesSigmaDecomposition)
{
    // The QMST cost of the built tree equals Σ over tree edges of
    // sigma_qmst(child_end, edge_len) when every edge is monotone (A-tree).
    const Net net{{0, 0}, {{5, 3}, {2, 6}, {7, 1}}};
    const AtreeResult r = build_atree(net);
    Length total = 0;
    r.tree.for_each_edge([&](NodeId id) {
        total += sigma_qmst(r.tree.point(id), r.tree.edge_length(id));
    });
    EXPECT_EQ(total, r.qmst_cost);
    EXPECT_EQ(total, sum_all_node_path_lengths(FlatTree(r.tree)));
}

}  // namespace
}  // namespace cong93
