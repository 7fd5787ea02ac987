// Scenario tests for the A-tree forest machinery, modelled on the paper's
// Figures 7-9: blocking, mid-segment nearest-dominated points, the S2/S3
// length rule, move-engine invariants, and the tree transformations of
// rtree/transform.h.
#include <gtest/gtest.h>

#include <random>

#include "atree/atree.h"
#include "atree/forest.h"
#include "atree/generalized.h"
#include "netgen/netgen.h"
#include "rtree/metrics.h"
#include "rtree/transform.h"
#include "rtree/validate.h"
#include "tech/technology.h"
#include "wiresize/delay_eval.h"

namespace cong93 {
namespace {

int root_at(const Forest& f, Point p)
{
    for (const int r : f.roots())
        if (f.node(r).p == p) return r;
    ADD_FAILURE() << "no root at (" << p.x << ',' << p.y << ')';
    return -1;
}

// ------------------------------------------------- Definition 5/6: blocking

TEST(ForestScenario, NwRootBlockedByColumnPoint)
{
    // q=(2,6) is NW of p=(4,4); the sink r=(2,5) sits on q's column inside
    // the gate [p.y, q.y) and blocks q from p (Definition 5).
    Forest f(Point{0, 0}, {{4, 4}, {2, 6}, {2, 5}});
    const auto q = f.analyze(root_at(f, Point{4, 4}));
    // (2,5) is itself NW of p and unblocked, so mx = (2,5), not (2,6).
    ASSERT_TRUE(q.mx.has_value());
    EXPECT_EQ(*q.mx, (Point{2, 5}));
    EXPECT_EQ(q.dx, 2);
}

TEST(ForestScenario, NwRootBlockedLeavesNoMx)
{
    // Same geometry but the blocker sits at (2,4): on the column, inside the
    // gate, *not* NW of p (same row).  q is blocked and no other NW root
    // exists -> dx = infinity.
    Forest f(Point{0, 0}, {{4, 4}, {2, 6}, {2, 4}});
    const auto q = f.analyze(root_at(f, Point{4, 4}));
    EXPECT_FALSE(q.mx.has_value());
    EXPECT_EQ(q.dx, kInfLen);
    // (2,4) is dominated by p: it is the nearest dominated point.
    EXPECT_EQ(q.df, 2);
    EXPECT_EQ(*q.mf_west, (Point{2, 4}));
}

TEST(ForestScenario, SeRootBlockedByRowPoint)
{
    // my-side symmetry: q=(6,2) is SE of p=(4,4); blocker (5,2) on q's row
    // inside [p.x, q.x).
    Forest f(Point{0, 0}, {{4, 4}, {6, 2}, {5, 2}});
    const auto q = f.analyze(root_at(f, Point{4, 4}));
    ASSERT_TRUE(q.my.has_value());
    EXPECT_EQ(*q.my, (Point{5, 2}));  // the blocker is itself the nearest SE root
    EXPECT_EQ(q.dy, 2);
}

TEST(ForestScenario, EdgeInteriorBlocks)
{
    // A wire interior (not a node) can block: p=(5,4) and q=(3,6) NW of p;
    // a horizontal wire grown from (30,5) to (2,5) crosses q's column at
    // (3,5), inside the gate [4,6) -> q is blocked from p, and the wire's
    // fresh root (2,5) becomes the nearest unblocked NW root instead.
    Forest f(Point{0, 0}, {{5, 4}, {3, 6}, {30, 5}});
    const auto res = f.apply_path(root_at(f, Point{30, 5}), {Point{2, 5}});
    ASSERT_FALSE(res.merged);
    const auto q = f.analyze(root_at(f, Point{5, 4}));
    ASSERT_TRUE(q.mx.has_value());
    EXPECT_EQ(*q.mx, (Point{2, 5}));  // NOT the blocked (3,6)
    EXPECT_EQ(q.dx, 3);
}

// ------------------------------------- Definition 7: mf on a segment interior

TEST(ForestScenario, NearestDominatedPointMidSegment)
{
    Forest f(Point{0, 0}, {{6, 6}, {2, 20}});
    // Grow (2,20) south to (2,2): now the best dominated point for (6,6) is
    // the wire interior point (2,6)?  No: dominated requires y <= 6, and the
    // closest such wire point is (2,6) exactly; rect distance 4 beats the
    // origin's 12.
    const auto res = f.apply_path(root_at(f, Point{2, 20}), {Point{2, 2}});
    ASSERT_FALSE(res.merged);
    const auto q = f.analyze(root_at(f, Point{6, 6}));
    EXPECT_EQ(q.df, 4);
    EXPECT_EQ(*q.mf_west, (Point{2, 6}));
    EXPECT_EQ(*q.mf_south, (Point{2, 6}));
}

TEST(ForestScenario, MfWestVsMfSouthTie)
{
    // Two dominated terminals at equal distance: west-most and south-most
    // selections differ.
    Forest f(Point{0, 0}, {{5, 5}, {2, 4}, {4, 2}});
    const auto q = f.analyze(root_at(f, Point{5, 5}));
    EXPECT_EQ(q.df, 4);
    EXPECT_EQ(*q.mf_west, (Point{2, 4}));
    EXPECT_EQ(*q.mf_south, (Point{4, 2}));
}

// ----------------------------------------- Figure 8: S2/S3 length selection

TEST(ForestScenario, S2StopsAtMySRow)
{
    // The engine scans roots farthest-from-origin first, so make the S2
    // candidate the farthest: p=(3,9) (dist 12) with my=(8,2) (dist 10).
    // dy = 7 < df = 12 and dist_y(mf_south=origin, p) = 9 > dy, so the
    // vertical move covers exactly dy and stops level with my (Fig. 8b).
    Forest f(Point{0, 0}, {{3, 9}, {8, 2}});
    MoveEngine engine(f, HeuristicPolicy::farthest_corner);
    ASSERT_TRUE(engine.step());
    ASSERT_FALSE(engine.log().empty());
    const MoveRecord& mv = engine.log().front();
    EXPECT_EQ(mv.type, MoveType::s2);
    EXPECT_EQ(mv.from1, (Point{3, 9}));
    EXPECT_EQ(mv.to, (Point{3, 2}));  // moved exactly dy = 7 south
    EXPECT_EQ(mv.added, 7);
    EXPECT_EQ(mv.sb, 0);  // safe moves carry no suboptimality
}

TEST(ForestScenario, S2StopsAtMfSouthRow)
{
    // dist_y(mf_south, p) < dy: the move stops level with mf_south
    // (Fig. 8c).  p=(3,20) is the farthest root (dist 23); the dominated
    // terminal (1,18) gives df=4 and mf_south row 18 (dist_y=2); the SE
    // root (5,17) gives dy=3 < df.
    Forest f(Point{0, 0}, {{3, 20}, {1, 18}, {5, 17}});
    MoveEngine engine(f, HeuristicPolicy::farthest_corner);
    ASSERT_TRUE(engine.step());
    const MoveRecord& mv = engine.log().front();
    EXPECT_EQ(mv.type, MoveType::s2);
    EXPECT_EQ(mv.from1, (Point{3, 20}));
    EXPECT_EQ(mv.to, (Point{3, 18}));  // min(dist_y(mf_south,p)=2, dy=3) = 2
}

TEST(ForestScenario, S1ConnectsToMfWest)
{
    // dx, dy both >= df: direct connection to mf_west.
    Forest f(Point{0, 0}, {{4, 4}, {2, 3}});
    MoveEngine engine(f, HeuristicPolicy::farthest_corner);
    ASSERT_TRUE(engine.step());
    const MoveRecord& mv = engine.log().front();
    EXPECT_EQ(mv.type, MoveType::s1);
    EXPECT_EQ(mv.from1, (Point{4, 4}));
    EXPECT_EQ(mv.to, (Point{2, 3}));
    EXPECT_EQ(mv.added, 3);
}

// ------------------------------------------------- engine global invariants

TEST(ForestScenario, EngineInvariantsOnRandomNets)
{
    std::mt19937_64 rng(808);
    for (int trial = 0; trial < 30; ++trial) {
        std::uniform_int_distribution<Coord> c(0, 30);
        std::vector<Point> sinks;
        for (int i = 0; i < 10; ++i) sinks.push_back({c(rng), c(rng)});
        Forest f(Point{0, 0}, sinks);
        MoveEngine engine(f, HeuristicPolicy::farthest_corner);
        std::size_t prev_roots = f.roots().size();
        Length prev_len = 0;
        while (engine.step()) {
            // Every move either merges trees or keeps the count.
            EXPECT_LE(f.roots().size(), prev_roots);
            EXPECT_GE(f.total_length(), prev_len);
            prev_roots = f.roots().size();
            prev_len = f.total_length();
            // Roots are pairwise distinct points and all dominated points
            // stay inside the first quadrant.
            for (const int r : f.roots()) {
                EXPECT_GE(f.node(r).p.x, 0);
                EXPECT_GE(f.node(r).p.y, 0);
            }
        }
        EXPECT_TRUE(f.single_tree());
        // Safe moves never carry suboptimality; heuristic moves may.
        for (const MoveRecord& mv : engine.log()) {
            if (mv.type != MoveType::h1 && mv.type != MoveType::h2) {
                EXPECT_EQ(mv.sb, 0);
                EXPECT_EQ(mv.sb_qmst, 0);
            }
            EXPECT_GE(mv.added, 0);
        }
    }
}

TEST(ForestScenario, HeuristicMovesDoOccur)
{
    // Dense nets exercise the H-paths; make sure the engine actually takes
    // them (the paper reports ~4% heuristic moves).
    std::mt19937_64 rng(909);
    int heuristics = 0;
    for (int trial = 0; trial < 40; ++trial) {
        std::uniform_int_distribution<Coord> c(0, 12);
        Net net;
        net.source = Point{0, 0};
        for (int i = 0; i < 10; ++i) net.sinks.push_back({c(rng), c(rng)});
        heuristics += build_atree(net).heuristic_moves;
    }
    EXPECT_GT(heuristics, 0);
}

// --------------------------------------------------------- transformations

TEST(Transform, SubdivideMakesShortSegmentsAndKeepsGeometry)
{
    const Net net{{0, 0}, {{300, 100}, {50, 400}, {220, 260}}};
    const RoutingTree tree = build_atree_general(net).tree;
    const RoutingTree fine = subdivide_edges(tree, 64);
    EXPECT_TRUE(same_geometry(tree, fine));
    const FlatTree fine_ft(fine), tree_ft(tree);
    EXPECT_EQ(total_length(fine_ft), total_length(tree_ft));
    EXPECT_EQ(sum_all_node_path_lengths(fine_ft), sum_all_node_path_lengths(tree_ft));
    EXPECT_TRUE(spans_net(fine, net));
    EXPECT_TRUE(validate_structure(fine).empty());
    const FlatTree ft(fine);
    const WiresizeContext ctx(ft, mcm_technology(), WidthSet::uniform_steps(1));
    for (const double length : ctx.seg_length()) EXPECT_LE(length, 64.0);
}

TEST(Transform, SubdivideRejectsBadPiece)
{
    RoutingTree t(Point{0, 0});
    t.mark_sink(t.add_child(t.root(), Point{4, 0}));
    EXPECT_THROW(subdivide_edges(t, 0), std::invalid_argument);
}

TEST(Transform, SimplifyUndoesWaypoints)
{
    RoutingTree t(Point{0, 0});
    // Straight run with redundant waypoints.
    const NodeId end = t.attach_path(t.root(), {{0, 2}, {0, 5}, {0, 9}, {4, 9}});
    t.mark_sink(end);
    EXPECT_EQ(t.node_count(), 5u);
    const RoutingTree s = simplify(t);
    EXPECT_EQ(s.node_count(), 3u);  // source, corner, sink
    EXPECT_TRUE(same_geometry(s, t));
    EXPECT_EQ(s.sinks().size(), 1u);
}

TEST(Transform, SimplifyKeepsForcedBoundaries)
{
    RoutingTree t(Point{0, 0});
    const NodeId mid = t.add_child(t.root(), Point{0, 5});
    t.mark_segment_boundary(mid);
    t.mark_sink(t.add_child(mid, Point{0, 9}));
    const RoutingTree s = simplify(t);
    EXPECT_EQ(s.node_count(), 3u);  // the boundary node survives
    const FlatTree ft(s);
    EXPECT_EQ(WiresizeContext(ft, mcm_technology(), WidthSet::uniform_steps(1))
                  .segment_count(),
              2u);
}

TEST(Transform, SameGeometryIgnoresRepresentation)
{
    RoutingTree a(Point{0, 0});
    a.mark_sink(a.attach_path(a.root(), {{5, 0}, {5, 5}}));
    RoutingTree b(Point{0, 0});
    const NodeId m = b.add_child(b.root(), Point{3, 0});
    const NodeId m2 = b.add_child(m, Point{5, 0});
    b.mark_sink(b.attach_path(m2, {{5, 5}}));
    EXPECT_TRUE(same_geometry(a, b));
    RoutingTree c(Point{0, 0});
    c.mark_sink(c.attach_path(c.root(), {{0, 5}, {5, 5}}));
    EXPECT_FALSE(same_geometry(a, c));
}

TEST(Transform, SubdividedWiresizingNeverWorse)
{
    // Finer granularity can only help the optimal assignment (whole-segment
    // assignments are a subset of subdivided ones).
    const Technology tech = mcm_technology();
    const Net net{{0, 0}, {{2000, 600}, {300, 2500}, {1500, 1500}}};
    const RoutingTree tree = build_atree_general(net).tree;
    const FlatTree coarse(tree);
    const FlatTree fine(subdivide_edges(tree, 250));
    const WidthSet ws = WidthSet::uniform_steps(3);
    const WiresizeContext cc(coarse, tech, ws);
    const WiresizeContext cf(fine, tech, ws);
    // Uniform-width delay is identical at any granularity.
    EXPECT_NEAR(cc.delay(min_assignment(cc.segment_count())),
                cf.delay(min_assignment(cf.segment_count())), 1e-20);
}

}  // namespace
}  // namespace cong93
