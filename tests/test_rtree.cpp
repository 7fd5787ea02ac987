#include <gtest/gtest.h>

#include "rtree/io.h"
#include "rtree/metrics.h"
#include "rtree/routing_tree.h"
#include "rtree/validate.h"
#ifdef CONG93_HAVE_ORACLES
#include "oracle/segments_reference.h"
#endif

namespace cong93 {
namespace {

/// The T-tree of Figure 4: source at the bottom of the stem, two branches.
///      x         x
///      +----+----+
///           |
///           S
RoutingTree make_t_tree()
{
    RoutingTree t(Point{5, 0});
    const NodeId mid = t.add_child(t.root(), Point{5, 4});
    const NodeId left = t.add_child(mid, Point{0, 4});
    const NodeId right = t.add_child(mid, Point{10, 4});
    t.mark_sink(left);
    t.mark_sink(right);
    return t;
}

TEST(RoutingTree, BasicConstruction)
{
    const RoutingTree t = make_t_tree();
    EXPECT_EQ(t.node_count(), 4u);
    EXPECT_EQ(t.sinks().size(), 2u);
    EXPECT_EQ(t.point(t.root()), (Point{5, 0}));
    EXPECT_EQ(t.path_length(1), 4);
    EXPECT_EQ(t.path_length(2), 9);
    EXPECT_EQ(t.path_length(3), 9);
    EXPECT_TRUE(validate_structure(t).empty());
}

TEST(RoutingTree, RejectsBadEdges)
{
    RoutingTree t(Point{0, 0});
    EXPECT_THROW(t.add_child(t.root(), Point{1, 1}), std::invalid_argument);
    EXPECT_THROW(t.add_child(t.root(), Point{0, 0}), std::invalid_argument);
}

TEST(RoutingTree, AttachPathSkipsZeroLegs)
{
    RoutingTree t(Point{0, 0});
    const NodeId end = t.attach_path(t.root(), {{0, 0}, {0, 3}, {0, 3}, {4, 3}});
    EXPECT_EQ(t.point(end), (Point{4, 3}));
    EXPECT_EQ(t.node_count(), 3u);
    EXPECT_EQ(t.path_length(end), 7);
}

TEST(RoutingTree, FindOrSplit)
{
    RoutingTree t = make_t_tree();
    // Existing node: no split.
    const auto existing = t.find_or_split(Point{5, 4});
    ASSERT_TRUE(existing.has_value());
    EXPECT_EQ(t.node_count(), 4u);
    // Mid-edge point: splits the stem.
    const auto mid = t.find_or_split(Point{5, 2});
    ASSERT_TRUE(mid.has_value());
    EXPECT_EQ(t.node_count(), 5u);
    EXPECT_EQ(t.path_length(*mid), 2);
    EXPECT_TRUE(validate_structure(t).empty());
    // The split preserved downstream path lengths.
    EXPECT_EQ(t.path_length(1), 4);
    // Point off the tree.
    EXPECT_FALSE(t.find_or_split(Point{1, 1}).has_value());
}

TEST(RoutingTree, Preorder)
{
    const RoutingTree t = make_t_tree();
    const auto order = t.preorder();
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], t.root());
    // Parent always precedes child.
    std::vector<bool> seen(t.node_count(), false);
    for (const NodeId id : order) {
        if (id != t.root()) {
            EXPECT_TRUE(seen[static_cast<std::size_t>(t.node(id).parent)]);
        }
        seen[static_cast<std::size_t>(id)] = true;
    }
}

TEST(Metrics, TTree)
{
    const FlatTree t(make_t_tree());
    EXPECT_EQ(total_length(t), 14);
    EXPECT_EQ(sum_sink_path_lengths(t), 18);
    // Stem: edge length 4 from pl 0 -> 1+2+3+4 = 10.
    // Each branch: length 5 from pl 4 -> 5+6+7+8+9 = 35.
    EXPECT_EQ(sum_all_node_path_lengths(t), 80);
    EXPECT_EQ(radius(t), 9);
}

TEST(Metrics, MdrtCost)
{
    const FlatTree t(make_t_tree());
    EXPECT_DOUBLE_EQ(mdrt_cost(t, 1, 0, 0), 14.0);
    EXPECT_DOUBLE_EQ(mdrt_cost(t, 0, 1, 0), 18.0);
    EXPECT_DOUBLE_EQ(mdrt_cost(t, 0, 0, 1), 80.0);
    EXPECT_DOUBLE_EQ(mdrt_cost(t, 1, 2, 0.5), 14 + 36 + 40);
}

TEST(Metrics, NetRadius)
{
    const Net net{{0, 0}, {{3, 4}, {-2, 1}}};
    EXPECT_EQ(net_radius(net), 7);
}

TEST(Validate, SpansNet)
{
    const RoutingTree t = make_t_tree();
    const Net good{{5, 0}, {{0, 4}, {10, 4}}};
    const Net bad_source{{0, 0}, {{0, 4}}};
    const Net missing_sink{{5, 0}, {{0, 4}, {7, 7}}};
    EXPECT_TRUE(spans_net(t, good));
    EXPECT_FALSE(spans_net(t, bad_source));
    EXPECT_FALSE(spans_net(t, missing_sink));
    EXPECT_NO_THROW(require_valid(t, good));
    EXPECT_THROW(require_valid(t, missing_sink), std::logic_error);
}

TEST(Validate, IsAtree)
{
    // The T-tree is NOT an A-tree: the left sink is at L1 distance 9 from
    // the source... actually dist((5,0),(0,4)) = 9 == pl -> check carefully.
    const RoutingTree t = make_t_tree();
    EXPECT_TRUE(is_atree(t));  // both sink paths happen to be monotone

    // A genuinely non-shortest detour.
    RoutingTree d(Point{0, 0});
    const NodeId a = d.add_child(d.root(), Point{5, 0});
    const NodeId b = d.add_child(a, Point{5, 3});
    const NodeId c = d.add_child(b, Point{2, 3});  // doubles back west
    d.mark_sink(c);
    EXPECT_FALSE(is_atree(d));
}

#ifdef CONG93_HAVE_ORACLES
// The paper's reference decomposition (Section 2.2) lives with the oracles.
TEST(Segments, TTreeDecomposition)
{
    const RoutingTree t = make_t_tree();
    const SegmentDecomposition segs(t);
    ASSERT_EQ(segs.count(), 3u);
    EXPECT_EQ(segs.roots().size(), 1u);
    const WireSegment& stem = segs[static_cast<std::size_t>(segs.roots()[0])];
    EXPECT_EQ(stem.length, 4);
    EXPECT_EQ(stem.parent, kNoSegment);
    EXPECT_EQ(stem.children.size(), 2u);
    EXPECT_FALSE(stem.tail_is_sink);
    for (const int c : stem.children) {
        EXPECT_EQ(segs[static_cast<std::size_t>(c)].length, 5);
        EXPECT_TRUE(segs[static_cast<std::size_t>(c)].tail_is_sink);
    }
    EXPECT_EQ(segs.total_length(), total_length(FlatTree(t)));
}

TEST(Segments, TurnsSplitSegments)
{
    // One sink reached via a turn: two segments.
    RoutingTree t(Point{0, 0});
    const NodeId corner = t.add_child(t.root(), Point{3, 0});
    const NodeId end = t.add_child(corner, Point{3, 4});
    t.mark_sink(end);
    const SegmentDecomposition segs(t);
    ASSERT_EQ(segs.count(), 2u);
    EXPECT_EQ(segs[0].length, 3);
    EXPECT_EQ(segs[1].length, 4);
    EXPECT_EQ(segs[1].parent, 0);
}

TEST(Segments, CollinearTrivialNodesMerge)
{
    // A chain with a trivial collinear midpoint is one segment.
    RoutingTree t(Point{0, 0});
    const NodeId mid = t.add_child(t.root(), Point{0, 3});
    const NodeId end = t.add_child(mid, Point{0, 8});
    t.mark_sink(end);
    const SegmentDecomposition segs(t);
    ASSERT_EQ(segs.count(), 1u);
    EXPECT_EQ(segs[0].length, 8);
    EXPECT_TRUE(segs[0].tail_is_sink);
}

TEST(Segments, SinkSplitsCollinearRun)
{
    // A sink in the middle of a straight run is non-trivial.
    RoutingTree t(Point{0, 0});
    const NodeId mid = t.add_child(t.root(), Point{0, 3});
    const NodeId end = t.add_child(mid, Point{0, 8});
    t.mark_sink(mid);
    t.mark_sink(end);
    const SegmentDecomposition segs(t);
    ASSERT_EQ(segs.count(), 2u);
    EXPECT_TRUE(segs[0].tail_is_sink);
    EXPECT_TRUE(segs[1].tail_is_sink);
}

TEST(Segments, DownstreamSinkCap)
{
    const RoutingTree t = make_t_tree();
    const SegmentDecomposition segs(t);
    const auto caps = segs.downstream_sink_cap(2.0);
    // Stem sees both sinks; each branch sees one.
    EXPECT_DOUBLE_EQ(caps[static_cast<std::size_t>(segs.roots()[0])], 4.0);
}
#endif  // CONG93_HAVE_ORACLES

TEST(TreeFromParentMap, LEmbedding)
{
    const Net net{{0, 0}, {{4, 3}}};
    const std::vector<Point> pts{{0, 0}, {4, 3}};
    const std::vector<int> parent{-1, 0};
    const RoutingTree t = tree_from_parent_map(net, pts, parent);
    EXPECT_TRUE(validate_structure(t).empty());
    EXPECT_TRUE(spans_net(t, net));
    EXPECT_EQ(total_length(FlatTree(t)), 7);
    EXPECT_EQ(t.node_count(), 3u);  // source, corner, sink
}

TEST(TreeFromParentMap, Errors)
{
    const Net net{{0, 0}, {{4, 3}}};
    EXPECT_THROW(tree_from_parent_map(net, {{0, 0}}, {-1, 0}), std::invalid_argument);
    EXPECT_THROW(tree_from_parent_map(net, {{0, 0}, {4, 3}}, {-1, -1}),
                 std::invalid_argument);
    // Sink not covered.
    EXPECT_THROW(tree_from_parent_map(net, {{0, 0}, {1, 1}}, {-1, 0}),
                 std::invalid_argument);
}

TEST(Io, AsciiAndDot)
{
    const RoutingTree t = make_t_tree();
    const std::string art = to_ascii(t);
    EXPECT_NE(art.find('S'), std::string::npos);
    EXPECT_NE(art.find('x'), std::string::npos);
    const std::string dot = to_dot(t);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);
    EXPECT_NE(describe(t).find("length=14"), std::string::npos);
}

}  // namespace
}  // namespace cong93
