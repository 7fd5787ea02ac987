// Tests for rtree/validate.h: structural validation, net-spanning and
// A-tree predicates, require_valid, and the batch front-end validate_net.
//
// The negative structural cases need trees that the public RoutingTree API
// refuses to build (orphans, diagonal edges, stale cached path lengths).
// RoutingTree befriends TreeSurgeon for exactly this purpose; we define it
// here to corrupt nodes_ directly.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "baseline/spt.h"
#include "rtree/routing_tree.h"
#include "rtree/validate.h"

namespace cong93 {

class TreeSurgeon {
public:
    static RoutingTree::Node& node(RoutingTree& t, NodeId id)
    {
        return t.nodes_[static_cast<std::size_t>(id)];
    }
};

}  // namespace cong93

namespace {

using namespace cong93;

bool mentions(const std::vector<std::string>& errors, const std::string& needle)
{
    for (const auto& e : errors)
        if (e.find(needle) != std::string::npos) return true;
    return false;
}

/// Source at the origin, an L to (4,0)->(4,3) with a sink, and a straight
/// sink at (0,5).  Valid by construction.
RoutingTree small_tree()
{
    RoutingTree t(Point{0, 0});
    const NodeId bend = t.add_child(t.root(), Point{4, 0});
    const NodeId s1 = t.add_child(bend, Point{4, 3});
    const NodeId s2 = t.add_child(t.root(), Point{0, 5});
    t.mark_sink(s1);
    t.mark_sink(s2);
    return t;
}

Net small_net()
{
    Net net;
    net.source = Point{0, 0};
    net.sinks = {Point{4, 3}, Point{0, 5}};
    return net;
}

TEST(ValidateStructure, AcceptsWellFormedTree)
{
    EXPECT_TRUE(validate_structure(small_tree()).empty());
}

TEST(ValidateStructure, DetectsRootWithParent)
{
    RoutingTree t = small_tree();
    TreeSurgeon::node(t, t.root()).parent = 1;
    EXPECT_TRUE(mentions(validate_structure(t), "root has a parent"));
}

TEST(ValidateStructure, DetectsNonzeroRootPathLength)
{
    RoutingTree t = small_tree();
    TreeSurgeon::node(t, t.root()).pl = 7;
    EXPECT_TRUE(mentions(validate_structure(t), "root path length nonzero"));
}

TEST(ValidateStructure, DetectsOrphanNode)
{
    RoutingTree t = small_tree();
    // Detach node 2 (the sink at (4,3)) entirely: drop both the parent link
    // and the bend's child link, leaving an unreachable orphan.
    TreeSurgeon::node(t, 2).parent = kNoNode;
    TreeSurgeon::node(t, 1).children.clear();
    const auto errors = validate_structure(t);
    EXPECT_TRUE(mentions(errors, "non-root node without parent"));
    EXPECT_TRUE(mentions(errors, "not all nodes reachable"));
}

TEST(ValidateStructure, DetectsDiagonalEdge)
{
    RoutingTree t = small_tree();
    TreeSurgeon::node(t, 1).p = Point{4, 1};  // parent is the root at (0,0)
    EXPECT_TRUE(mentions(validate_structure(t), "edge not axis-parallel"));
}

TEST(ValidateStructure, DetectsZeroLengthEdge)
{
    RoutingTree t = small_tree();
    TreeSurgeon::node(t, 3).p = Point{0, 0};  // collapse onto the root
    EXPECT_TRUE(mentions(validate_structure(t), "zero-length edge"));
}

TEST(ValidateStructure, DetectsStaleCachedPathLength)
{
    RoutingTree t = small_tree();
    TreeSurgeon::node(t, 2).pl += 1;
    EXPECT_TRUE(mentions(validate_structure(t), "cached path length inconsistent"));
}

TEST(ValidateStructure, DetectsBrokenParentChildLink)
{
    RoutingTree t = small_tree();
    TreeSurgeon::node(t, 0).children.clear();  // root forgets both children
    const auto errors = validate_structure(t);
    EXPECT_TRUE(mentions(errors, "parent/child link inconsistent"));
    EXPECT_TRUE(mentions(errors, "not all nodes reachable"));
}

TEST(SpansNet, TrueForCoveringTree)
{
    EXPECT_TRUE(spans_net(small_tree(), small_net()));
}

TEST(SpansNet, FalseWhenRootOffSource)
{
    Net net = small_net();
    net.source = Point{1, 0};
    EXPECT_FALSE(spans_net(small_tree(), net));
}

TEST(SpansNet, FalseWhenSinkUnmarked)
{
    RoutingTree t(Point{0, 0});
    t.add_child(t.root(), Point{4, 0});  // passes through but not a sink
    Net net;
    net.source = Point{0, 0};
    net.sinks = {Point{4, 0}};
    EXPECT_FALSE(spans_net(t, net));
}

TEST(IsAtree, ShortestPathTreeQualifies)
{
    // Monotone L-paths from the source: every pl equals the L1 distance.
    EXPECT_TRUE(is_atree(small_tree()));
}

TEST(IsAtree, DetourDisqualifies)
{
    RoutingTree t(Point{0, 0});
    const NodeId away = t.add_child(t.root(), Point{-2, 0});
    const NodeId back = t.add_child(away, Point{3, 0});
    t.mark_sink(back);  // pl = 7 but dist = 3
    EXPECT_FALSE(is_atree(t));
}

TEST(RequireValid, PassesOnGoodTree)
{
    EXPECT_NO_THROW(require_valid(small_tree(), small_net()));
}

TEST(RequireValid, ThrowsOnCorruptedTree)
{
    RoutingTree t = small_tree();
    TreeSurgeon::node(t, 2).pl += 1;
    EXPECT_THROW(require_valid(t, small_net()), std::logic_error);
}

TEST(RequireValid, ThrowsWhenTreeMissesASink)
{
    Net net = small_net();
    net.sinks.push_back(Point{9, 9});
    EXPECT_THROW(require_valid(small_tree(), net), std::logic_error);
}

TEST(RequireValid, AcceptsBuiltRouter)
{
    Net net;
    net.source = Point{10, 10};
    net.sinks = {Point{2, 30}, Point{40, 5}, Point{10, 50}};
    EXPECT_NO_THROW(require_valid(build_spt(net), net));
}

// ---------------------------------------------------------------------------
// validate_net: the batch pipeline's input front-end.

TEST(ValidateNet, AcceptsCleanNetUnchanged)
{
    Net net;
    net.source = Point{0, 0};
    net.sinks = {Point{3, 4}, Point{-2, 7}};
    const NetValidation v = validate_net(net);
    ASSERT_TRUE(v.ok);
    EXPECT_TRUE(v.notes.empty());
    EXPECT_EQ(v.net.sinks, net.sinks);
    EXPECT_TRUE(v.net.sink_caps.empty());
}

TEST(ValidateNet, RejectsNetWithoutSinks)
{
    Net net;
    net.source = Point{5, 5};
    const NetValidation v = validate_net(net);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.error.find("no sinks"), std::string::npos);
}

TEST(ValidateNet, DropsSourceCoincidentSinks)
{
    Net net;
    net.source = Point{5, 5};
    net.sinks = {Point{5, 5}, Point{9, 5}};
    const NetValidation v = validate_net(net);
    ASSERT_TRUE(v.ok);
    ASSERT_EQ(v.net.sinks.size(), 1u);
    EXPECT_EQ(v.net.sinks[0], (Point{9, 5}));
    ASSERT_EQ(v.notes.size(), 1u);
    EXPECT_NE(v.notes[0].find("coincident with the source"), std::string::npos);
}

TEST(ValidateNet, CollapsesDuplicateSinksKeepingFirstCap)
{
    Net net;
    net.source = Point{0, 0};
    net.sinks = {Point{3, 0}, Point{0, 4}, Point{3, 0}};
    net.sink_caps = {1e-13, -1.0, 5e-13};
    const NetValidation v = validate_net(net);
    ASSERT_TRUE(v.ok);
    ASSERT_EQ(v.net.sinks.size(), 2u);
    ASSERT_EQ(v.net.sink_caps.size(), 2u);
    EXPECT_DOUBLE_EQ(v.net.sink_caps[0], 1e-13);  // first occurrence's cap wins
    ASSERT_EQ(v.notes.size(), 1u);
    EXPECT_NE(v.notes[0].find("duplicate sink 2"), std::string::npos);
}

TEST(ValidateNet, InterleavedDropsAndDuplicatesNoteInIndexOrder)
{
    // Source-coincident sinks, a duplicate pair and a triple, interleaved;
    // the duplicates' points sort before and after the source's.
    Net net;
    net.source = Point{5, 5};
    net.sinks = {Point{9, 1}, Point{5, 5}, Point{2, 8}, Point{9, 1},
                 Point{2, 8}, Point{5, 5}, Point{7, 7}, Point{2, 8}};
    net.sink_caps = {1e-13, 2e-13, 3e-13, 4e-13, 5e-13, 6e-13, 7e-13, 8e-13};
    const NetValidation v = validate_net(net);
    ASSERT_TRUE(v.ok);
    const std::vector<std::string> want_notes = {
        "dropped sink 1 coincident with the source",
        "collapsed duplicate sink 3 at (9,1)",
        "collapsed duplicate sink 4 at (2,8)",
        "dropped sink 5 coincident with the source",
        "collapsed duplicate sink 7 at (2,8)",
    };
    EXPECT_EQ(v.notes, want_notes);
    EXPECT_EQ(v.net.sinks, (std::vector<Point>{Point{9, 1}, Point{2, 8}, Point{7, 7}}));
    // Each kept sink carries its first occurrence's cap.
    EXPECT_EQ(v.net.sink_caps, (std::vector<double>{1e-13, 3e-13, 7e-13}));

    // An out-of-range sink rejects the net after the notes of the sinks
    // before it, and nothing after it is looked at.
    net.sinks.insert(net.sinks.begin() + 5, Point{kMaxRoutableCoord + 1, 0});
    net.sink_caps.insert(net.sink_caps.begin() + 5, 1e-13);
    const NetValidation bad = validate_net(net);
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.notes, (std::vector<std::string>(want_notes.begin(),
                                                   want_notes.begin() + 3)));
    EXPECT_EQ(bad.error, "sink 5 at (268435457,0) exceeds the routable coordinate range");
}

TEST(ValidateNet, RejectsZeroLengthNet)
{
    Net net;
    net.source = Point{7, 7};
    net.sinks = {Point{7, 7}, Point{7, 7}};
    const NetValidation v = validate_net(net);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.error.find("zero-length net"), std::string::npos);
}

TEST(ValidateNet, RejectsOverflowScaleCoordinates)
{
    Net net;
    net.source = Point{0, 0};
    net.sinks = {Point{kMaxRoutableCoord + 1, 0}};
    NetValidation v = validate_net(net);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.error.find("routable coordinate range"), std::string::npos);

    net.sinks = {Point{3, 4}};
    net.source = Point{0, -(kMaxRoutableCoord + 1)};
    v = validate_net(net);
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.error.find("source"), std::string::npos);
}

TEST(ValidateNet, BoundaryCoordinateIsAccepted)
{
    Net net;
    net.source = Point{0, 0};
    net.sinks = {Point{kMaxRoutableCoord, -kMaxRoutableCoord}};
    EXPECT_TRUE(validate_net(net).ok);
}

TEST(ValidateNet, AllDefaultCapsCanonicalizeToEmpty)
{
    Net net;
    net.source = Point{0, 0};
    net.sinks = {Point{0, 0}, Point{2, 2}};  // the drop forces a rebuild
    net.sink_caps = {-1.0, -1.0};
    const NetValidation v = validate_net(net);
    ASSERT_TRUE(v.ok);
    EXPECT_TRUE(v.net.sink_caps.empty());
}

TEST(ValidateNet, IsDeterministic)
{
    Net net;
    net.source = Point{1, 1};
    net.sinks = {Point{1, 1}, Point{4, 1}, Point{4, 1}, Point{1, 9}};
    const NetValidation a = validate_net(net);
    const NetValidation b = validate_net(net);
    ASSERT_TRUE(a.ok);
    EXPECT_EQ(a.notes, b.notes);
    EXPECT_EQ(a.net.sinks, b.net.sinks);
}

}  // namespace
