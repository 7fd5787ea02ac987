// Rooted rectilinear routing trees.
//
// A RoutingTree implements a signal net: the root is the driver (source
// N0) and marked nodes are sinks.  Every stored edge (node -> parent) is a
// straight axis-parallel wire; turning points are explicit nodes.  The tree
// is graph-theoretic: distinct edges may geometrically overlap (MST-based
// baselines can produce such embeddings) and all metrics/delay models count
// every edge's wire, exactly like the paper's cost functions do.
//
// Grid nodes: the paper's delay model (Eq. 2) sums over *all grid points* of
// the tree.  We never materialize per-grid nodes; metrics and delay modules
// use closed-form per-edge sums instead.
#ifndef CONG93_RTREE_ROUTING_TREE_H
#define CONG93_RTREE_ROUTING_TREE_H

#include <optional>
#include <vector>

#include "geom/point.h"

namespace cong93 {

/// A signal net: one source (driver output) and one or more sinks.
struct Net {
    Point source;
    std::vector<Point> sinks;
    /// Optional per-sink loading capacitance in farad, parallel to `sinks`.
    /// Empty (or a negative entry) selects the technology's default load.
    std::vector<double> sink_caps;

    /// Number of terminals including the source.
    std::size_t terminal_count() const { return sinks.size() + 1; }
    /// All terminals, source first.
    std::vector<Point> terminals() const;
    /// Loading capacitance of sink i (-1 => technology default).
    double sink_cap(std::size_t i) const
    {
        return i < sink_caps.size() ? sink_caps[i] : -1.0;
    }
};

using NodeId = std::int32_t;
inline constexpr NodeId kNoNode = -1;

class RoutingTree {
public:
    struct Node {
        Point p;
        NodeId parent = kNoNode;
        std::vector<NodeId> children;
        bool is_sink = false;
        /// Forces this node to be a segment boundary even when it is a
        /// collinear pass-through point (the paper's "artificial non-trivial
        /// nodes" of Section 2.2, enabling width changes inside a straight
        /// wire).  See subdivide_edges() in rtree/transform.h.
        bool segment_boundary = false;
        /// Extra loading capacitance in farad; negative means "use the
        /// technology's default sink load".
        double sink_cap_f = -1.0;
        /// Path length from the source (grid units), maintained on insertion.
        Length pl = 0;
    };

    explicit RoutingTree(Point source);

    NodeId root() const { return 0; }
    std::size_t node_count() const { return nodes_.size(); }
    /// Reserves node storage for a tree that will grow to n nodes.
    void reserve(std::size_t n) { nodes_.reserve(n); }
    const Node& node(NodeId id) const { return nodes_.at(static_cast<std::size_t>(id)); }
    Point point(NodeId id) const { return node(id).p; }

    /// Adds a node at p connected to `parent` by one straight wire.
    /// Throws if p is not axis-aligned with the parent or coincides with it.
    NodeId add_child(NodeId parent, Point p);

    /// Adds a rectilinear path from an existing node through the waypoints
    /// (each consecutive pair axis-aligned; zero-length legs are skipped).
    /// Returns the id of the final node.
    NodeId attach_path(NodeId from, const std::vector<Point>& waypoints);

    /// Marks a node as a sink.  cap_f < 0 selects the technology default.
    void mark_sink(NodeId id, double cap_f = -1.0);

    /// Marks a node as a forced wire-segment boundary (Section 2.2's
    /// artificial non-trivial node).
    void mark_segment_boundary(NodeId id);

    /// Finds the node at p, or splits the edge whose interior contains p and
    /// returns the created node.  Returns nullopt when p is not on the tree.
    /// Only meaningful for trees with non-overlapping geometry (A-trees).
    std::optional<NodeId> find_or_split(Point p);

    /// Node exactly at p, if any (no splitting).
    std::optional<NodeId> find_node(Point p) const;

    /// Length of the straight wire from id to its parent (0 for the root).
    Length edge_length(NodeId id) const;

    /// Path length from the source to the node, pl_k in the paper.
    Length path_length(NodeId id) const { return node(id).pl; }

    /// Ids of all sink nodes.
    std::vector<NodeId> sinks() const;

    /// Buffer-reuse overload for batch hot paths: fills `out` (cleared
    /// first) instead of allocating a fresh vector per call.
    void sinks(std::vector<NodeId>& out) const;

    /// Node ids in a preorder (parent before child) traversal from the root.
    std::vector<NodeId> preorder() const;

    /// Buffer-reuse overload: fills `out` (cleared first) with the preorder.
    void preorder(std::vector<NodeId>& out) const;

    /// Invokes fn(child_id) for every edge (child -> parent), preorder.
    template <typename Fn>
    void for_each_edge(Fn&& fn) const
    {
        for (const NodeId id : preorder())
            if (id != root()) fn(id);
    }

private:
    friend class TreeSurgeon;
    std::vector<Node> nodes_;
};

/// Builds a routing tree for `net` from a parent map over an arbitrary point
/// set: parent_of[i] is the index of point i's parent, or -1 for the source.
/// Points must be axis-aligned with their parents.  Sinks of the net are
/// marked automatically (every net sink must appear in `points`).
RoutingTree tree_from_parent_map(const Net& net, const std::vector<Point>& points,
                                 const std::vector<int>& parent_of);

/// Copies the whole of `src` (except its root) underneath dst node `at`;
/// src's root must sit at the same point as `at`.  Sink marks are copied.
void graft(RoutingTree& dst, NodeId at, const RoutingTree& src);

}  // namespace cong93

#endif  // CONG93_RTREE_ROUTING_TREE_H
