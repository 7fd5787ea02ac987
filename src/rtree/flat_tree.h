// Flat structure-of-arrays compilation of a RoutingTree (batch hot path).
//
// A RoutingTree stores one heap-allocated children vector per node; walking
// it means pointer-chasing through scattered allocations, and every helper
// that returns a vector (preorder(), sinks(), per-node caps) reallocates per
// call.  A FlatTree is the same tree compiled once into parallel arrays laid
// out in preorder:
//
//   * flat index == preorder position, so every subtree is a contiguous
//     index range and bottom-up passes are a single reverse loop;
//   * parent(), edge_length(), path_length(), is_sink(), sink_cap() are
//     dense arrays indexed by flat index;
//   * children are a CSR adjacency (child_ptr/child_idx) preserving the
//     original child order, so accumulation order -- and therefore floating
//     point results -- match the pointer-walk evaluators bit for bit;
//   * sinks() lists flat indices in RoutingTree::sinks() order (ascending
//     node id), so per-sink outputs line up with the reference evaluators.
//
// A tree already in preorder can also be emitted row by row, without a
// RoutingTree: begin() starts it at the root, append() adds each further
// node after its parent, mark_sink() flags loads, and finish() lays out the
// children and sinks.  The A-tree rung of the batch pipeline compiles this
// way (atree/generalized.h, emit_atree); node ids then equal flat
// indices, so node_of() is the identity.
//
// build() and the emission calls reuse the arrays' capacity: a Workspace (see
// batch/workspace.h) keeps one FlatTree per worker thread and recompiles it
// for each net of a batch without touching the allocator once the high-water
// mark is reached.  builds()/growths() count compilations and capacity
// growth events so reuse is measurable
// (Pipeline.WorkspaceArenaIsReusedAcrossBatches asserts it), and
// flat_tree_compiles() counts every build() and finish() in the process --
// including one-off compiles that no Workspace sees.
//
// FlatTree::build is the one path from a RoutingTree to analysis: the
// metrics, delay models, simulators and renderer take only a FlatTree.
#ifndef CONG93_RTREE_FLAT_TREE_H
#define CONG93_RTREE_FLAT_TREE_H

#include <cstdint>
#include <vector>

#include "rtree/routing_tree.h"

namespace cong93 {

class FlatTree {
public:
    FlatTree() = default;
    explicit FlatTree(const RoutingTree& tree) { build(tree); }

    /// Compiles `tree` into the arrays, reusing existing capacity.
    void build(const RoutingTree& tree);

    /// Row-by-row emission of a tree given in preorder (see the header
    /// comment).  begin() discards the previous tree and adds the root at
    /// `root`; append() adds a node at p as the last child of flat node
    /// `parent` and returns its index.  p must be axis-aligned with the
    /// parent's point and distinct from it, and `parent` must lie on the
    /// path from the root to the last appended node, so the rows stay in
    /// preorder.  Until finish() only the per-node rows are meaningful;
    /// finish() fills the CSR children, the sink list and the identity node
    /// maps and counts one build, exactly as build() of the equivalent
    /// RoutingTree (node ids in preorder) would leave the arrays.
    void begin(Point root);
    std::int32_t append(std::int32_t parent, Point p)
    {
        const auto i = static_cast<std::int32_t>(parent_.size());
        const Length len = dist(point_[static_cast<std::size_t>(parent)], p);
        parent_.push_back(parent);
        edge_len_.push_back(len);
        path_len_.push_back(path_len_[static_cast<std::size_t>(parent)] + len);
        is_sink_.push_back(0);
        sink_cap_.push_back(-1.0);
        point_.push_back(p);
        return i;
    }
    /// Marks flat node i as a sink with load cap_f (RoutingTree::mark_sink).
    void mark_sink(std::int32_t i, double cap_f)
    {
        is_sink_[static_cast<std::size_t>(i)] = 1;
        sink_cap_[static_cast<std::size_t>(i)] = cap_f;
    }
    void finish();

    /// Heap bytes held by every array, build-time scratch included
    /// (capacities: the arrays only shrink through release()).
    std::size_t capacity_bytes() const;
    /// Frees every array, keeping the builds()/growths() counts; the next
    /// compile grows the arrays from empty.
    void release();

    std::size_t size() const { return parent_.size(); }
    bool empty() const { return parent_.empty(); }

    /// Flat index of the parent; -1 for the root (flat index 0).
    const std::vector<std::int32_t>& parent() const { return parent_; }
    /// Length of the wire to the parent (0 for the root).
    const std::vector<Length>& edge_length() const { return edge_len_; }
    /// Path length from the source, pl_k.
    const std::vector<Length>& path_length() const { return path_len_; }
    const std::vector<std::uint8_t>& is_sink() const { return is_sink_; }
    /// Raw per-node sink capacitance (farad); negative selects the
    /// technology default, exactly as RoutingTree::Node::sink_cap_f.
    const std::vector<double>& sink_cap() const { return sink_cap_; }
    /// Grid position of each node (needed by rendering and by segment
    /// extraction, which must see turns).
    const std::vector<Point>& point() const { return point_; }
    /// Forced segment boundaries, RoutingTree::Node::segment_boundary.
    const std::vector<std::uint8_t>& seg_boundary() const { return seg_boundary_; }

    /// CSR children: children of flat node i are
    /// child_idx()[child_ptr()[i] .. child_ptr()[i+1]), in original order.
    const std::vector<std::int32_t>& child_ptr() const { return child_ptr_; }
    const std::vector<std::int32_t>& child_idx() const { return child_idx_; }

    /// Flat indices of the sinks, in RoutingTree::sinks() order.
    const std::vector<std::int32_t>& sinks() const { return sinks_; }

    /// Mapping back to RoutingTree node ids (flat index -> node id).
    const std::vector<NodeId>& node_of() const { return node_of_; }
    /// Mapping from node id to flat index.
    std::int32_t flat_of(NodeId id) const
    {
        return flat_of_[static_cast<std::size_t>(id)];
    }

    /// Total wirelength (exact integer sum of edge_length()).
    Length total_length() const;

    /// Number of compilations (build() or finish() calls) over this
    /// object's lifetime.
    std::uint64_t builds() const { return builds_; }
    /// Number of builds that had to grow the arrays (capacity misses).
    std::uint64_t growths() const { return growths_; }

private:
    /// Counts one compilation of the current size() nodes.
    void count_build();
    /// CSR children from parent_ (in flat order, which keeps child order
    /// for a preorder layout).
    void link_children();

    std::vector<std::int32_t> parent_;
    std::vector<Length> edge_len_;
    std::vector<Length> path_len_;
    std::vector<std::uint8_t> is_sink_;
    std::vector<double> sink_cap_;
    std::vector<Point> point_;
    std::vector<std::uint8_t> seg_boundary_;
    std::vector<std::int32_t> child_ptr_;
    std::vector<std::int32_t> child_idx_;
    std::vector<std::int32_t> sinks_;
    std::vector<NodeId> node_of_;
    std::vector<std::int32_t> flat_of_;
    std::vector<std::int32_t> dfs_stack_;   // build-time scratch
    std::vector<std::int32_t> csr_cursor_;  // build-time scratch
    std::size_t watermark_ = 0;             // largest node count compiled so far
    std::uint64_t builds_ = 0;
    std::uint64_t growths_ = 0;
};

/// Number of FlatTree compilations (build() or finish()) in this process
/// so far, over every FlatTree and thread.  Telemetry only (a relaxed atomic, so concurrent
/// builds are all counted but not ordered); no output depends on it.
std::uint64_t flat_tree_compiles();

/// True when flat node `fi` is non-trivial (Section 2.2): the source, a
/// sink, a forced segment boundary, a branching or leaf node, or a turning
/// node.  A wire segment runs between two adjacent non-trivial nodes.
bool is_nontrivial(const FlatTree& ft, std::int32_t fi);

}  // namespace cong93

#endif  // CONG93_RTREE_FLAT_TREE_H
