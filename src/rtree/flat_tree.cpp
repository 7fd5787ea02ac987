#include "rtree/flat_tree.h"

#include <atomic>

namespace cong93 {

namespace {

std::atomic<std::uint64_t> g_compiles{0};

/// Direction of the wire from `from` to `to`: x decides first, then y.
Point direction(Point from, Point to)
{
    if (to.x != from.x) return Point{to.x > from.x ? 1 : -1, 0};
    return Point{0, to.y > from.y ? 1 : -1};
}

}  // namespace

std::uint64_t flat_tree_compiles()
{
    return g_compiles.load(std::memory_order_relaxed);
}

void FlatTree::count_build()
{
    g_compiles.fetch_add(1, std::memory_order_relaxed);
    ++builds_;
    if (size() > watermark_) {
        ++growths_;
        watermark_ = size();
    }
}

void FlatTree::build(const RoutingTree& tree)
{
    const std::size_t n = tree.node_count();
    parent_.resize(n);
    edge_len_.resize(n);
    path_len_.resize(n);
    is_sink_.resize(n);
    sink_cap_.resize(n);
    point_.resize(n);
    seg_boundary_.resize(n);
    node_of_.resize(n);
    flat_of_.resize(n);

    // Preorder DFS with a reusable explicit stack; children are pushed in
    // reverse so they are visited -- and therefore laid out -- in order.
    dfs_stack_.clear();
    dfs_stack_.push_back(tree.root());
    std::size_t fi = 0;
    while (!dfs_stack_.empty()) {
        const NodeId id = dfs_stack_.back();
        dfs_stack_.pop_back();
        node_of_[fi] = id;
        flat_of_[static_cast<std::size_t>(id)] = static_cast<std::int32_t>(fi);
        ++fi;
        const auto& node = tree.node(id);
        for (auto it = node.children.rbegin(); it != node.children.rend(); ++it)
            dfs_stack_.push_back(*it);
    }

    for (std::size_t i = 0; i < n; ++i) {
        const NodeId id = node_of_[i];
        const auto& node = tree.node(id);
        parent_[i] = node.parent == kNoNode
                         ? -1
                         : flat_of_[static_cast<std::size_t>(node.parent)];
        edge_len_[i] = tree.edge_length(id);
        path_len_[i] = node.pl;
        is_sink_[i] = node.is_sink ? 1 : 0;
        sink_cap_[i] = node.sink_cap_f;
        point_[i] = node.p;
        seg_boundary_[i] = node.segment_boundary ? 1 : 0;
    }

    link_children();

    // Sinks in ascending-node-id order, matching RoutingTree::sinks().
    sinks_.clear();
    for (std::size_t id = 0; id < n; ++id)
        if (tree.node(static_cast<NodeId>(id)).is_sink)
            sinks_.push_back(flat_of_[id]);
    count_build();
}

void FlatTree::link_children()
{
    // Filling by ascending flat index preserves the original child order:
    // an earlier child's whole subtree precedes a later child's in preorder,
    // so siblings appear in child order.
    const std::size_t n = size();
    child_ptr_.assign(n + 1, 0);
    for (std::size_t i = 1; i < n; ++i)
        ++child_ptr_[static_cast<std::size_t>(parent_[i]) + 1];
    for (std::size_t i = 1; i <= n; ++i) child_ptr_[i] += child_ptr_[i - 1];
    child_idx_.resize(n > 0 ? n - 1 : 0);
    csr_cursor_.assign(child_ptr_.begin(), child_ptr_.end());
    for (std::size_t i = 1; i < n; ++i)
        child_idx_[static_cast<std::size_t>(
            csr_cursor_[static_cast<std::size_t>(parent_[i])]++)] =
            static_cast<std::int32_t>(i);
}

void FlatTree::begin(Point root)
{
    parent_.assign(1, -1);
    edge_len_.assign(1, 0);
    path_len_.assign(1, 0);
    is_sink_.assign(1, 0);
    sink_cap_.assign(1, -1.0);
    point_.assign(1, root);
}

void FlatTree::finish()
{
    // Emitted node ids are flat indices: identity maps, no segment
    // boundaries, sinks in ascending index order.
    const std::size_t n = size();
    seg_boundary_.assign(n, 0);
    node_of_.resize(n);
    flat_of_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        node_of_[i] = flat_of_[i] = static_cast<std::int32_t>(i);
    link_children();
    sinks_.clear();
    for (std::size_t i = 0; i < n; ++i)
        if (is_sink_[i] != 0) sinks_.push_back(static_cast<std::int32_t>(i));
    count_build();
}

void FlatTree::release()
{
    const std::uint64_t builds = builds_;
    const std::uint64_t growths = growths_;
    *this = FlatTree();
    builds_ = builds;
    growths_ = growths;
}

std::size_t FlatTree::capacity_bytes() const
{
    return parent_.capacity() * sizeof(std::int32_t) +
           edge_len_.capacity() * sizeof(Length) +
           path_len_.capacity() * sizeof(Length) +
           is_sink_.capacity() * sizeof(std::uint8_t) +
           sink_cap_.capacity() * sizeof(double) +
           point_.capacity() * sizeof(Point) +
           seg_boundary_.capacity() * sizeof(std::uint8_t) +
           child_ptr_.capacity() * sizeof(std::int32_t) +
           child_idx_.capacity() * sizeof(std::int32_t) +
           sinks_.capacity() * sizeof(std::int32_t) +
           node_of_.capacity() * sizeof(NodeId) +
           flat_of_.capacity() * sizeof(std::int32_t) +
           dfs_stack_.capacity() * sizeof(std::int32_t) +
           csr_cursor_.capacity() * sizeof(std::int32_t);
}

Length FlatTree::total_length() const
{
    Length sum = 0;
    for (const Length l : edge_len_) sum += l;
    return sum;
}

bool is_nontrivial(const FlatTree& ft, std::int32_t fi)
{
    const auto i = static_cast<std::size_t>(fi);
    if (fi == 0) return true;  // source (flat index 0 is the root)
    if (ft.is_sink()[i]) return true;
    if (ft.seg_boundary()[i]) return true;  // artificial non-trivial node
    const std::int32_t* cp = ft.child_ptr().data();
    if (cp[fi + 1] - cp[fi] != 1) return true;  // branch or leaf
    // Turning node?
    const Point* pt = ft.point().data();
    const std::int32_t par = ft.parent()[i];
    const std::int32_t ch = ft.child_idx()[static_cast<std::size_t>(cp[fi])];
    return direction(pt[par], pt[fi]) != direction(pt[fi], pt[ch]);
}

}  // namespace cong93
