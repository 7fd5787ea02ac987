// The paper's reference segment decomposition (Section 2.2), preserved as
// the independent oracle for WiresizeContext's flat segment compile.  Built
// only into the cong_oracles target (CONG93_BUILD_ORACLES=ON).
#include "oracle/segments_reference.h"

#include <stdexcept>

namespace cong93 {

namespace {

struct Dir {
    int dx = 0;
    int dy = 0;
    friend bool operator==(Dir a, Dir b) { return a.dx == b.dx && a.dy == b.dy; }
};

Dir direction(Point from, Point to)
{
    Dir d;
    if (to.x > from.x) d.dx = 1;
    else if (to.x < from.x) d.dx = -1;
    else if (to.y > from.y) d.dy = 1;
    else d.dy = -1;
    return d;
}

}  // namespace

bool is_nontrivial(const RoutingTree& tree, NodeId id)
{
    const auto& n = tree.node(id);
    if (n.parent == kNoNode) return true;  // source
    if (n.is_sink) return true;
    if (n.segment_boundary) return true;  // artificial non-trivial node
    if (n.children.size() != 1) return true;  // branch or leaf
    // Turning node?
    const Dir in = direction(tree.point(n.parent), n.p);
    const Dir out = direction(n.p, tree.point(n.children.front()));
    return !(in == out);
}

SegmentDecomposition::SegmentDecomposition(const RoutingTree& tree) : tree_(&tree)
{
    // Walk from the root; each child edge of a non-trivial node starts a
    // segment, extended through trivial nodes.
    struct Item {
        NodeId start;     // non-trivial node the segment hangs from
        NodeId first;     // first node along the segment
        int parent_seg;
    };
    std::vector<Item> stack;
    for (const NodeId c : tree.node(tree.root()).children)
        stack.push_back({tree.root(), c, kNoSegment});

    while (!stack.empty()) {
        const Item it = stack.back();
        stack.pop_back();

        NodeId cur = it.first;
        while (!is_nontrivial(tree, cur)) cur = tree.node(cur).children.front();

        WireSegment seg;
        seg.head = it.start;
        seg.tail = cur;
        seg.length = tree.path_length(cur) - tree.path_length(it.start);
        seg.parent = it.parent_seg;
        const auto& tail = tree.node(cur);
        seg.tail_is_sink = tail.is_sink;
        seg.tail_sink_cap_f = tail.sink_cap_f;
        if (seg.length <= 0)
            throw std::logic_error("SegmentDecomposition: non-positive segment");

        const int seg_idx = static_cast<int>(segments_.size());
        segments_.push_back(seg);
        if (it.parent_seg == kNoSegment)
            roots_.push_back(seg_idx);
        else
            segments_[static_cast<std::size_t>(it.parent_seg)].children.push_back(seg_idx);

        for (const NodeId c : tail.children) stack.push_back({cur, c, seg_idx});
    }
}

std::vector<double> SegmentDecomposition::downstream_sink_cap(
    double default_sink_cap_f) const
{
    std::vector<double> cap(segments_.size(), 0.0);
    // Children have larger indices than parents, so accumulate in reverse.
    for (std::size_t i = segments_.size(); i-- > 0;) {
        const WireSegment& s = segments_[i];
        if (s.tail_is_sink)
            cap[i] += s.tail_sink_cap_f >= 0.0 ? s.tail_sink_cap_f : default_sink_cap_f;
        for (const int c : s.children) cap[i] += cap[static_cast<std::size_t>(c)];
    }
    return cap;
}

Length SegmentDecomposition::total_length() const
{
    Length sum = 0;
    for (const WireSegment& s : segments_) sum += s.length;
    return sum;
}

}  // namespace cong93
