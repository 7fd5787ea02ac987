#include "rtree/transform.h"

#include <set>
#include <stdexcept>

namespace cong93 {

namespace {

/// Direction of the wire from `from` to `to`: x decides first, then y.
Point direction(Point from, Point to)
{
    if (to.x != from.x) return Point{to.x > from.x ? 1 : -1, 0};
    return Point{0, to.y > from.y ? 1 : -1};
}

/// True when the node is non-trivial (Section 2.2): the source, a sink, a
/// forced boundary, a branching or leaf node, or a turning node.
bool is_nontrivial(const RoutingTree& tree, NodeId id)
{
    const auto& n = tree.node(id);
    if (n.parent == kNoNode || n.is_sink || n.segment_boundary) return true;
    if (n.children.size() != 1) return true;
    return direction(tree.point(n.parent), n.p) !=
           direction(n.p, tree.point(n.children.front()));
}

}  // namespace

RoutingTree subdivide_edges(const RoutingTree& input, Length max_piece)
{
    if (max_piece < 1)
        throw std::invalid_argument("subdivide_edges: max_piece must be >= 1");

    // Work on the canonical form so that collinear runs through trivial
    // nodes become single edges first; otherwise a segment could still span
    // several short edges and exceed max_piece.
    const RoutingTree tree = simplify(input);

    RoutingTree out(tree.point(tree.root()));
    std::vector<NodeId> map(tree.node_count(), kNoNode);
    map[static_cast<std::size_t>(tree.root())] = out.root();

    for (const NodeId id : tree.preorder()) {
        if (id == tree.root()) continue;
        const auto& n = tree.node(id);
        const Point a = tree.point(n.parent);
        const Point b = n.p;
        const Length l = dist(a, b);
        NodeId cur = map[static_cast<std::size_t>(n.parent)];
        // Insert evenly spaced boundary nodes; the final hop lands on b.
        const Length pieces = (l + max_piece - 1) / max_piece;
        const int dx = b.x > a.x ? 1 : (b.x < a.x ? -1 : 0);
        const int dy = b.y > a.y ? 1 : (b.y < a.y ? -1 : 0);
        for (Length k = 1; k < pieces; ++k) {
            const Length step = l * k / pieces;
            const Point mid{static_cast<Coord>(a.x + dx * step),
                            static_cast<Coord>(a.y + dy * step)};
            cur = out.add_child(cur, mid);
            out.mark_segment_boundary(cur);
        }
        const NodeId end = out.add_child(cur, b);
        map[static_cast<std::size_t>(id)] = end;
        if (n.is_sink) out.mark_sink(end, n.sink_cap_f);
        if (n.segment_boundary) out.mark_segment_boundary(end);
    }
    return out;
}

RoutingTree simplify(const RoutingTree& tree)
{
    RoutingTree out(tree.point(tree.root()));
    struct Item {
        NodeId first;   // first original node along the run
        NodeId parent;  // output node the run hangs from
    };
    std::vector<Item> stack;
    for (const NodeId c : tree.node(tree.root()).children)
        stack.push_back({c, out.root()});
    while (!stack.empty()) {
        const Item it = stack.back();
        stack.pop_back();
        NodeId cur = it.first;
        while (!is_nontrivial(tree, cur)) cur = tree.node(cur).children.front();
        const auto& n = tree.node(cur);
        const NodeId added = out.add_child(it.parent, n.p);
        if (n.is_sink) out.mark_sink(added, n.sink_cap_f);
        if (n.segment_boundary) out.mark_segment_boundary(added);
        for (const NodeId c : n.children) stack.push_back({c, added});
    }
    return out;
}

namespace {

std::set<Point> covered_points(const RoutingTree& tree)
{
    std::set<Point> pts;
    pts.insert(tree.point(tree.root()));
    tree.for_each_edge([&](NodeId id) {
        const Point a = tree.point(tree.node(id).parent);
        const Point b = tree.point(id);
        const int dx = b.x > a.x ? 1 : (b.x < a.x ? -1 : 0);
        const int dy = b.y > a.y ? 1 : (b.y < a.y ? -1 : 0);
        Point p = a;
        while (p != b) {
            p.x = static_cast<Coord>(p.x + dx);
            p.y = static_cast<Coord>(p.y + dy);
            pts.insert(p);
        }
    });
    return pts;
}

}  // namespace

bool same_geometry(const RoutingTree& a, const RoutingTree& b)
{
    return covered_points(a) == covered_points(b);
}

}  // namespace cong93
