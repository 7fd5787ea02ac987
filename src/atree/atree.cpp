#include "atree/atree.h"

#include <stdexcept>

#include "rtree/metrics.h"

namespace cong93 {

namespace {

/// Converts the single remaining arborescence of `forest` into a RoutingTree
/// rooted at the source, translating by `offset` (the original source
/// position) and marking the net's sinks.  Prices the tree in the same
/// walk: `cost` is its wirelength, `qmst_cost` its checked QMST sum.
AtreeResult forest_to_tree(const Forest& forest, const Net& net, Point offset)
{
    const int src = forest.source_node();
    if (forest.node(src).parent != -1)
        throw std::logic_error("forest_to_tree: source is not the final root");

    AtreeResult res{RoutingTree(net.source)};
    RoutingTree& tree = res.tree;
    tree.reserve(forest.node_count());
    QmstSum qmst;
    // Map forest node ids to tree node ids with an explicit DFS.
    std::vector<NodeId> map(forest.node_count(), kNoNode);
    map[static_cast<std::size_t>(src)] = tree.root();
    std::vector<int> stack{src};
    while (!stack.empty()) {
        const int id = stack.back();
        stack.pop_back();
        for (const int c : forest.children(id)) {
            const Point p = forest.node(c).p;
            const Point shifted{static_cast<Coord>(p.x + offset.x),
                                static_cast<Coord>(p.y + offset.y)};
            const NodeId added =
                tree.add_child(map[static_cast<std::size_t>(id)], shifted);
            map[static_cast<std::size_t>(c)] = added;
            res.cost += tree.edge_length(added);
            qmst.add_edge(tree.edge_length(added), tree.path_length(added));
            stack.push_back(c);
        }
    }
    // Each sink is its forest terminal node, reached through the DFS map.
    // Forest points are pairwise distinct, so that node is the only -- and
    // hence the lowest-id -- tree node at the sink; duplicate sinks share it
    // and the last cap written wins.
    for (std::size_t i = 0; i < net.sinks.size(); ++i) {
        const NodeId id = map[static_cast<std::size_t>(forest.sink_node(i))];
        if (id == kNoNode || tree.point(id) != net.sinks[i])
            throw std::logic_error("forest_to_tree: sink missing from tree");
        tree.mark_sink(id, net.sink_cap(i));
    }
    res.qmst_cost = qmst.value();
    return res;
}

}  // namespace

void run_atree(Forest& forest, MoveEngine& engine, const std::vector<Point>& sinks,
               const AtreeOptions& options)
{
    forest.reset(Point{0, 0}, sinks);
    engine.reset(forest, options.policy, options.use_safe_moves, options.mode);
    engine.run();
}

AtreeResult build_atree(const Net& net, const AtreeOptions& options)
{
    // Translate the source to the origin (a no-op for quadrant subnets,
    // whose sinks are used as they are).
    const bool at_origin = net.source == Point{0, 0};
    std::vector<Point> shifted;
    if (!at_origin) shifted.reserve(net.sinks.size());
    for (const Point s : net.sinks) {
        const Point t{static_cast<Coord>(s.x - net.source.x),
                      static_cast<Coord>(s.y - net.source.y)};
        if (t.x < 0 || t.y < 0)
            throw std::invalid_argument(
                "build_atree: sink does not dominate the source; use "
                "build_atree_general for arbitrary nets");
        if (!at_origin) shifted.push_back(t);
    }

    Forest forest;
    MoveEngine engine;
    run_atree(forest, engine, at_origin ? net.sinks : shifted, options);

    AtreeResult res = forest_to_tree(forest, net, net.source);
    res.safe_moves = engine.safe_moves();
    res.heuristic_moves = engine.heuristic_moves();
    res.sb_total = engine.sb_total();
    res.sb_qmst_total = engine.sb_qmst_total();
    return res;
}

}  // namespace cong93
