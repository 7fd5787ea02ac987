#include "atree/generalized.h"

#include <algorithm>
#include <array>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "rtree/metrics.h"

namespace cong93 {

namespace {

/// Quadrants around the origin: 0 => (+,+), 1 => (-,+), 2 => (-,-), 3 => (+,-).
constexpr std::array<std::pair<int, int>, 4> kQuadSign = {
    {{1, 1}, {-1, 1}, {-1, -1}, {1, -1}}};

bool in_quadrant(Point d, int q)
{
    const auto [sx, sy] = kQuadSign[static_cast<std::size_t>(q)];
    return d.x * sx >= 0 && d.y * sy >= 0;
}

bool strictly_in_quadrant(Point d, int q)
{
    const auto [sx, sy] = kQuadSign[static_cast<std::size_t>(q)];
    return d.x * sx > 0 && d.y * sy > 0;
}

}  // namespace

QuadrantPartition partition_quadrants(const Net& net)
{
    // Work in source-relative coordinates (carrying per-sink caps along).
    std::vector<RelSink> rel;
    rel.reserve(net.sinks.size());
    for (std::size_t i = 0; i < net.sinks.size(); ++i)
        rel.push_back({Point{static_cast<Coord>(net.sinks[i].x - net.source.x),
                             static_cast<Coord>(net.sinks[i].y - net.source.y)},
                       net.sink_cap(i)});

    // Assign each sink to a quadrant.  Interior sinks are unambiguous; axis
    // sinks join the adjacent quadrant whose nearest interior sink is
    // closest (preferring lower quadrant index on ties).
    QuadrantPartition part;
    std::vector<RelSink> axis_sinks;
    for (const RelSink& d : rel) {
        if (d.p.x == 0 && d.p.y == 0) continue;  // sink at the source
        bool placed = false;
        for (int q = 0; q < 4 && !placed; ++q) {
            if (strictly_in_quadrant(d.p, q)) {
                part.quads[static_cast<std::size_t>(q)].push_back(d);
                placed = true;
            }
        }
        if (!placed) axis_sinks.push_back(d);
    }
    for (const RelSink& d : axis_sinks) {
        int best_q = -1;
        Length best_d = kInfLen;
        for (int q = 0; q < 4; ++q) {
            if (!in_quadrant(d.p, q)) continue;
            if (best_q < 0) best_q = q;  // fallback: first admissible quadrant
            for (const RelSink& other : part.quads[static_cast<std::size_t>(q)]) {
                const Length dd = dist(d.p, other.p);
                if (dd < best_d) {
                    best_d = dd;
                    best_q = q;
                }
            }
        }
        part.quads[static_cast<std::size_t>(best_q)].push_back(d);
    }
    return part;
}

Net quadrant_subnet(const QuadrantPartition& part, int q)
{
    const auto& sinks = part.quads[static_cast<std::size_t>(q)];
    const auto [sx, sy] = kQuadSign[static_cast<std::size_t>(q)];
    Net sub;
    sub.source = Point{0, 0};
    sub.sinks.reserve(sinks.size());
    sub.sink_caps.reserve(sinks.size());
    for (const RelSink& d : sinks)
        sub.sinks.push_back(Point{static_cast<Coord>(d.p.x * sx),
                                  static_cast<Coord>(d.p.y * sy)});
    for (const RelSink& d : sinks) sub.sink_caps.push_back(d.cap);
    return sub;
}

AtreeResult assemble_quadrants(const Net& net, const QuadrantPartition& part,
                               const std::array<const AtreeResult*, 4>& quads)
{
    AtreeResult total{RoutingTree(net.source)};
    RoutingTree& combined = total.tree;
    std::size_t nodes = 1;
    for (std::size_t q = 0; q < 4; ++q)
        if (!part.quads[q].empty()) nodes += quads[q]->tree.node_count() - 1;
    combined.reserve(nodes);

    std::vector<NodeId> map;    // quadrant node id -> combined node id
    std::vector<NodeId> stack;  // preorder DFS
    for (int q = 0; q < 4; ++q) {
        if (part.quads[static_cast<std::size_t>(q)].empty()) continue;
        const AtreeResult& r = *quads[static_cast<std::size_t>(q)];
        const auto [sx, sy] = kQuadSign[static_cast<std::size_t>(q)];

        // Graft the quadrant tree into the combined tree in preorder,
        // reflecting back and translating to absolute coordinates.
        map.assign(r.tree.node_count(), kNoNode);
        map[static_cast<std::size_t>(r.tree.root())] = combined.root();
        stack.assign(1, r.tree.root());
        while (!stack.empty()) {
            const NodeId id = stack.back();
            stack.pop_back();
            const RoutingTree::Node& n = r.tree.node(id);
            if (id != r.tree.root()) {
                const Point p{static_cast<Coord>(n.p.x * sx + net.source.x),
                              static_cast<Coord>(n.p.y * sy + net.source.y)};
                map[static_cast<std::size_t>(id)] = combined.add_child(
                    map[static_cast<std::size_t>(n.parent)], p);
            }
            for (auto it = n.children.rbegin(); it != n.children.rend(); ++it)
                stack.push_back(*it);
        }

        // Mark this quadrant's sinks on the grafted copy (marking inside the
        // quadrant keeps sink loads on the owning branch even when two
        // quadrant trees touch along an axis).
        for (std::size_t i = 0; i < r.tree.node_count(); ++i) {
            const NodeId id = static_cast<NodeId>(i);
            if (r.tree.node(id).is_sink)
                combined.mark_sink(map[i], r.tree.node(id).sink_cap_f);
        }

        total.safe_moves += r.safe_moves;
        total.heuristic_moves += r.heuristic_moves;
        total.sb_total += r.sb_total;
        total.sb_qmst_total += r.sb_qmst_total;
    }

    // Verify coverage.  Every sink off the source belongs to a quadrant whose
    // tree marked it, so it must already be a marked node of the combined
    // tree; a sink at the source is marked on the root (the only node there)
    // with the default load.  The marked points, sorted, answer each sink
    // with one binary search.
    std::vector<Point> marked;
    marked.reserve(net.sinks.size());
    for (std::size_t i = 1; i < combined.node_count(); ++i) {
        const RoutingTree::Node& n = combined.node(static_cast<NodeId>(i));
        if (n.is_sink) marked.push_back(n.p);
    }
    std::sort(marked.begin(), marked.end());
    for (const Point s : net.sinks) {
        if (s == net.source) {
            if (!combined.node(combined.root()).is_sink)
                combined.mark_sink(combined.root());
            continue;
        }
        if (!std::binary_search(marked.begin(), marked.end(), s)) {
            std::ostringstream os;
            os << "build_atree_general: sink at " << s
               << " missing from the combined tree (net has "
               << net.sinks.size() << " sinks, tree has "
               << combined.node_count() << " nodes)";
            throw std::logic_error(os.str());
        }
    }

    total.cost = total_length(combined);
    total.qmst_cost = sum_all_node_path_lengths(combined);
    return total;
}

AtreeResult build_atree_general(const Net& net, const AtreeOptions& options)
{
    const QuadrantPartition part = partition_quadrants(net);
    std::array<std::optional<AtreeResult>, 4> built;
    std::array<const AtreeResult*, 4> ptrs{nullptr, nullptr, nullptr, nullptr};
    for (int q = 0; q < 4; ++q) {
        if (part.quads[static_cast<std::size_t>(q)].empty()) continue;
        built[static_cast<std::size_t>(q)] =
            build_atree(quadrant_subnet(part, q), options);
        ptrs[static_cast<std::size_t>(q)] = &*built[static_cast<std::size_t>(q)];
    }
    return assemble_quadrants(net, part, ptrs);
}

}  // namespace cong93
