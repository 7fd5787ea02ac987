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

/// Reflects a source-relative point of quadrant q into (+,+), or back (the
/// reflection is its own inverse).
Point reflect(Point d, int q)
{
    const auto [sx, sy] = kQuadSign[static_cast<std::size_t>(q)];
    return Point{static_cast<Coord>(d.x * sx), static_cast<Coord>(d.y * sy)};
}

/// Quadrant q's sinks reflected into (+,+), in partition order.
void quadrant_sinks(const QuadrantPartition& part, int q, std::vector<Point>& out)
{
    out.clear();
    for (const RelSink& d : part.quads[static_cast<std::size_t>(q)])
        out.push_back(reflect(d.p, q));
}

/// Source-relative point d of quadrant q, reflected back and made absolute.
Point place(Point d, int q, Point source)
{
    const Point r = reflect(d, q);
    return Point{static_cast<Coord>(r.x + source.x),
                 static_cast<Coord>(r.y + source.y)};
}

// The two quadrant representations the assembly grafts: a built quadrant
// RoutingTree (assemble_quadrants) or the finished scratch forest
// (emit_atree).
NodeId root_of(const RoutingTree& t) { return t.root(); }
int root_of(const Forest& f) { return f.source_node(); }
const std::vector<NodeId>& children_of(const RoutingTree& t, NodeId id)
{
    return t.node(id).children;
}
Forest::ChildRange children_of(const Forest& f, int id) { return f.children(id); }

/// Visits (quadrant node, load) for every sink of the quadrant; when
/// duplicate sinks share a node, the last visit carries the load that node
/// keeps.
template <typename Fn>
void for_each_sink(const RoutingTree& t, const std::vector<RelSink>&, Fn&& fn)
{
    for (std::size_t i = 0; i < t.node_count(); ++i)
        if (t.node(static_cast<NodeId>(i)).is_sink)
            fn(static_cast<int>(i), t.node(static_cast<NodeId>(i)).sink_cap_f);
}
template <typename Fn>
void for_each_sink(const Forest& f, const std::vector<RelSink>& sinks, Fn&& fn)
{
    for (std::size_t k = 0; k < sinks.size(); ++k) fn(f.sink_node(k), sinks[k].cap);
}

// The one assembly behind assemble_quadrants and emit_atree: a graft per
// non-empty quadrant, then one coverage pass.

/// Grafts quadrant q's first-quadrant tree `t` under the output root in
/// preorder (children in order), reflected back and translated to absolute
/// coordinates through `add(parent, point) -> id`, and marks its sinks
/// through `mark(id, load)` (marking inside the quadrant keeps sink loads
/// on the owning branch even when two quadrant trees touch along an axis),
/// recording each marked point for the coverage pass.  Walks with the
/// graft scratch of `s` (stack, map, marked).
template <typename Tree, typename Add, typename Mark>
void graft(const Net& net, int q, const Tree& t, const std::vector<RelSink>& sinks,
           Add&& add, Mark&& mark, AtreeScratch& s)
{
    const int root = root_of(t);
    s.map.assign(t.node_count(), kNoNode);
    s.map[static_cast<std::size_t>(root)] = 0;
    s.stack.assign(1, root);
    while (!s.stack.empty()) {
        const int id = s.stack.back();
        s.stack.pop_back();
        const auto& n = t.node(id);
        if (id != root)
            s.map[static_cast<std::size_t>(id)] = add(
                s.map[static_cast<std::size_t>(n.parent)], place(n.p, q, net.source));
        const std::size_t first = s.stack.size();
        for (const int c : children_of(t, id)) s.stack.push_back(c);
        std::reverse(s.stack.begin() + static_cast<std::ptrdiff_t>(first),
                     s.stack.end());
    }
    for_each_sink(t, sinks, [&](int id, double cap) {
        mark(s.map[static_cast<std::size_t>(id)], cap);
        s.marked.push_back(place(t.node(id).p, q, net.source));
    });
}

/// The coverage pass over a tree of `nodes` nodes: every sink off the
/// source belongs to a quadrant that marked it; a sink at the source is
/// marked on the root (the only node there), with the default load.  The
/// marked points, sorted, answer each sink with one binary search; a
/// missing sink throws std::logic_error.
template <typename Mark>
void cover(const Net& net, std::size_t nodes, Mark&& mark, AtreeScratch& s)
{
    std::sort(s.marked.begin(), s.marked.end());
    bool at_source = false;
    for (const Point p : net.sinks) {
        if (p == net.source) {
            at_source = true;
            continue;
        }
        if (!std::binary_search(s.marked.begin(), s.marked.end(), p)) {
            std::ostringstream os;
            os << "build_atree_general: sink at " << p
               << " missing from the combined tree (net has "
               << net.sinks.size() << " sinks, tree has " << nodes << " nodes)";
            throw std::logic_error(os.str());
        }
    }
    if (at_source) mark(0, -1.0);
}

}  // namespace

QuadrantPartition partition_quadrants(const Net& net)
{
    QuadrantPartition part;
    std::vector<RelSink> axis;
    partition_quadrants(net, part, axis);
    return part;
}

void partition_quadrants(const Net& net, QuadrantPartition& part,
                         std::vector<RelSink>& axis_sinks)
{
    // Assign each sink, in source-relative coordinates and carrying its cap,
    // to a quadrant.  Interior sinks are unambiguous; axis sinks join the
    // adjacent quadrant whose nearest interior sink is closest (preferring
    // lower quadrant index on ties).
    for (auto& quad : part.quads) quad.clear();
    axis_sinks.clear();
    for (std::size_t i = 0; i < net.sinks.size(); ++i) {
        const RelSink d{Point{static_cast<Coord>(net.sinks[i].x - net.source.x),
                              static_cast<Coord>(net.sinks[i].y - net.source.y)},
                        net.sink_cap(i)};
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
}

Net quadrant_subnet(const QuadrantPartition& part, int q)
{
    Net sub;
    sub.source = Point{0, 0};
    quadrant_sinks(part, q, sub.sinks);
    for (const RelSink& d : part.quads[static_cast<std::size_t>(q)])
        sub.sink_caps.push_back(d.cap);
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

    const auto add = [&](NodeId parent, Point p) {
        return combined.add_child(parent, p);
    };
    const auto mark = [&](NodeId id, double cap) { combined.mark_sink(id, cap); };
    // The graft copies every quadrant node, and reflection keeps edge and
    // path lengths, so the combined prices are the quadrants' sums.
    AtreeScratch scratch;
    QmstSum qmst;
    for (std::size_t q = 0; q < 4; ++q) {
        if (part.quads[q].empty()) continue;
        const AtreeResult& r = *quads[q];
        total.safe_moves += r.safe_moves;
        total.heuristic_moves += r.heuristic_moves;
        total.cost += r.cost;
        total.sb_total += r.sb_total;
        qmst.add_cost(r.qmst_cost);
        total.sb_qmst_total += r.sb_qmst_total;
        graft(net, static_cast<int>(q), r.tree, part.quads[q], add, mark, scratch);
    }
    cover(net, combined.node_count(), mark, scratch);
    total.qmst_cost = qmst.value();
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

std::size_t AtreeScratch::capacity_bytes() const
{
    std::size_t n = axis.capacity() * sizeof(RelSink);
    for (const auto& quad : part.quads) n += quad.capacity() * sizeof(RelSink);
    n += (sinks.capacity() + marked.capacity()) * sizeof(Point);
    n += stack.capacity() * sizeof(int) + map.capacity() * sizeof(NodeId);
    return n + forest.capacity_bytes() + engine.capacity_bytes();
}

void AtreeScratch::release()
{
    const std::uint64_t kept = growths;
    *this = AtreeScratch();
    growths = kept;
}

void emit_atree(const Net& net, AtreeScratch& s, FlatTree& out,
                const AtreeOptions& options, const AtreeRows* prior)
{
    // Counts a growth however the call ends: a construction that throws
    // may have grown the buffers too.
    struct GrowthProbe {
        AtreeScratch& s;
        std::size_t before = s.capacity_bytes();
        ~GrowthProbe()
        {
            if (s.capacity_bytes() > before) ++s.growths;
        }
    } probe{s};

    partition_quadrants(net, s.part, s.axis);
    out.begin(net.source);
    s.marked.clear();
    const auto add = [&](NodeId parent, Point p) { return out.append(parent, p); };
    const auto mark = [&](NodeId id, double cap) { out.mark_sink(id, cap); };
    for (std::size_t q = 0; q < 4; ++q) {
        const auto begin = static_cast<std::int32_t>(out.size());
        s.quad_begin[q] = begin;
        const auto& sinks = s.part.quads[q];
        if (sinks.empty()) continue;
        if (prior != nullptr && prior->part.quads[q] == sinks) {
            // Same sinks, same quadrant tree: append the stored rows.
            for (const AtreeRow& row : prior->quads[q]) {
                const Point p{static_cast<Coord>(row.d.x + net.source.x),
                              static_cast<Coord>(row.d.y + net.source.y)};
                const std::int32_t id =
                    out.append(row.parent < 0 ? 0 : begin + row.parent, p);
                if (!row.sink) continue;
                out.mark_sink(id, row.cap);
                s.marked.push_back(p);
            }
            continue;
        }
        quadrant_sinks(s.part, static_cast<int>(q), s.sinks);
        run_atree(s.forest, s.engine, s.sinks, options);
        graft(net, static_cast<int>(q), s.forest, sinks, add, mark, s);
    }
    s.quad_begin[4] = static_cast<std::int32_t>(out.size());
    cover(net, out.size(), mark, s);
    // The price build_atree_general puts on its tree, for its one failure
    // mode: a QMST cost beyond int64 throws.
    sum_all_node_path_lengths(out);
}

void AtreeRows::capture(const AtreeScratch& s, const FlatTree& tree)
{
    const Point source = tree.point()[0];
    part = s.part;
    for (std::size_t q = 0; q < 4; ++q) {
        const std::int32_t begin = s.quad_begin[q];
        std::vector<AtreeRow>& rows = quads[q];
        rows.clear();
        for (std::int32_t i = begin; i < s.quad_begin[q + 1]; ++i) {
            const auto k = static_cast<std::size_t>(i);
            const std::int32_t parent = tree.parent()[k];
            const Point p = tree.point()[k];
            rows.push_back(AtreeRow{
                parent == 0 ? -1 : parent - begin,
                Point{static_cast<Coord>(p.x - source.x),
                      static_cast<Coord>(p.y - source.y)},
                tree.is_sink()[k] != 0, tree.sink_cap()[k]});
        }
    }
}

std::size_t AtreeRows::capacity_bytes() const
{
    std::size_t n = 0;
    for (std::size_t q = 0; q < 4; ++q)
        n += part.quads[q].capacity() * sizeof(RelSink) +
             quads[q].capacity() * sizeof(AtreeRow);
    return n;
}

}  // namespace cong93
