// Seed pointer-walk RC netlist builders, preserved as the equivalence
// oracles for RcTree::from_flat_tree and RcTree::from_wiresized_flat.  Built
// only into the cong_oracles target (CONG93_BUILD_ORACLES=ON).
#include <stdexcept>

#include "oracle/segments_reference.h"
#include "oracle/sim_reference.h"

#include <algorithm>

namespace cong93 {

namespace {

/// Appends a chain of pi-sections modelling a wire of total resistance r,
/// capacitance c and inductance l from `from`; returns the far node index.
int append_wire(std::vector<RcTree::RcNode>& nodes, int from, double r, double c,
                double l, int sections)
{
    const int k = std::max(1, sections);
    const double rs = r / k;
    const double cs = c / k;
    const double ls = l / k;
    int cur = from;
    for (int i = 0; i < k; ++i) {
        nodes[static_cast<std::size_t>(cur)].c_f += cs / 2.0;
        RcTree::RcNode n;
        n.parent = cur;
        n.r_ohm = rs;
        n.c_f = cs / 2.0;
        n.l_h = ls;
        nodes.push_back(n);
        cur = static_cast<int>(nodes.size()) - 1;
    }
    return cur;
}

}  // namespace

RcTree from_routing_tree_reference(const RoutingTree& tree, const Technology& tech,
                                   int sections_per_edge, bool with_inductance)
{
    std::vector<RcTree::RcNode> nodes(1);
    nodes[0].parent = -1;
    nodes[0].r_ohm = tech.driver_resistance_ohm;

    std::vector<int> rc_of(tree.node_count(), -1);
    rc_of[static_cast<std::size_t>(tree.root())] = 0;
    for (const NodeId id : tree.preorder()) {
        if (id == tree.root()) continue;
        const auto& n = tree.node(id);
        const Length l = tree.edge_length(id);
        const int from = rc_of[static_cast<std::size_t>(n.parent)];
        const int sections = static_cast<int>(std::min<Length>(l, sections_per_edge));
        const int end = append_wire(
            nodes, from, tech.r_grid() * static_cast<double>(l),
            tech.c_grid() * static_cast<double>(l),
            with_inductance ? tech.l_grid() * static_cast<double>(l) : 0.0, sections);
        rc_of[static_cast<std::size_t>(id)] = end;
        if (n.is_sink)
            nodes[static_cast<std::size_t>(end)].c_f +=
                n.sink_cap_f >= 0.0 ? n.sink_cap_f : tech.sink_load_f;
    }

    std::vector<int> sinks;
    for (const NodeId s : tree.sinks())
        sinks.push_back(rc_of[static_cast<std::size_t>(s)]);
    return RcTree(std::move(nodes), std::move(sinks));
}

RcTree from_wiresized_tree_reference(const SegmentDecomposition& segs,
                                     const Technology& tech, const WidthSet& widths,
                                     const Assignment& assignment,
                                     int sections_per_edge, bool with_inductance)
{
    if (assignment.size() != segs.count())
        throw std::invalid_argument("RcTree: assignment size mismatch");

    std::vector<RcTree::RcNode> nodes(1);
    nodes[0].parent = -1;
    nodes[0].r_ohm = tech.driver_resistance_ohm;

    const RoutingTree& tree = segs.tree();
    std::vector<int> rc_of_tail(segs.count(), -1);
    std::vector<int> rc_of_tree_node(tree.node_count(), -1);
    rc_of_tree_node[static_cast<std::size_t>(tree.root())] = 0;

    for (std::size_t i = 0; i < segs.count(); ++i) {
        const WireSegment& s = segs[i];
        const int from = s.parent == kNoSegment
                             ? 0
                             : rc_of_tail[static_cast<std::size_t>(s.parent)];
        const double w = widths[assignment[i]];
        const double l = static_cast<double>(s.length);
        const int sections =
            static_cast<int>(std::min<Length>(s.length, sections_per_edge));
        // Wire inductance is taken width-independent (loop inductance varies
        // only logarithmically with conductor width).
        const int end = append_wire(nodes, from, tech.r_grid() * l / w,
                                    tech.c_grid() * l * w,
                                    with_inductance ? tech.l_grid() * l : 0.0,
                                    sections);
        rc_of_tail[i] = end;
        rc_of_tree_node[static_cast<std::size_t>(s.tail)] = end;
        if (s.tail_is_sink)
            nodes[static_cast<std::size_t>(end)].c_f +=
                s.tail_sink_cap_f >= 0.0 ? s.tail_sink_cap_f : tech.sink_load_f;
    }

    std::vector<int> sinks;
    for (const NodeId s : tree.sinks()) {
        const int idx = rc_of_tree_node[static_cast<std::size_t>(s)];
        if (idx < 0) throw std::logic_error("RcTree: sink is not a segment tail");
        sinks.push_back(idx);
    }
    return RcTree(std::move(nodes), std::move(sinks));
}

}  // namespace cong93
