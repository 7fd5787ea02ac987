// Seed pointer-walk Elmore evaluation, preserved as the equivalence oracle
// for the flat kernels in delay/elmore.cpp.  Built only into the
// cong_oracles target (CONG93_BUILD_ORACLES=ON).
#include "oracle/elmore_reference.h"

namespace cong93 {

namespace {

/// Total capacitance (wire + loads) in the subtree rooted at each node,
/// where a node's incoming edge capacitance is attributed to the node.
/// Pointer-walk version over the RoutingTree (reference path).
std::vector<double> subtree_caps(const RoutingTree& tree, const Technology& tech)
{
    std::vector<double> cap(tree.node_count(), 0.0);
    const std::vector<NodeId> order = tree.preorder();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const NodeId id = *it;
        const auto& n = tree.node(id);
        double c = tech.c_grid() * static_cast<double>(tree.edge_length(id));
        if (n.is_sink) c += n.sink_cap_f >= 0.0 ? n.sink_cap_f : tech.sink_load_f;
        for (const NodeId ch : n.children) c += cap[static_cast<std::size_t>(ch)];
        cap[static_cast<std::size_t>(id)] = c;
    }
    return cap;
}

}  // namespace

std::vector<double> elmore_all_sinks_reference(const RoutingTree& tree,
                                               const Technology& tech)
{
    const std::vector<double> cap = subtree_caps(tree, tech);
    const double c_total = cap[static_cast<std::size_t>(tree.root())];
    std::vector<double> out;
    for (const NodeId s : tree.sinks()) {
        double t = tech.driver_resistance_ohm * c_total;
        for (NodeId id = s; id != tree.root(); id = tree.node(id).parent) {
            const double re = tech.r_grid() * static_cast<double>(tree.edge_length(id));
            const double ce = tech.c_grid() * static_cast<double>(tree.edge_length(id));
            t += re * (cap[static_cast<std::size_t>(id)] - 0.5 * ce);
        }
        out.push_back(t);
    }
    return out;
}

}  // namespace cong93
