// Seed RPH estimator built on the pointer-walk metric helpers, preserved as
// the equivalence oracle for the flat rph_terms kernel, and the grid-node
// brute force of Eq. 1.  Built only into the cong_oracles target
// (CONG93_BUILD_ORACLES=ON).
#include "oracle/rph_reference.h"

#include "oracle/metrics_reference.h"

namespace cong93 {

RphTerms rph_terms_reference(const RoutingTree& tree, const Technology& tech)
{
    const double rd = tech.driver_resistance_ohm;
    const double r0 = tech.r_grid();
    const double c0 = tech.c_grid();

    RphTerms t;
    t.t1 = rd * c0 * static_cast<double>(total_length_reference(tree));
    t.t3 = r0 * c0 * static_cast<double>(sum_all_node_path_lengths_reference(tree));
    for (const NodeId s : tree.sinks()) {
        const double ck =
            tree.node(s).sink_cap_f >= 0.0 ? tree.node(s).sink_cap_f : tech.sink_load_f;
        t.t2 += r0 * static_cast<double>(tree.path_length(s)) * ck;
        t.t4 += rd * ck;
    }
    return t;
}

double rph_delay_bruteforce(const RoutingTree& tree, const Technology& tech)
{
    const double rd = tech.driver_resistance_ohm;
    const double r0 = tech.r_grid();
    const double c0 = tech.c_grid();

    double total = 0.0;
    // Wire capacitance at every grid node (one per unit of every edge).
    tree.for_each_edge([&](NodeId id) {
        const Length l = tree.edge_length(id);
        const Length a = tree.path_length(id) - l;
        for (Length j = 1; j <= l; ++j)
            total += (rd + r0 * static_cast<double>(a + j)) * c0;
    });
    // Loading capacitance at sinks.
    for (const NodeId s : tree.sinks()) {
        const double ck =
            tree.node(s).sink_cap_f >= 0.0 ? tree.node(s).sink_cap_f : tech.sink_load_f;
        total += (rd + r0 * static_cast<double>(tree.path_length(s))) * ck;
    }
    return total;
}

}  // namespace cong93
