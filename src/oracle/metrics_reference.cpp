// Seed pointer-walk metric implementations, preserved verbatim as the
// equivalence oracles for the flat-array kernels in rtree/metrics.cpp.
// Built only into the cong_oracles target (CONG93_BUILD_ORACLES=ON).
#include "oracle/metrics_reference.h"

#include <algorithm>

namespace cong93 {

Length total_length_reference(const RoutingTree& tree)
{
    Length sum = 0;
    tree.for_each_edge([&](NodeId id) { sum += tree.edge_length(id); });
    return sum;
}

Length sum_sink_path_lengths_reference(const RoutingTree& tree)
{
    Length sum = 0;
    for (const NodeId s : tree.sinks()) sum += tree.path_length(s);
    return sum;
}

Length sum_all_node_path_lengths_reference(const RoutingTree& tree)
{
    Length sum = 0;
    tree.for_each_edge([&](NodeId id) {
        const Length l = tree.edge_length(id);
        const Length a = tree.path_length(id) - l;  // pl at the edge's head
        sum += l * a + l * (l + 1) / 2;
    });
    return sum;
}

Length radius_reference(const RoutingTree& tree)
{
    Length r = 0;
    for (const NodeId s : tree.sinks()) r = std::max(r, tree.path_length(s));
    return r;
}

double mdrt_cost_reference(const RoutingTree& tree, double alpha, double beta,
                           double gamma)
{
    return alpha * static_cast<double>(total_length_reference(tree)) +
           beta * static_cast<double>(sum_sink_path_lengths_reference(tree)) +
           gamma * static_cast<double>(sum_all_node_path_lengths_reference(tree));
}

}  // namespace cong93
