#include "rtree/metrics.h"

#include <algorithm>

namespace cong93 {

namespace {

/// Σ_{j=1..l} (a+j) for an edge of length l whose head sits at path length
/// a = pl - l: the contribution of the edge's grid points to the QMST cost.
Length edge_qmst_term(Length l, Length pl)
{
    const Length a = pl - l;
    return l * a + l * (l + 1) / 2;
}

}  // namespace

Length total_length(const FlatTree& ft) { return ft.total_length(); }

Length total_length(const RoutingTree& tree)
{
    Length sum = 0;
    for (std::size_t i = 1; i < tree.node_count(); ++i)
        sum += tree.edge_length(static_cast<NodeId>(i));
    return sum;
}

Length sum_sink_path_lengths(const FlatTree& ft)
{
    Length sum = 0;
    const Length* pl = ft.path_length().data();
    for (const std::int32_t s : ft.sinks()) sum += pl[s];
    return sum;
}

Length sum_sink_path_lengths(const RoutingTree& tree)
{
    Length sum = 0;
    for (std::size_t i = 0; i < tree.node_count(); ++i) {
        const RoutingTree::Node& n = tree.node(static_cast<NodeId>(i));
        if (n.is_sink) sum += n.pl;
    }
    return sum;
}

Length sum_all_node_path_lengths(const FlatTree& ft)
{
    Length sum = 0;
    const Length* el = ft.edge_length().data();
    const Length* pl = ft.path_length().data();
    for (std::size_t i = 1; i < ft.size(); ++i) sum += edge_qmst_term(el[i], pl[i]);
    return sum;
}

Length sum_all_node_path_lengths(const RoutingTree& tree)
{
    Length sum = 0;
    for (std::size_t i = 1; i < tree.node_count(); ++i) {
        const NodeId id = static_cast<NodeId>(i);
        sum += edge_qmst_term(tree.edge_length(id), tree.path_length(id));
    }
    return sum;
}

Length radius(const FlatTree& ft)
{
    Length r = 0;
    const Length* pl = ft.path_length().data();
    for (const std::int32_t s : ft.sinks()) r = std::max(r, pl[s]);
    return r;
}

Length radius(const RoutingTree& tree)
{
    Length r = 0;
    for (std::size_t i = 0; i < tree.node_count(); ++i) {
        const RoutingTree::Node& n = tree.node(static_cast<NodeId>(i));
        if (n.is_sink) r = std::max(r, n.pl);
    }
    return r;
}

Length net_radius(const Net& net)
{
    Length r = 0;
    for (const Point s : net.sinks) r = std::max(r, dist(net.source, s));
    return r;
}

double mdrt_cost(const FlatTree& ft, double alpha, double beta, double gamma)
{
    return alpha * static_cast<double>(total_length(ft)) +
           beta * static_cast<double>(sum_sink_path_lengths(ft)) +
           gamma * static_cast<double>(sum_all_node_path_lengths(ft));
}

double mdrt_cost(const RoutingTree& tree, double alpha, double beta, double gamma)
{
    return alpha * static_cast<double>(total_length(tree)) +
           beta * static_cast<double>(sum_sink_path_lengths(tree)) +
           gamma * static_cast<double>(sum_all_node_path_lengths(tree));
}

}  // namespace cong93
