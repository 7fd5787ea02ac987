#include "rtree/metrics.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace cong93 {

namespace {

/// Checked QMST accumulation.  Each edge of length l whose head sits at
/// path length a = pl - l adds Σ_{j=1..l} (a+j).  Terms and the running sum
/// are 128-bit, so neither can wrap; a sum beyond int64 throws -- a net
/// validate_net admits can still get there (2048 sinks from a corner of the
/// ±2^28 box), and a wrapped cost would come out negative.
class QmstSum {
public:
    void add(Length l, Length pl)
    {
        const __int128 wl = l;
        const __int128 a = static_cast<__int128>(pl) - l;
        sum_ += wl * a + wl * (wl + 1) / 2;
        if (sum_ > std::numeric_limits<Length>::max() ||
            sum_ < std::numeric_limits<Length>::min())
            throw std::overflow_error(
                "QMST cost (sum of all node path lengths) overflows int64");
    }
    Length value() const { return static_cast<Length>(sum_); }

private:
    __int128 sum_ = 0;
};

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
    QmstSum sum;
    const Length* el = ft.edge_length().data();
    const Length* pl = ft.path_length().data();
    for (std::size_t i = 1; i < ft.size(); ++i) sum.add(el[i], pl[i]);
    return sum.value();
}

Length sum_all_node_path_lengths(const RoutingTree& tree)
{
    QmstSum sum;
    for (std::size_t i = 1; i < tree.node_count(); ++i) {
        const NodeId id = static_cast<NodeId>(i);
        sum.add(tree.edge_length(id), tree.path_length(id));
    }
    return sum.value();
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
