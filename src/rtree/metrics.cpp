#include "rtree/metrics.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace cong93 {

void QmstSum::check() const
{
    if (sum_ > std::numeric_limits<Length>::max() ||
        sum_ < std::numeric_limits<Length>::min())
        throw std::overflow_error(
            "QMST cost (sum of all node path lengths) overflows int64");
}

Length total_length(const FlatTree& ft) { return ft.total_length(); }

Length sum_sink_path_lengths(const FlatTree& ft)
{
    Length sum = 0;
    const Length* pl = ft.path_length().data();
    for (const std::int32_t s : ft.sinks()) sum += pl[s];
    return sum;
}

Length sum_all_node_path_lengths(const FlatTree& ft)
{
    QmstSum sum;
    const Length* el = ft.edge_length().data();
    const Length* pl = ft.path_length().data();
    for (std::size_t i = 1; i < ft.size(); ++i) sum.add_edge(el[i], pl[i]);
    return sum.value();
}

Length radius(const FlatTree& ft)
{
    Length r = 0;
    const Length* pl = ft.path_length().data();
    for (const std::int32_t s : ft.sinks()) r = std::max(r, pl[s]);
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

}  // namespace cong93
