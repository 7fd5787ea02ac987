// Seed pointer-walk twins of the geometric metrics in rtree/metrics.h: the
// equivalence oracles for the FlatTree kernels.  Defined only in the
// cong_oracles target (CONG93_BUILD_ORACLES=ON).
#ifndef CONG93_ORACLE_METRICS_REFERENCE_H
#define CONG93_ORACLE_METRICS_REFERENCE_H

#include "rtree/routing_tree.h"

namespace cong93 {

Length total_length_reference(const RoutingTree& tree);
Length sum_sink_path_lengths_reference(const RoutingTree& tree);
/// Unchecked int64 accumulation (the seed body): meaningful only where the
/// sum fits, unlike the FlatTree kernel, which throws beyond int64.
Length sum_all_node_path_lengths_reference(const RoutingTree& tree);
Length radius_reference(const RoutingTree& tree);
double mdrt_cost_reference(const RoutingTree& tree, double alpha, double beta,
                           double gamma);

}  // namespace cong93

#endif  // CONG93_ORACLE_METRICS_REFERENCE_H
