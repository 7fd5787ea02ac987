// Seed implementations behind the simulators of src/sim/: the equivalence
// oracles for the RC-tree builder and the moment kernel.  Defined only in
// the cong_oracles target (CONG93_BUILD_ORACLES=ON).
#ifndef CONG93_ORACLE_SIM_REFERENCE_H
#define CONG93_ORACLE_SIM_REFERENCE_H

#include <vector>

#include "rtree/routing_tree.h"
#include "sim/moments.h"
#include "sim/rc_tree.h"

namespace cong93 {

/// Seed pointer-walk RC builder; bit-identical to
/// RcTree::from_flat_tree(FlatTree(tree), ...).
RcTree from_routing_tree_reference(const RoutingTree& tree, const Technology& tech,
                                   int sections_per_edge = 16,
                                   bool with_inductance = false);

/// The seed moment computation (allocates every buffer per call);
/// bit-identical to compute_moments.
std::vector<std::vector<double>> compute_moments_reference(const RcTree& rc,
                                                           int order);

}  // namespace cong93

#endif  // CONG93_ORACLE_SIM_REFERENCE_H
