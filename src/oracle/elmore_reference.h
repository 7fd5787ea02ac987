// Seed pointer-walk Elmore evaluation: the equivalence oracle for the flat
// kernels of delay/elmore.h.  Defined only in the cong_oracles target
// (CONG93_BUILD_ORACLES=ON).
#ifndef CONG93_ORACLE_ELMORE_REFERENCE_H
#define CONG93_ORACLE_ELMORE_REFERENCE_H

#include <vector>

#include "rtree/routing_tree.h"
#include "tech/technology.h"

namespace cong93 {

/// Elmore delay at every sink, in tree.sinks() order; bit-identical to
/// elmore_all_sinks(FlatTree(tree), tech).
std::vector<double> elmore_all_sinks_reference(const RoutingTree& tree,
                                               const Technology& tech);

}  // namespace cong93

#endif  // CONG93_ORACLE_ELMORE_REFERENCE_H
