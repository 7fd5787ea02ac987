// Seed pointer-walk SVG renderer: the byte-identity oracle for the flat
// renderer of rtree/svg.h.  Defined only in the cong_oracles target
// (CONG93_BUILD_ORACLES=ON).
#ifndef CONG93_ORACLE_SVG_REFERENCE_H
#define CONG93_ORACLE_SVG_REFERENCE_H

#include <string>

#include "rtree/routing_tree.h"
#include "rtree/svg.h"

namespace cong93 {

/// Byte-identical to to_svg(FlatTree(tree), options).
std::string to_svg_reference(const RoutingTree& tree,
                             const SvgOptions& options = {});

}  // namespace cong93

#endif  // CONG93_ORACLE_SVG_REFERENCE_H
