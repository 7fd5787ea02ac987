// Oracles for the RPH bound of delay/rph.h.  Defined only in the
// cong_oracles target (CONG93_BUILD_ORACLES=ON).
#ifndef CONG93_ORACLE_RPH_REFERENCE_H
#define CONG93_ORACLE_RPH_REFERENCE_H

#include "delay/rph.h"
#include "rtree/routing_tree.h"

namespace cong93 {

/// The seed pointer-walk implementation; bit-identical to the flat
/// rph_terms kernel.
RphTerms rph_terms_reference(const RoutingTree& tree, const Technology& tech);

/// t(T) of Eq. 1 by walking every grid node explicitly; O(total
/// wirelength).  Validates the closed forms.
double rph_delay_bruteforce(const RoutingTree& tree, const Technology& tech);

}  // namespace cong93

#endif  // CONG93_ORACLE_RPH_REFERENCE_H
