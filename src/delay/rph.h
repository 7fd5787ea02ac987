// The paper's delay objective: the Rubinstein-Penfield-Horowitz uniform
// bound t(T) = Σ_{all grid nodes k} R(source->k) * C_k (Eq. 1), expanded for
// a uniform-width routing tree into the four terms of Eq. 3-7:
//   t1 = Rd*C0*length(T)          -- driver resistance x total wire cap
//   t2 = R0*Σ_sinks Ck*pl_k       -- wire resistance x sink loads
//   t3 = R0*C0*Σ_nodes pl_k       -- distributed wire RC (the QMST term)
//   t4 = Rd*Σ_sinks Ck            -- constant
// R0/C0 are per grid unit; sums are evaluated with exact per-edge closed
// forms (no grid nodes are materialized).
#ifndef CONG93_DELAY_RPH_H
#define CONG93_DELAY_RPH_H

#include "rtree/flat_tree.h"
#include "rtree/routing_tree.h"
#include "tech/technology.h"

namespace cong93 {

/// The four RPH terms, in seconds.
struct RphTerms {
    double t1 = 0.0;
    double t2 = 0.0;
    double t3 = 0.0;
    double t4 = 0.0;
    double total() const { return t1 + t2 + t3 + t4; }
};

/// Decomposed RPH bound of a uniform-width tree (Eq. 4-7).
RphTerms rph_terms(const RoutingTree& tree, const Technology& tech);

/// Flat kernel over a compiled tree: one pass over the preorder arrays
/// (integer length/pl sums are exact; the sink sums accumulate in
/// tree.sinks() order).  Bit-identical to rph_terms_reference.
RphTerms rph_terms(const FlatTree& ft, const Technology& tech);

/// The seed pointer-walk implementation, kept as the equivalence oracle.
/// Defined only in the cong_oracles target (CONG93_BUILD_ORACLES=ON).
RphTerms rph_terms_reference(const RoutingTree& tree, const Technology& tech);

/// Total RPH bound t(T) of Eq. 2 (equals rph_terms(...).total()).
double rph_delay(const RoutingTree& tree, const Technology& tech);

/// Reference implementation that walks every grid node explicitly; O(total
/// wirelength).  Used by tests to validate the closed forms.
double rph_delay_bruteforce(const RoutingTree& tree, const Technology& tech);

}  // namespace cong93

#endif  // CONG93_DELAY_RPH_H
