// The paper's delay objective: the Rubinstein-Penfield-Horowitz uniform
// bound t(T) = Σ_{all grid nodes k} R(source->k) * C_k (Eq. 1), expanded for
// a uniform-width routing tree into the four terms of Eq. 3-7:
//   t1 = Rd*C0*length(T)          -- driver resistance x total wire cap
//   t2 = R0*Σ_sinks Ck*pl_k       -- wire resistance x sink loads
//   t3 = R0*C0*Σ_nodes pl_k       -- distributed wire RC (the QMST term)
//   t4 = Rd*Σ_sinks Ck            -- constant
// R0/C0 are per grid unit; sums are evaluated with exact per-edge closed
// forms (no grid nodes are materialized).  The bound t(T) itself is
// rph_terms(ft, tech).total().  The seed pointer walk and the grid-node
// brute force survive as oracles in oracle/rph_reference.h.
#ifndef CONG93_DELAY_RPH_H
#define CONG93_DELAY_RPH_H

#include "rtree/flat_tree.h"
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

/// Decomposed RPH bound of a uniform-width compiled tree (Eq. 4-7): one
/// pass over the preorder arrays (integer length/pl sums are exact; the
/// sink sums accumulate in sinks() order).
RphTerms rph_terms(const FlatTree& ft, const Technology& tech);

}  // namespace cong93

#endif  // CONG93_DELAY_RPH_H
