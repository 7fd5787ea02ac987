// GREWSA -- the Greedy WireSizing Algorithm (Section 4.2, Table 3).
//
// Iterative local refinement: traverse each single-stem tree top-down,
// replacing each segment's width by its locally optimal width (minimizing
// theta*w + phi/w of Eq. 47), until a full pass changes nothing.
//
// Properties proved in the paper and tested here:
//  * exact when r == 2 (Theorem 6);
//  * the dominance property (Theorem 7): starting from the all-minimum
//    (all-maximum) assignment, every iterate -- hence the fixpoint -- is
//    dominated by (dominates) the optimal assignment, yielding per-segment
//    lower/upper bounds on the optimal widths.
#ifndef CONG93_WIRESIZE_GREWSA_H
#define CONG93_WIRESIZE_GREWSA_H

#include <cstdint>

#include "wiresize/delay_eval.h"

namespace cong93 {

class IncrementalDelayEngine;

struct GrewsaResult {
    Assignment assignment;
    double delay = 0.0;
    int sweeps = 0;                   ///< full Greedy_Improvement passes
    std::int64_t refinements = 0;     ///< local refinements that changed a width
};

/// Runs GREWSA from the given initial assignment.  Refinements are evaluated
/// through the IncrementalDelayEngine (O(depth) per candidate instead of
/// O(n)), so a full run costs ~O(n * depth * sweeps) rather than O(n^2 *
/// sweeps).  Produces bit-identical fixpoints to grewsa_reference for
/// integer width multipliers (see incremental.h).
GrewsaResult grewsa(const WiresizeContext& ctx, Assignment initial);

/// GREWSA on an engine already seeded with the start assignment: the
/// engine ends at the fixpoint grewsa() returns, and `res` gets the sweep
/// and refinement counts (its assignment and delay are left as they are).
/// grewsa() and the slot scratch path (combined.h) both run this loop.
void grewsa_sweeps(IncrementalDelayEngine& eng, GrewsaResult& res);

/// The pre-optimization O(n^2)-per-sweep implementation: every local
/// refinement re-derives theta/phi (and psi, via a full delay evaluation)
/// from scratch.  Kept as the equivalence oracle.  Defined only in the
/// cong_oracles target (CONG93_BUILD_ORACLES=ON).
GrewsaResult grewsa_reference(const WiresizeContext& ctx, Assignment initial);

/// Convenience: GREWSA from the all-minimum-width assignment f_lower.
GrewsaResult grewsa_from_min(const WiresizeContext& ctx);

/// Convenience: GREWSA from the all-maximum-width assignment f_upper.
GrewsaResult grewsa_from_max(const WiresizeContext& ctx);

}  // namespace cong93

#endif  // CONG93_WIRESIZE_GREWSA_H
