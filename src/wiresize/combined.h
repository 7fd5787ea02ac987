// GREWSA-OWSA -- the combined optimal wiresizing algorithm (Section 4.3).
//
// GREWSA from the all-minimum assignment yields per-segment lower bounds on
// the optimal widths; from the all-maximum assignment, upper bounds
// (dominance property, Theorem 7).  OWSA then enumerates only assignments
// inside the window.  In most cases the bounds coincide and OWSA examines a
// single assignment.
//
// Everything a run builds -- the compiled context, the width set, the
// incremental engine of both GREWSA passes, OWSA's buffers and the bound
// and result assignments -- lives in a WiresizeScratch whose buffers only
// grow.  The batch pipeline keeps one per worker slot (Workspace::wiresize),
// so a warmed-up slot wiresizes a net without allocating;
// grewsa_owsa(ctx) runs the same path on a scratch of its own.
#ifndef CONG93_WIRESIZE_COMBINED_H
#define CONG93_WIRESIZE_COMBINED_H

#include <cstdint>
#include <optional>

#include "wiresize/grewsa.h"
#include "wiresize/incremental.h"
#include "wiresize/owsa.h"

namespace cong93 {

struct CombinedResult {
    Assignment assignment;            ///< the optimal assignment
    double delay = 0.0;
    Assignment lower_bounds;          ///< GREWSA-from-min fixpoint
    Assignment upper_bounds;          ///< GREWSA-from-max fixpoint
    std::int64_t assignments_examined = 0;  ///< by the bounded OWSA stage
    std::int64_t owsa_calls = 0;
    bool bounds_tight = false;        ///< lower == upper everywhere

    /// Average number of admissible widths per segment (Table 7, last rows).
    double avg_choices_per_segment() const;
};

/// Reusable GREWSA-OWSA storage for one thread at a time.  Contents are
/// scratch: `best` holds the last solve until the next one.
struct WiresizeScratch {
    /// Re-seeded for GREWSA from min, then from max (and for the session's
    /// warm-started sweeps).
    IncrementalDelayEngine engine;
    OwsaSolver owsa;
    /// The last solve: bounds, optimal widths, delay and OWSA counts.
    CombinedResult best;
    /// compile-and-solve rounds that grew the storage (counted by the
    /// batch pipeline, as AtreeScratch::growths).
    std::uint64_t growths = 0;

    /// Compiles `ft` into the scratch's context, in place after the first
    /// net, with the paper's width set {1, ..., r}; the set is built only
    /// when r differs from the last call's.
    const WiresizeContext& compile(const FlatTree& ft, const Technology& tech,
                                   int widths_r);
    /// Heap bytes held by every buffer, the context's included (capacities).
    std::size_t capacity_bytes() const;

private:
    std::optional<WidthSet> widths_;
    std::optional<WiresizeContext> ctx_;
};

/// GREWSA-OWSA on `ctx` into s.best, reusing every buffer of `s` (`ctx`
/// may be the one s.compile returned).  Bit-identical to grewsa_owsa(ctx).
void grewsa_owsa(const WiresizeContext& ctx, WiresizeScratch& s);

/// The OWSA stage alone: the exact optimum inside the window
/// [s.best.lower_bounds, s.best.upper_bounds] into the rest of s.best.
/// grewsa_owsa runs it after its two GREWSA passes; a caller that derives
/// the same bounds another way (the session's warm start) runs it
/// directly.
void owsa_within_bounds(const WiresizeContext& ctx, WiresizeScratch& s);

/// GREWSA-OWSA on a scratch of its own: for callers without a slot.
CombinedResult grewsa_owsa(const WiresizeContext& ctx);

/// Delay lower bound for the optimal assignment from the GREWSA bounds
/// (Eq. 51-54): each term evaluated with the most favourable admissible
/// width.  Together with min(t(f_lower), t(f_upper)) this brackets the
/// optimum without running OWSA.
double delay_lower_bound(const WiresizeContext& ctx, const Assignment& lower,
                         const Assignment& upper);

}  // namespace cong93

#endif  // CONG93_WIRESIZE_COMBINED_H
