// OWSA -- the Optimal WireSizing Algorithm (Section 4.1, Table 2).
//
// Exploits two facts: (i) every optimal assignment is monotone (Theorem 4),
// and (ii) once a stem and all its ancestors are fixed, the child single-stem
// subtrees can be optimized independently.  The recursion enumerates the stem
// width top-down (children restricted to narrower-or-equal widths) and is
// O(n^{r-1}) in the worst case (Theorem 5) -- exponentially better than the
// O(r^n) brute force.
//
// `owsa_bounded` additionally restricts each segment's width to a
// [lower, upper] index window; with the GREWSA bounds of Section 4.2 this is
// the combined GREWSA-OWSA algorithm.  Both run an OwsaSolver, whose
// per-segment buffers only grow: the batch pipeline keeps one solver per
// worker slot (WiresizeScratch, combined.h), so a warmed-up slot solves
// without allocating.
#ifndef CONG93_WIRESIZE_OWSA_H
#define CONG93_WIRESIZE_OWSA_H

#include <cstdint>

#include "wiresize/delay_eval.h"

namespace cong93 {

struct OwsaResult {
    Assignment assignment;
    double delay = 0.0;
    /// Number of OWSA invocations -- the paper's N(n, r) of Theorem 5.
    std::int64_t calls = 0;
    /// "Assignments examined": 1 + the number of invocations that had more
    /// than one admissible stem width (matches Table 7's accounting, where a
    /// fully-pinned GREWSA-OWSA run examines exactly one assignment).
    std::int64_t assignments_examined = 0;
};

/// Reusable bounded-OWSA state: the enumeration's current widths, the
/// subtree runs, the stacked best-width snapshots and the pinned-minimum
/// linear forms.  One solver serves one thread at a time.
class OwsaSolver {
public:
    /// Exact optimal assignment of `ctx` with lower[i] <= a[i] <= upper[i];
    /// returns its delay and leaves the widths in assignment() until the
    /// next run.  Throws std::invalid_argument when a bound's size is not
    /// segment_count(), std::logic_error when the windows permit no
    /// monotone assignment.
    double run(const WiresizeContext& ctx, const Assignment& lower,
               const Assignment& upper);

    /// The last run's optimal widths.
    const Assignment& assignment() const { return current_; }
    /// The last run's OWSA invocations (OwsaResult::calls).
    std::int64_t calls() const { return calls_; }
    /// The last run's OwsaResult::assignments_examined.
    std::int64_t assignments_examined() const { return 1 + branching_calls_; }

    /// Heap bytes held by every buffer (capacities).
    std::size_t capacity_bytes() const;

private:
    /// Delay contribution of segment i itself at width index k given the
    /// accumulated upstream resistance.
    double contribution(std::size_t i, int k, double r_in) const;
    /// Optimal delay contribution of T_SS(i) with stem width index <= kmax;
    /// leaves the best subtree widths in current_.
    double solve(std::size_t i, int kmax, double r_in);

    const WiresizeContext* ctx_ = nullptr;
    const Assignment* lower_ = nullptr;
    const Assignment* upper_ = nullptr;
    Assignment current_;
    std::vector<std::size_t> size_;   ///< segments in T_SS(i)
    std::vector<std::size_t> first_;  ///< T_SS(i)'s run in order_
    std::vector<int> order_;          ///< every subtree as a contiguous run
    std::vector<int> saved_;          ///< stacked best-width snapshots
    std::vector<bool> pinnable_;
    std::vector<double> a_min_;  ///< pinned-min linear form: D(R) = A + R*B
    std::vector<double> b_min_;
    std::int64_t calls_ = 0;
    std::int64_t branching_calls_ = 0;
};

/// Exact optimal monotone assignment over all widths of the context.
OwsaResult owsa(const WiresizeContext& ctx);

/// Exact optimal assignment with per-segment index windows
/// lower[i] <= a[i] <= upper[i]; the windows must themselves permit a
/// monotone assignment (GREWSA bounds always do).
OwsaResult owsa_bounded(const WiresizeContext& ctx, const Assignment& lower,
                        const Assignment& upper);

}  // namespace cong93

#endif  // CONG93_WIRESIZE_OWSA_H
