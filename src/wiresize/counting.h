// Assignment-space counting for Table 7: how many candidate assignments the
// naive methods would examine.
#ifndef CONG93_WIRESIZE_COUNTING_H
#define CONG93_WIRESIZE_COUNTING_H

#include <cstddef>

namespace cong93 {

class WiresizeContext;

/// r^n -- the exhaustive enumeration count (as double; it overflows int64
/// already at the paper's sizes).
double exhaustive_assignment_count(std::size_t segments, int r);

/// Number of *monotone* assignments of the context's segment tree over its
/// r = ctx.width_count() widths ("exhaustive enumeration with MP" in
/// Table 7), via the tree DP
///   M(seg, k) = Σ_{j=1..k} Π_children M(child, j).
double monotone_assignment_count(const WiresizeContext& ctx);

}  // namespace cong93

#endif  // CONG93_WIRESIZE_COUNTING_H
