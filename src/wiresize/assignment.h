// Width sets and per-segment width assignments (Section 2.2).
//
// A WidthSet holds the r admissible physical widths W1 < W2 < ... < Wr as
// multipliers of the technology base width W1 (so the paper's Table 6 set
// {W1, 2W1, ..., rW1} is {1, 2, ..., r}).  An Assignment maps each wire
// segment of a WiresizeContext to a width index.
#ifndef CONG93_WIRESIZE_ASSIGNMENT_H
#define CONG93_WIRESIZE_ASSIGNMENT_H

#include <vector>

namespace cong93 {

class WiresizeContext;

/// Admissible normalized widths, strictly increasing, all >= 1.
class WidthSet {
public:
    explicit WidthSet(std::vector<double> multipliers);

    /// The paper's standard set {1, 2, ..., r}.
    static WidthSet uniform_steps(int r);

    int count() const { return static_cast<int>(w_.size()); }
    double operator[](int i) const { return w_.at(static_cast<std::size_t>(i)); }
    const std::vector<double>& values() const { return w_; }

private:
    std::vector<double> w_;
};

/// Width index per segment; index 0 is the minimum width.
using Assignment = std::vector<int>;

Assignment min_assignment(std::size_t segment_count);
Assignment max_assignment(std::size_t segment_count, int r);

/// Monotone property check (Definition 10): no segment is wider than any of
/// its ancestors.
bool is_monotone(const WiresizeContext& ctx, const Assignment& a);

/// True when a[i] >= b[i] for every segment (Definition 12).
bool dominates(const Assignment& a, const Assignment& b);

}  // namespace cong93

#endif  // CONG93_WIRESIZE_ASSIGNMENT_H
