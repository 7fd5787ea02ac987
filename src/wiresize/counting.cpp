#include "wiresize/counting.h"

#include <cmath>
#include <vector>

#include "wiresize/delay_eval.h"

namespace cong93 {

double exhaustive_assignment_count(std::size_t segments, int r)
{
    return std::pow(static_cast<double>(r), static_cast<double>(segments));
}

double monotone_assignment_count(const WiresizeContext& ctx)
{
    // m[i][k] = number of monotone assignments of T_SS(i) with the stem width
    // index exactly k; cumulative M[i][k] = Σ_{j<=k} m[i][j].
    const int r = ctx.width_count();
    const std::size_t n = ctx.segment_count();
    const std::int32_t* cp = ctx.seg_child_ptr().data();
    const std::int32_t* ci = ctx.seg_child_idx().data();
    std::vector<std::vector<double>> cum(n, std::vector<double>(static_cast<std::size_t>(r), 0.0));
    // Children have larger indices than parents.
    for (std::size_t i = n; i-- > 0;) {
        double running = 0.0;
        for (int k = 0; k < r; ++k) {
            double prod = 1.0;
            for (std::int32_t j = cp[i]; j < cp[i + 1]; ++j)
                prod *= cum[static_cast<std::size_t>(ci[j])][static_cast<std::size_t>(k)];
            running += prod;
            cum[i][static_cast<std::size_t>(k)] = running;
        }
    }
    double total = 1.0;
    for (const std::int32_t root : ctx.seg_roots())
        total *= cum[static_cast<std::size_t>(root)][static_cast<std::size_t>(r - 1)];
    return total;
}

}  // namespace cong93
