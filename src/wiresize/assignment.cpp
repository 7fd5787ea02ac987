#include "wiresize/assignment.h"

#include <stdexcept>

#include "wiresize/delay_eval.h"

namespace cong93 {

WidthSet::WidthSet(std::vector<double> multipliers) : w_(std::move(multipliers))
{
    if (w_.empty()) throw std::invalid_argument("WidthSet: empty");
    double prev = 0.0;
    for (const double w : w_) {
        if (w < 1.0 || w <= prev)
            throw std::invalid_argument("WidthSet: widths must be >= 1 and increasing");
        prev = w;
    }
}

WidthSet WidthSet::uniform_steps(int r)
{
    if (r < 1) throw std::invalid_argument("WidthSet: r must be >= 1");
    std::vector<double> w;
    w.reserve(static_cast<std::size_t>(r));
    for (int i = 1; i <= r; ++i) w.push_back(static_cast<double>(i));
    return WidthSet(std::move(w));
}

Assignment min_assignment(std::size_t segment_count)
{
    return Assignment(segment_count, 0);
}

Assignment max_assignment(std::size_t segment_count, int r)
{
    return Assignment(segment_count, r - 1);
}

bool is_monotone(const WiresizeContext& ctx, const Assignment& a)
{
    for (std::size_t i = 0; i < ctx.segment_count(); ++i) {
        const std::int32_t parent = ctx.seg_parent()[i];
        if (parent != kNoSegment &&
            a[i] > a[static_cast<std::size_t>(parent)])
            return false;
    }
    return true;
}

bool dominates(const Assignment& a, const Assignment& b)
{
    if (a.size() != b.size()) throw std::invalid_argument("dominates: size mismatch");
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i] < b[i]) return false;
    return true;
}

}  // namespace cong93
