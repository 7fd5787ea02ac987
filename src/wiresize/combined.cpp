#include "wiresize/combined.h"

namespace cong93 {

double CombinedResult::avg_choices_per_segment() const
{
    if (lower_bounds.empty()) return 0.0;
    double sum = 0.0;
    for (std::size_t i = 0; i < lower_bounds.size(); ++i)
        sum += static_cast<double>(upper_bounds[i] - lower_bounds[i] + 1);
    return sum / static_cast<double>(lower_bounds.size());
}

const WiresizeContext& WiresizeScratch::compile(const FlatTree& ft,
                                                const Technology& tech, int widths_r)
{
    if (!widths_ || widths_->count() != widths_r)
        widths_ = WidthSet::uniform_steps(widths_r);
    if (ctx_)
        ctx_->reset(ft, tech, *widths_);
    else
        ctx_.emplace(ft, tech, *widths_);
    return *ctx_;
}

std::size_t WiresizeScratch::capacity_bytes() const
{
    const std::size_t ints = best.assignment.capacity() +
                             best.lower_bounds.capacity() +
                             best.upper_bounds.capacity();
    std::size_t n = engine.capacity_bytes() + owsa.capacity_bytes() + ints * sizeof(int);
    if (widths_) n += widths_->values().capacity() * sizeof(double);
    if (ctx_) n += ctx_->capacity_bytes();
    return n;
}

void grewsa_owsa(const WiresizeContext& ctx, WiresizeScratch& s)
{
    // Theorem 7's bracket: GREWSA from the all-minimum and from the
    // all-maximum assignment, both on the scratch's one engine.
    const std::size_t n = ctx.segment_count();
    GrewsaResult counts;
    s.best.lower_bounds.assign(n, 0);
    s.engine.reset(ctx, s.best.lower_bounds);
    grewsa_sweeps(s.engine, counts);
    s.best.lower_bounds = s.engine.assignment();

    s.best.upper_bounds.assign(n, ctx.width_count() - 1);
    s.engine.reset(ctx, s.best.upper_bounds);
    grewsa_sweeps(s.engine, counts);
    s.best.upper_bounds = s.engine.assignment();

    owsa_within_bounds(ctx, s);
}

void owsa_within_bounds(const WiresizeContext& ctx, WiresizeScratch& s)
{
    CombinedResult& b = s.best;
    b.bounds_tight = b.lower_bounds == b.upper_bounds;
    b.delay = s.owsa.run(ctx, b.lower_bounds, b.upper_bounds);
    b.assignment = s.owsa.assignment();
    b.assignments_examined = s.owsa.assignments_examined();
    b.owsa_calls = s.owsa.calls();
}

CombinedResult grewsa_owsa(const WiresizeContext& ctx)
{
    WiresizeScratch s;
    grewsa_owsa(ctx, s);
    return std::move(s.best);
}

double delay_lower_bound(const WiresizeContext& ctx, const Assignment& lower,
                         const Assignment& upper)
{
    // Eq. 51-54: capacitive factors (w multiplies C0) take the lower-bound
    // width, resistive factors (w divides R0) take the upper-bound width.
    const std::size_t n = ctx.segment_count();
    const auto& ws = ctx.widths();
    const double rd = ctx.tech().driver_resistance_ohm;
    const double r0 = ctx.tech().r_grid();
    const double c0 = ctx.tech().c_grid();

    // Upstream Σ l_a / w_a using upper widths (smallest possible resistance).
    std::vector<double> a_up(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::int32_t p = ctx.seg_parent()[i];
        if (p == kNoSegment) continue;
        a_up[i] = a_up[static_cast<std::size_t>(p)] +
                  ctx.seg_length()[static_cast<std::size_t>(p)] /
                      ws[upper[static_cast<std::size_t>(p)]];
    }

    double bound = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double l = ctx.seg_length()[i];
        const double w_lo = ws[lower[i]];
        const double w_hi = ws[upper[i]];
        bound += rd * c0 * w_lo * l;                                  // t1
        bound += r0 * (a_up[i] + l / w_hi) * ctx.tail_cap(i);         // t2
        bound += r0 * c0 * (l * (l + 1.0) / 2.0 + a_up[i] * w_lo * l);  // t3
        bound += rd * ctx.tail_cap(i);                                // t4
    }
    return bound;
}

}  // namespace cong93
