#include "wiresize/grewsa.h"

#include <stdexcept>

#include "wiresize/incremental.h"

namespace cong93 {

GrewsaResult grewsa(const WiresizeContext& ctx, Assignment initial)
{
    if (initial.size() != ctx.segment_count())
        throw std::invalid_argument("grewsa: bad initial assignment size");

    IncrementalDelayEngine eng(ctx, std::move(initial));
    GrewsaResult res;
    grewsa_sweeps(eng, res);
    res.assignment = eng.assignment();
    // Fresh evaluation rather than the engine's delta-accumulated cache, so
    // the reported delay is bit-identical to the reference implementation.
    res.delay = ctx.delay(res.assignment);
    return res;
}

void grewsa_sweeps(IncrementalDelayEngine& eng, GrewsaResult& res)
{
    const WiresizeContext& ctx = eng.context();
    const int r = ctx.width_count();

    // From a dominated (dominating) start each width moves monotonically, so
    // at most n*(r-1) refinements occur; the sweep cap is a generous backstop
    // for arbitrary starts.
    const int max_sweeps = static_cast<int>(ctx.segment_count()) * r + 8;
    res.sweeps = 0;
    res.refinements = 0;
    bool changed = true;
    while (changed && res.sweeps < max_sweeps) {
        changed = false;
        ++res.sweeps;
        // Parents precede children in segment index order, matching the
        // paper's top-down Greedy_Improvement traversal.
        for (std::size_t i = 0; i < ctx.segment_count(); ++i) {
            if (eng.refine(i, r - 1)) {
                ++res.refinements;
                changed = true;
            }
        }
    }
}

GrewsaResult grewsa_from_min(const WiresizeContext& ctx)
{
    return grewsa(ctx, min_assignment(ctx.segment_count()));
}

GrewsaResult grewsa_from_max(const WiresizeContext& ctx)
{
    return grewsa(ctx, max_assignment(ctx.segment_count(), ctx.width_count()));
}

}  // namespace cong93
