#include "wiresize/incremental.h"

#include <stdexcept>

namespace cong93 {

IncrementalDelayEngine::IncrementalDelayEngine(const WiresizeContext& ctx,
                                               Assignment initial)
    : ctx_(&ctx), a_(std::move(initial))
{
    if (a_.size() != ctx.segment_count())
        throw std::invalid_argument("IncrementalDelayEngine: bad assignment size");
    wire_below_.assign(a_.size(), 0.0);
    rebuild();
}

void IncrementalDelayEngine::reset(Assignment a)
{
    if (a.size() != ctx_->segment_count())
        throw std::invalid_argument("IncrementalDelayEngine::reset: bad size");
    a_ = std::move(a);
    rebuild();
}

void IncrementalDelayEngine::reset(const WiresizeContext& ctx, const Assignment& a)
{
    if (a.size() != ctx.segment_count())
        throw std::invalid_argument("IncrementalDelayEngine::reset: bad size");
    ctx_ = &ctx;
    a_ = a;
    wire_below_.resize(a_.size());
    rebuild();
}

std::size_t IncrementalDelayEngine::capacity_bytes() const
{
    return a_.capacity() * sizeof(int) + wire_below_.capacity() * sizeof(double);
}

void IncrementalDelayEngine::rebuild()
{
    const WidthSet& ws = ctx_->widths();
    const double* len = ctx_->seg_length().data();
    const std::int32_t* cp = ctx_->seg_child_ptr().data();
    const std::int32_t* ci = ctx_->seg_child_idx().data();
    // Children have larger indices than parents: accumulate bottom-up.
    for (std::size_t i = a_.size(); i-- > 0;) {
        double below = 0.0;
        for (std::int32_t k = cp[i]; k < cp[i + 1]; ++k) {
            const std::size_t c = static_cast<std::size_t>(ci[k]);
            below += ws[a_[c]] * len[c] + wire_below_[c];
        }
        wire_below_[i] = below;
    }
    delay_ = ctx_->delay(a_);
}

double IncrementalDelayEngine::upstream_length_over_width(std::size_t i) const
{
    const WidthSet& ws = ctx_->widths();
    const std::int32_t* parent = ctx_->seg_parent().data();
    const double* len = ctx_->seg_length().data();
    double a_up = 0.0;
    for (std::int32_t p = parent[i]; p != kNoSegment;
         p = parent[static_cast<std::size_t>(p)]) {
        a_up += len[static_cast<std::size_t>(p)] / ws[a_[static_cast<std::size_t>(p)]];
    }
    return a_up;
}

WiresizeContext::ThetaPhi IncrementalDelayEngine::theta_phi(std::size_t i) const
{
    const double rd = ctx_->tech().driver_resistance_ohm;
    const double r0 = ctx_->tech().r_grid();
    const double c0 = ctx_->tech().c_grid();
    const double l = ctx_->seg_length()[i];

    WiresizeContext::ThetaPhi tp;
    tp.theta = c0 * l * (rd + r0 * upstream_length_over_width(i));
    tp.phi = r0 * l * (ctx_->downstream_sink_cap(i) + c0 * wire_below_[i]);
    const double w = ctx_->widths()[a_[i]];
    tp.psi = delay_ - tp.theta * w - tp.phi / w;
    return tp;
}

void IncrementalDelayEngine::apply_width(std::size_t i, int k)
{
    const int old = a_[i];
    if (k == old) return;
    const WidthSet& ws = ctx_->widths();
    const double w_old = ws[old];
    const double w_new = ws[k];
    const double l = ctx_->seg_length()[i];

    // O(1) delay delta through the Theta/Phi decomposition at i.
    const double r0 = ctx_->tech().r_grid();
    const double c0 = ctx_->tech().c_grid();
    const double theta =
        c0 * l * (ctx_->tech().driver_resistance_ohm +
                  r0 * upstream_length_over_width(i));
    const double phi =
        r0 * l * (ctx_->downstream_sink_cap(i) + c0 * wire_below_[i]);
    delay_ += theta * (w_new - w_old) + phi * (1.0 / w_new - 1.0 / w_old);

    // Root-path propagation of the downstream weighted wire cap.
    const std::int32_t* parent = ctx_->seg_parent().data();
    const double d_wl = (w_new - w_old) * l;
    for (std::int32_t p = parent[i]; p != kNoSegment;
         p = parent[static_cast<std::size_t>(p)])
        wire_below_[static_cast<std::size_t>(p)] += d_wl;

    a_[i] = k;
}

int IncrementalDelayEngine::locally_optimal_width(std::size_t i, int max_idx) const
{
    const double rd = ctx_->tech().driver_resistance_ohm;
    const double r0 = ctx_->tech().r_grid();
    const double c0 = ctx_->tech().c_grid();
    const double l = ctx_->seg_length()[i];
    const double theta = c0 * l * (rd + r0 * upstream_length_over_width(i));
    const double phi =
        r0 * l * (ctx_->downstream_sink_cap(i) + c0 * wire_below_[i]);

    const WidthSet& ws = ctx_->widths();
    int best = 0;
    double best_val = theta * ws[0] + phi / ws[0];
    for (int k = 1; k <= max_idx; ++k) {
        const double v = theta * ws[k] + phi / ws[k];
        if (v < best_val) {
            best = k;
            best_val = v;
        }
    }
    return best;
}

bool IncrementalDelayEngine::refine(std::size_t i, int max_idx)
{
    const int k = locally_optimal_width(i, max_idx);
    if (k == a_[i]) return false;
    apply_width(i, k);
    return true;
}

std::int64_t IncrementalDelayEngine::sweep_to_fixpoint(
    const std::vector<std::size_t>& segments, int max_idx)
{
    // Same backstop shape as grewsa(): from a dominated (dominating) start
    // each listed width moves monotonically, so at most |segments| * r
    // refinements occur and the cap is never the terminator in practice.
    const int max_sweeps = static_cast<int>(segments.size()) * (max_idx + 1) + 8;
    std::int64_t refinements = 0;
    int sweeps = 0;
    bool changed = true;
    while (changed && sweeps < max_sweeps) {
        changed = false;
        ++sweeps;
        for (const std::size_t i : segments) {
            if (refine(i, max_idx)) {
                ++refinements;
                changed = true;
            }
        }
    }
    return refinements;
}

}  // namespace cong93
