#include "wiresize/owsa.h"

#include <limits>
#include <stdexcept>

namespace cong93 {

double OwsaSolver::run(const WiresizeContext& ctx, const Assignment& lower,
                       const Assignment& upper)
{
    const std::size_t n = ctx.segment_count();
    if (lower.size() != n || upper.size() != n)
        throw std::invalid_argument("owsa: bad bound sizes");
    ctx_ = &ctx;
    lower_ = &lower;
    upper_ = &upper;
    calls_ = 0;
    branching_calls_ = 0;
    saved_.clear();  // a run a width-window error ended left snapshots

    current_.assign(n, 0);
    size_.assign(n, 1);
    pinnable_.assign(n, true);
    a_min_.assign(n, 0.0);
    b_min_.assign(n, 0.0);
    const double r0 = ctx.tech().r_grid();
    const double c0 = ctx.tech().c_grid();
    const double w0 = ctx.widths()[0];
    const auto& cp = ctx.seg_child_ptr();
    // Children have larger indices than parents: accumulate bottom-up.
    for (std::size_t i = n; i-- > 0;) {
        pinnable_[i] = lower[i] == 0;
        // Delay contribution of T_SS(i) with every width pinned to W1 is
        // linear in the upstream resistance: D_i(R) = A_i + R*B_i with
        //   B_i = c0*w0*l + tail_cap + Sigma_child B_c   (downstream cap)
        //   A_i = r0*c0*l(l+1)/2 + (r0*l/w0)*(tail_cap + Sigma B_c)
        //         + Sigma_child A_c
        // so each pinned-min candidate is evaluated in O(1) instead of
        // re-walking the subtree (delta evaluation: consecutive
        // enumeration states differ only in one stem width).
        double b_child = 0.0, a_child = 0.0;
        for (std::int32_t k = cp[i]; k < cp[i + 1]; ++k) {
            const std::size_t ci =
                static_cast<std::size_t>(ctx.seg_child_idx()[static_cast<std::size_t>(k)]);
            size_[i] += size_[ci];
            pinnable_[i] = pinnable_[i] && pinnable_[ci];
            b_child += b_min_[ci];
            a_child += a_min_[ci];
        }
        const double l = ctx.seg_length()[i];
        const double tc = ctx.tail_cap(i);
        b_min_[i] = c0 * w0 * l + tc + b_child;
        a_min_[i] = r0 * c0 * l * (l + 1.0) / 2.0 +
                    (r0 * l / w0) * (tc + b_child) + a_child;
    }
    // T_SS(i) as one run of a preorder (children in seg_child order):
    // order_[first_[i] .. first_[i] + size_[i]).  Parents precede
    // children, so one forward pass places every child run.
    first_.assign(n, 0);
    order_.assign(n, 0);
    std::size_t next_root = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (ctx.seg_parent()[i] == kNoSegment) {
            first_[i] = next_root;
            next_root += size_[i];
        }
        order_[first_[i]] = static_cast<int>(i);
        std::size_t at = first_[i] + 1;
        for (std::int32_t k = cp[i]; k < cp[i + 1]; ++k) {
            const std::size_t ci =
                static_cast<std::size_t>(ctx.seg_child_idx()[static_cast<std::size_t>(k)]);
            first_[ci] = at;
            at += size_[ci];
        }
    }

    double total = 0.0;
    for (const std::int32_t root : ctx.seg_roots())
        total += solve(static_cast<std::size_t>(root), ctx.width_count() - 1,
                       ctx.tech().driver_resistance_ohm);
    return total;
}

std::size_t OwsaSolver::capacity_bytes() const
{
    return (current_.capacity() + order_.capacity() + saved_.capacity()) * sizeof(int) +
           (size_.capacity() + first_.capacity()) * sizeof(std::size_t) +
           (a_min_.capacity() + b_min_.capacity()) * sizeof(double) +
           pinnable_.capacity() / 8;
}

double OwsaSolver::contribution(std::size_t i, int k, double r_in) const
{
    const double r0 = ctx_->tech().r_grid();
    const double c0 = ctx_->tech().c_grid();
    const double l = ctx_->seg_length()[i];
    const double w = ctx_->widths()[k];
    return r_in * c0 * w * l + r0 * c0 * l * (l + 1.0) / 2.0 +
           (r_in + r0 * l / w) * ctx_->tail_cap(i);
}

double OwsaSolver::solve(std::size_t i, int kmax, double r_in)
{
    ++calls_;
    const int k_lo = (*lower_)[i];
    const int k_hi = std::min(kmax, (*upper_)[i]);
    if (k_lo > k_hi)
        throw std::logic_error("owsa: incompatible width windows");
    if (k_hi > k_lo) ++branching_calls_;

    // The best widths over T_SS(i) are snapshot into saved_[base ..
    // base + m); nested calls stack their snapshots above it and pop
    // them before returning (indices, not pointers: saved_ may grow).
    const int* sub = order_.data() + first_[i];
    const std::size_t m = size_[i];
    const std::size_t base = saved_.size();
    saved_.resize(base + m);
    double best = std::numeric_limits<double>::infinity();
    for (int k = k_lo; k <= k_hi; ++k) {
        current_[i] = k;
        double d;
        if (k == 0 && pinnable_[i]) {
            // The paper's Table 2 base case: stem at W1 forces the whole
            // subtree to the minimum width -- evaluate in closed form
            // instead of recursing (this is what makes N(n,2) = O(n)):
            // the cached linear form A_i + r_in * B_i, no call counted.
            d = a_min_[i] + r_in * b_min_[i];
            for (std::size_t j = 0; j < m; ++j)
                current_[static_cast<std::size_t>(sub[j])] = 0;
        } else {
            const double r_next =
                r_in + ctx_->tech().r_grid() * ctx_->seg_length()[i] /
                           ctx_->widths()[k];
            d = contribution(i, k, r_in);
            const auto& cp = ctx_->seg_child_ptr();
            for (std::int32_t ck = cp[i]; ck < cp[i + 1]; ++ck)
                d += solve(static_cast<std::size_t>(
                               ctx_->seg_child_idx()[static_cast<std::size_t>(ck)]),
                           k, r_next);
        }
        if (d < best) {
            best = d;
            for (std::size_t j = 0; j < m; ++j)
                saved_[base + j] = current_[static_cast<std::size_t>(sub[j])];
        }
    }
    // Restore the winning subtree assignment.
    for (std::size_t j = 0; j < m; ++j)
        current_[static_cast<std::size_t>(sub[j])] = saved_[base + j];
    saved_.resize(base);
    return best;
}

OwsaResult owsa(const WiresizeContext& ctx)
{
    const Assignment lower = min_assignment(ctx.segment_count());
    const Assignment upper = max_assignment(ctx.segment_count(), ctx.width_count());
    return owsa_bounded(ctx, lower, upper);
}

OwsaResult owsa_bounded(const WiresizeContext& ctx, const Assignment& lower,
                        const Assignment& upper)
{
    OwsaSolver solver;
    OwsaResult res;
    res.delay = solver.run(ctx, lower, upper);
    res.assignment = solver.assignment();
    res.calls = solver.calls();
    res.assignments_examined = solver.assignments_examined();
    return res;
}

}  // namespace cong93
