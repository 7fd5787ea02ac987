#include "wiresize/delay_eval.h"

#include <stdexcept>

namespace cong93 {

WiresizeContext::WiresizeContext(const FlatTree& ft, const Technology& tech,
                                 WidthSet widths)
    : widths_(std::move(widths))
{
    compile(ft, tech);
}

void WiresizeContext::reset(const FlatTree& ft, const Technology& tech,
                            const WidthSet& widths)
{
    widths_ = widths;
    compile(ft, tech);
}

void WiresizeContext::compile(const FlatTree& ft, const Technology& tech)
{
    ft_ = &ft;
    tech_ = &tech;
    // Every segment ends at a distinct non-root node, and the DFS stack
    // never holds more entries than there are nodes: one reservation per
    // array covers the net (a no-op once a reused context has seen a net
    // this large).
    const std::size_t cap = ft.empty() ? 0 : ft.size() - 1;
    const auto fresh = [cap](auto& v) {
        v.clear();
        v.reserve(cap);
    };
    fresh(seg_parent_);
    fresh(seg_length_);
    fresh(seg_tail_flat_);
    fresh(tail_is_sink_);
    fresh(tail_cap_);
    fresh(seg_roots_);
    fresh(stack_);

    // Extract the segment tree straight from the compiled IR, in the
    // reference decomposition's stack-DFS order (oracle/segments_reference.h:
    // children pushed in order and popped LIFO), so segment indices, parent
    // links and child order match it bit for bit.
    const std::int32_t* cp = ft.child_ptr().data();
    const std::int32_t* ci = ft.child_idx().data();
    const Length* pl = ft.path_length().data();
    const std::uint8_t* sk = ft.is_sink().data();
    const double* sc = ft.sink_cap().data();

    if (!ft.empty())
        for (std::int32_t k = cp[0]; k < cp[1]; ++k)
            stack_.push_back({0, ci[k], kNoSegment});

    while (!stack_.empty()) {
        const Pending it = stack_.back();
        stack_.pop_back();

        std::int32_t cur = it.first;
        while (!is_nontrivial(ft, cur))
            cur = ci[cp[cur]];  // extend through the single trivial child

        const Length len = pl[static_cast<std::size_t>(cur)] -
                           pl[static_cast<std::size_t>(it.start)];
        if (len <= 0)
            throw std::logic_error(
                "WiresizeContext: non-positive segment in the FlatTree compile");

        const auto idx = static_cast<std::int32_t>(seg_parent_.size());
        seg_parent_.push_back(it.parent_seg);
        seg_length_.push_back(static_cast<double>(len));
        seg_tail_flat_.push_back(cur);
        const bool sink = sk[static_cast<std::size_t>(cur)] != 0;
        tail_is_sink_.push_back(sink ? 1 : 0);
        tail_cap_.push_back(
            sink ? (sc[static_cast<std::size_t>(cur)] >= 0.0
                        ? sc[static_cast<std::size_t>(cur)]
                        : tech.sink_load_f)
                 : 0.0);
        if (it.parent_seg == kNoSegment) seg_roots_.push_back(idx);

        for (std::int32_t k = cp[cur]; k < cp[cur + 1]; ++k)
            stack_.push_back({cur, ci[k], idx});
    }

    const std::size_t n = seg_parent_.size();
    // CSR child adjacency.  Counting by ascending segment index preserves
    // the decomposition's child order (children are appended in creation
    // order, which is ascending-index).
    seg_child_ptr_.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i)
        if (seg_parent_[i] != kNoSegment)
            ++seg_child_ptr_[static_cast<std::size_t>(seg_parent_[i]) + 1];
    for (std::size_t i = 1; i <= n; ++i) seg_child_ptr_[i] += seg_child_ptr_[i - 1];
    seg_child_idx_.resize(n - seg_roots_.size());
    std::vector<std::int32_t>& cursor = walk_scratch_;
    cursor.assign(seg_child_ptr_.begin(), seg_child_ptr_.end());
    for (std::size_t c = 0; c < n; ++c)
        if (seg_parent_[c] != kNoSegment)
            seg_child_idx_[static_cast<std::size_t>(
                cursor[static_cast<std::size_t>(seg_parent_[c])]++)] =
                static_cast<std::int32_t>(c);

    // Loading capacitance at or below each segment: reverse accumulation
    // with children visited in CSR (== child list) order.
    down_cap_.assign(n, 0.0);
    for (std::size_t i = n; i-- > 0;) {
        double c = tail_cap_[i];
        for (std::int32_t k = seg_child_ptr_[i]; k < seg_child_ptr_[i + 1]; ++k)
            c += down_cap_[static_cast<std::size_t>(seg_child_idx_[static_cast<std::size_t>(k)])];
        down_cap_[i] = c;
    }
    rin_scratch_.resize(n);
}

std::size_t WiresizeContext::capacity_bytes() const
{
    const std::size_t doubles = widths_.values().capacity() + tail_cap_.capacity() +
                                down_cap_.capacity() + seg_length_.capacity() +
                                rin_scratch_.capacity();
    const std::size_t ints = seg_parent_.capacity() + seg_child_ptr_.capacity() +
                             seg_child_idx_.capacity() + seg_roots_.capacity() +
                             seg_tail_flat_.capacity() + walk_scratch_.capacity();
    return doubles * sizeof(double) + ints * sizeof(std::int32_t) +
           tail_is_sink_.capacity() * sizeof(std::uint8_t) +
           stack_.capacity() * sizeof(Pending);
}

void WiresizeContext::upstream_resistance(const Assignment& a) const
{
    const double r0 = tech_->r_grid();
    const double rd = tech_->driver_resistance_ohm;
    double* rin = rin_scratch_.data();
    for (std::size_t i = 0; i < seg_parent_.size(); ++i) {
        const std::int32_t p = seg_parent_[i];
        rin[i] = p == kNoSegment
                     ? rd
                     : rin[static_cast<std::size_t>(p)] +
                           r0 * seg_length_[static_cast<std::size_t>(p)] /
                               widths_[a[static_cast<std::size_t>(p)]];
    }
}

double WiresizeContext::delay(const Assignment& a) const
{
    if (a.size() != segment_count())
        throw std::invalid_argument("WiresizeContext::delay: bad assignment size");
    const double r0 = tech_->r_grid();
    const double c0 = tech_->c_grid();
    upstream_resistance(a);
    const double* rin = rin_scratch_.data();

    double total = 0.0;
    for (std::size_t i = 0; i < segment_count(); ++i) {
        const double l = seg_length_[i];
        const double w = widths_[a[i]];
        total += rin[i] * c0 * w * l + r0 * c0 * l * (l + 1.0) / 2.0;
        total += (rin[i] + r0 * l / w) * tail_cap_[i];
    }
    return total;
}

WiresizeContext::Terms WiresizeContext::terms(const Assignment& a) const
{
    const double rd = tech_->driver_resistance_ohm;
    const double r0 = tech_->r_grid();
    const double c0 = tech_->c_grid();
    upstream_resistance(a);
    const double* rin = rin_scratch_.data();

    Terms t;
    for (std::size_t i = 0; i < segment_count(); ++i) {
        const double l = seg_length_[i];
        const double w = widths_[a[i]];
        t.t1 += rd * c0 * w * l;
        // Upstream *wire* resistance seen by this segment's start.
        const double a_up = (rin[i] - rd) / r0;  // Σ l_a / w_a over ancestors
        t.t2 += (a_up * r0 + r0 * l / w) * tail_cap_[i];
        t.t3 += r0 * c0 * l * (l + 1.0) / 2.0 + r0 * a_up * c0 * w * l;
        t.t4 += rd * tail_cap_[i];
    }
    return t;
}

double WiresizeContext::delay_bruteforce(const Assignment& a) const
{
    const double r0 = tech_->r_grid();
    const double c0 = tech_->c_grid();
    upstream_resistance(a);
    const double* rin = rin_scratch_.data();

    double total = 0.0;
    for (std::size_t i = 0; i < segment_count(); ++i) {
        const auto l = static_cast<Length>(seg_length_[i]);
        const double w = widths_[a[i]];
        for (Length j = 1; j <= l; ++j) {
            const double r = rin[i] + r0 * static_cast<double>(j) / w;
            total += r * c0 * w;
        }
        total += (rin[i] + r0 * static_cast<double>(l) / w) * tail_cap_[i];
    }
    return total;
}

WiresizeContext::ThetaPhi WiresizeContext::theta_phi(const Assignment& a,
                                                     std::size_t i) const
{
    ThetaPhi tp = theta_phi_fast(a, i);
    const double w = widths_[a[i]];
    tp.psi = delay(a) - tp.theta * w - tp.phi / w;
    return tp;
}

WiresizeContext::ThetaPhi WiresizeContext::theta_phi_fast(const Assignment& a,
                                                          std::size_t i) const
{
    const double rd = tech_->driver_resistance_ohm;
    const double r0 = tech_->r_grid();
    const double c0 = tech_->c_grid();

    // A_i = Σ_{ancestors} l_a / w_a, via the dense parent array.
    double a_up = 0.0;
    for (std::int32_t p = seg_parent_[i]; p != kNoSegment;
         p = seg_parent_[static_cast<std::size_t>(p)]) {
        a_up += seg_length_[static_cast<std::size_t>(p)] /
                widths_[a[static_cast<std::size_t>(p)]];
    }

    // Σ_{strict descendants} w_d * l_d, via one CSR subtree walk in the
    // same (right-to-left DFS) order as the reference's stack walk.
    double wire_below = 0.0;
    const std::int32_t* cp = seg_child_ptr_.data();
    const std::int32_t* ci = seg_child_idx_.data();
    walk_scratch_.clear();
    for (std::int32_t k = cp[i]; k < cp[i + 1]; ++k) walk_scratch_.push_back(ci[k]);
    while (!walk_scratch_.empty()) {
        const std::int32_t d = walk_scratch_.back();
        walk_scratch_.pop_back();
        wire_below += widths_[a[static_cast<std::size_t>(d)]] *
                      seg_length_[static_cast<std::size_t>(d)];
        for (std::int32_t k = cp[d]; k < cp[d + 1]; ++k)
            walk_scratch_.push_back(ci[k]);
    }

    ThetaPhi tp;
    const double l = seg_length_[i];
    tp.theta = c0 * l * (rd + r0 * a_up);
    tp.phi = r0 * l * (down_cap_[i] + c0 * wire_below);
    return tp;
}

int WiresizeContext::locally_optimal_width(const Assignment& a, std::size_t i,
                                           int max_idx) const
{
    const ThetaPhi tp = theta_phi_fast(a, i);
    int best = 0;
    double best_val = tp.theta * widths_[0] + tp.phi / widths_[0];
    for (int k = 1; k <= max_idx; ++k) {
        const double v = tp.theta * widths_[k] + tp.phi / widths_[k];
        if (v < best_val) {
            best = k;
            best_val = v;
        }
    }
    return best;
}

}  // namespace cong93
