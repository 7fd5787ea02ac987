// Seed pointer-walk WiresizeContext evaluation paths, preserved as the
// equivalence oracles for the flat kernels in wiresize/delay_eval.cpp.
// They walk the SegmentDecomposition passed in, which must decompose the
// tree the context was compiled from.  Built only into the cong_oracles
// target (CONG93_BUILD_ORACLES=ON).
#include "oracle/segments_reference.h"

#include <stdexcept>

namespace cong93 {

namespace {

/// Accumulated upstream resistances R_in per segment (Rd at the stems).
/// Seed pointer-walk version, kept for the *_reference twins.
std::vector<double> upstream_resistance_reference(const SegmentDecomposition& segs,
                                                  const Technology& tech,
                                                  const WidthSet& ws,
                                                  const Assignment& a)
{
    std::vector<double> rin(segs.count(), 0.0);
    const double r0 = tech.r_grid();
    for (std::size_t i = 0; i < segs.count(); ++i) {
        const WireSegment& s = segs[i];
        const double above = s.parent == kNoSegment
                                 ? tech.driver_resistance_ohm
                                 : rin[static_cast<std::size_t>(s.parent)] +
                                       r0 *
                                           static_cast<double>(
                                               segs[static_cast<std::size_t>(s.parent)].length) /
                                           ws[a[static_cast<std::size_t>(s.parent)]];
        rin[i] = above;
    }
    return rin;
}

}  // namespace

double delay_reference(const WiresizeContext& ctx, const SegmentDecomposition& segs,
                       const Assignment& a)
{
    if (a.size() != ctx.segment_count())
        throw std::invalid_argument("WiresizeContext::delay: bad assignment size");
    const double r0 = ctx.tech().r_grid();
    const double c0 = ctx.tech().c_grid();
    const std::vector<double> rin =
        upstream_resistance_reference(segs, ctx.tech(), ctx.widths(), a);

    double total = 0.0;
    for (std::size_t i = 0; i < ctx.segment_count(); ++i) {
        const double l = static_cast<double>(segs[i].length);
        const double w = ctx.widths()[a[i]];
        total += rin[i] * c0 * w * l + r0 * c0 * l * (l + 1.0) / 2.0;
        total += (rin[i] + r0 * l / w) * ctx.tail_cap(i);
    }
    return total;
}

WiresizeContext::Terms terms_reference(const WiresizeContext& ctx,
                                       const SegmentDecomposition& segs,
                                       const Assignment& a)
{
    const double rd = ctx.tech().driver_resistance_ohm;
    const double r0 = ctx.tech().r_grid();
    const double c0 = ctx.tech().c_grid();
    const std::vector<double> rin =
        upstream_resistance_reference(segs, ctx.tech(), ctx.widths(), a);

    WiresizeContext::Terms t;
    for (std::size_t i = 0; i < ctx.segment_count(); ++i) {
        const double l = static_cast<double>(segs[i].length);
        const double w = ctx.widths()[a[i]];
        t.t1 += rd * c0 * w * l;
        // Upstream *wire* resistance seen by this segment's start.
        const double a_up = (rin[i] - rd) / r0;  // Σ l_a / w_a over ancestors
        t.t2 += (a_up * r0 + r0 * l / w) * ctx.tail_cap(i);
        t.t3 += r0 * c0 * l * (l + 1.0) / 2.0 + r0 * a_up * c0 * w * l;
        t.t4 += rd * ctx.tail_cap(i);
    }
    return t;
}

WiresizeContext::ThetaPhi theta_phi_fast_reference(const WiresizeContext& ctx,
                                                   const SegmentDecomposition& segs,
                                                   const Assignment& a, std::size_t i)
{
    const double rd = ctx.tech().driver_resistance_ohm;
    const double r0 = ctx.tech().r_grid();
    const double c0 = ctx.tech().c_grid();

    // A_i = Σ_{ancestors} l_a / w_a.
    double a_up = 0.0;
    for (int p = segs[i].parent; p != kNoSegment;
         p = segs[static_cast<std::size_t>(p)].parent) {
        a_up += static_cast<double>(segs[static_cast<std::size_t>(p)].length) /
                ctx.widths()[a[static_cast<std::size_t>(p)]];
    }

    // Σ_{strict descendants} w_d * l_d, via one subtree walk.
    double wire_below = 0.0;
    std::vector<int> stack(segs[i].children.begin(), segs[i].children.end());
    while (!stack.empty()) {
        const int d = stack.back();
        stack.pop_back();
        wire_below += ctx.widths()[a[static_cast<std::size_t>(d)]] *
                      static_cast<double>(segs[static_cast<std::size_t>(d)].length);
        for (const int c : segs[static_cast<std::size_t>(d)].children)
            stack.push_back(c);
    }

    WiresizeContext::ThetaPhi tp;
    const double l = static_cast<double>(segs[i].length);
    tp.theta = c0 * l * (rd + r0 * a_up);
    tp.phi = r0 * l * (ctx.downstream_sink_cap(i) + c0 * wire_below);
    return tp;
}

}  // namespace cong93
