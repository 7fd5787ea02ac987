#include "delay/rph.h"

namespace cong93 {

RphTerms rph_terms(const FlatTree& ft, const Technology& tech)
{
    const double rd = tech.driver_resistance_ohm;
    const double r0 = tech.r_grid();
    const double c0 = tech.c_grid();
    const Length* el = ft.edge_length().data();
    const Length* pl = ft.path_length().data();
    const double* sink_cap = ft.sink_cap().data();

    // Integer geometric sums are exact, so t1/t3 match the reference's
    // metrics helpers bit for bit; the sink sums accumulate in sinks() order.
    // The QMST sum is 128-bit: a net validate_net admits can exceed int64
    // there (see rtree/metrics.h), and t3 must not wrap negative.
    Length length_sum = 0;
    __int128 qmst_sum = 0;
    for (std::size_t i = 1; i < ft.size(); ++i) {
        const __int128 l = el[i];
        const __int128 a = pl[i] - el[i];
        length_sum += el[i];
        qmst_sum += l * a + l * (l + 1) / 2;
    }

    RphTerms t;
    t.t1 = rd * c0 * static_cast<double>(length_sum);
    t.t3 = r0 * c0 * static_cast<double>(qmst_sum);
    for (const std::int32_t k : ft.sinks()) {
        const double ck = sink_cap[k] >= 0.0 ? sink_cap[k] : tech.sink_load_f;
        t.t2 += r0 * static_cast<double>(pl[k]) * ck;
        t.t4 += rd * ck;
    }
    return t;
}

}  // namespace cong93
