#include "delay/rph.h"

namespace cong93 {

RphTerms rph_terms(const RoutingTree& tree, const Technology& tech)
{
    return rph_terms(FlatTree(tree), tech);
}

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
    Length length_sum = 0;
    Length qmst_sum = 0;
    for (std::size_t i = 1; i < ft.size(); ++i) {
        const Length l = el[i];
        const Length a = pl[i] - l;
        length_sum += l;
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

double rph_delay(const RoutingTree& tree, const Technology& tech)
{
    return rph_terms(tree, tech).total();
}

double rph_delay_bruteforce(const RoutingTree& tree, const Technology& tech)
{
    const double rd = tech.driver_resistance_ohm;
    const double r0 = tech.r_grid();
    const double c0 = tech.c_grid();

    double total = 0.0;
    // Wire capacitance at every grid node (one per unit of every edge).
    tree.for_each_edge([&](NodeId id) {
        const Length l = tree.edge_length(id);
        const Length a = tree.path_length(id) - l;
        for (Length j = 1; j <= l; ++j)
            total += (rd + r0 * static_cast<double>(a + j)) * c0;
    });
    // Loading capacitance at sinks.
    for (const NodeId s : tree.sinks()) {
        const double ck =
            tree.node(s).sink_cap_f >= 0.0 ? tree.node(s).sink_cap_f : tech.sink_load_f;
        total += (rd + r0 * static_cast<double>(tree.path_length(s))) * ck;
    }
    return total;
}

}  // namespace cong93
