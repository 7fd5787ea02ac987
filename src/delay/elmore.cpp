#include "delay/elmore.h"

namespace cong93 {

namespace {

/// Subtree capacitances over the preorder arrays, children accumulated in
/// original order via the CSR adjacency so the sums match the pointer-walk
/// oracle bit for bit.  Fills cap[0..n).
void subtree_caps(const FlatTree& ft, const Technology& tech, double* cap)
{
    const Length* el = ft.edge_length().data();
    const std::uint8_t* is_sink = ft.is_sink().data();
    const double* sink_cap = ft.sink_cap().data();
    const std::int32_t* child_ptr = ft.child_ptr().data();
    const std::int32_t* child_idx = ft.child_idx().data();
    const double c_unit = tech.c_grid();
    for (std::size_t i = ft.size(); i-- > 0;) {
        double c = c_unit * static_cast<double>(el[i]);
        if (is_sink[i]) c += sink_cap[i] >= 0.0 ? sink_cap[i] : tech.sink_load_f;
        for (std::int32_t k = child_ptr[i]; k < child_ptr[i + 1]; ++k)
            c += cap[static_cast<std::size_t>(child_idx[k])];
        cap[i] = c;
    }
}

/// Elmore delay at flat node `id`: driver term plus the shared-resistance
/// contribution of every edge on its root path.
double root_path_delay(const FlatTree& ft, const Technology& tech,
                       const double* cap, std::int32_t id)
{
    const std::int32_t* parent = ft.parent().data();
    const Length* el = ft.edge_length().data();
    const double r_unit = tech.r_grid();
    const double c_unit = tech.c_grid();
    double t = tech.driver_resistance_ohm * (ft.empty() ? 0.0 : cap[0]);
    for (; id != 0; id = parent[id]) {
        const double re = r_unit * static_cast<double>(el[id]);
        const double ce = c_unit * static_cast<double>(el[id]);
        t += re * (cap[static_cast<std::size_t>(id)] - 0.5 * ce);
    }
    return t;
}

}  // namespace

std::vector<double> elmore_all_sinks(const FlatTree& ft, const Technology& tech)
{
    std::vector<double> cap, out;
    elmore_all_sinks(ft, tech, cap, out);
    return out;
}

void elmore_all_sinks(const FlatTree& ft, const Technology& tech,
                      std::vector<double>& cap_scratch, std::vector<double>& out)
{
    cap_scratch.resize(ft.size());
    out.resize(ft.sinks().size());
    subtree_caps(ft, tech, cap_scratch.data());
    for (std::size_t j = 0; j < out.size(); ++j)
        out[j] = root_path_delay(ft, tech, cap_scratch.data(), ft.sinks()[j]);
}

}  // namespace cong93
