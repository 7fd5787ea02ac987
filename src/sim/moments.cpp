#include "sim/moments.h"

#include <stdexcept>
#include <utility>

namespace cong93 {

std::vector<std::vector<double>> compute_moments(const RcTree& rc, int order)
{
    MomentWorkspace ws;
    compute_moments(rc, order, ws);
    ws.m.resize(static_cast<std::size_t>(order));
    return std::move(ws.m);
}

const std::vector<std::vector<double>>& compute_moments(const RcTree& rc, int order,
                                                        MomentWorkspace& ws)
{
    if (order < 1) throw std::invalid_argument("compute_moments: order >= 1");
    const std::size_t n = rc.size();

    ++ws.evals;
    if (n > ws.subtree.capacity() ||
        static_cast<std::size_t>(order) > ws.m.capacity())
        ++ws.growths;
    ws.subtree.resize(n);
    if (ws.m.size() < static_cast<std::size_t>(order))
        ws.m.resize(static_cast<std::size_t>(order));
    for (int q = 0; q < order; ++q) ws.m[static_cast<std::size_t>(q)].resize(n);

    const std::int32_t* parent = rc.parent_data();
    const double* r = rc.r_data();
    const double* c = rc.c_data();
    // The m_{q-2} currents start at zero and only matter when inductance
    // couples them in; pure-RC calls never touch that buffer.
    const bool rlc = rc.has_inductance();
    if (rlc) ws.subtree_pp.assign(n, 0.0);

    for (int q = 0; q < order; ++q) {
        // Subtree "current" sums Σ_subtree C_k * m_{q-1}(k); m_0 = 1
        // everywhere, so the q == 0 currents are the raw C_k.  Children
        // follow parents in index order.
        double* sub = ws.subtree.data();
        if (q == 0) {
            for (std::size_t i = 0; i < n; ++i) sub[i] = c[i];
        } else {
            const double* prev = ws.m[static_cast<std::size_t>(q - 1)].data();
            for (std::size_t i = 0; i < n; ++i) sub[i] = c[i] * prev[i];
        }
        for (std::size_t i = n; i-- > 1;)
            sub[static_cast<std::size_t>(parent[i])] += sub[i];

        // Top-down: the branch drop is (R + sL) * I, i.e. at order q the R
        // term couples to m_{q-1} currents and the L term to m_{q-2}.
        double* cur = ws.m[static_cast<std::size_t>(q)].data();
        if (rlc) {
            const double* lh = rc.l_data();
            const double* spp = ws.subtree_pp.data();
            cur[0] = -r[0] * sub[0] - lh[0] * spp[0];
            for (std::size_t i = 1; i < n; ++i)
                cur[i] = cur[static_cast<std::size_t>(parent[i])] -
                         r[i] * sub[i] - lh[i] * spp[i];
            // This order's currents are next order's m_{q-2} currents;
            // swapping avoids the reference's full-vector copy.
            std::swap(ws.subtree, ws.subtree_pp);
        } else {
            // Pure RC: the seed kernel's lh terms are all +0.0*spp, a bitwise
            // no-op on these alternating-sign moment rows; skip them.
            cur[0] = -r[0] * sub[0];
            for (std::size_t i = 1; i < n; ++i)
                cur[i] = cur[static_cast<std::size_t>(parent[i])] - r[i] * sub[i];
        }
    }
    return ws.m;
}

std::vector<double> rc_elmore_delays(const RcTree& rc)
{
    const auto m = compute_moments(rc, 1);
    std::vector<double> out(rc.size());
    for (std::size_t i = 0; i < rc.size(); ++i) out[i] = -m[0][i];
    return out;
}

}  // namespace cong93
