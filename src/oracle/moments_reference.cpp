// Seed per-call-allocating moment computation, preserved as the equivalence
// oracle and speedup baseline for the scratch-reusing kernel in
// sim/moments.cpp.  Built only into the cong_oracles target
// (CONG93_BUILD_ORACLES=ON).
#include "oracle/sim_reference.h"

#include <stdexcept>

namespace cong93 {

std::vector<std::vector<double>> compute_moments_reference(const RcTree& rc,
                                                           int order)
{
    if (order < 1) throw std::invalid_argument("compute_moments: order >= 1");
    const std::size_t n = rc.size();
    std::vector<std::vector<double>> m(static_cast<std::size_t>(order),
                                       std::vector<double>(n, 0.0));
    std::vector<double> prev(n, 1.0);      // m_{q-1} (m_0 = 1 everywhere)
    std::vector<double> subtree(n);        // Σ_subtree C_k * m_{q-1}
    std::vector<double> subtree_pp(n, 0.0);  // Σ_subtree C_k * m_{q-2}

    for (int q = 0; q < order; ++q) {
        // Subtree "current" sums; children follow parents in index order.
        for (std::size_t i = 0; i < n; ++i) subtree[i] = rc.node(i).c_f * prev[i];
        for (std::size_t i = n; i-- > 1;)
            subtree[static_cast<std::size_t>(rc.node(i).parent)] += subtree[i];
        // Top-down: the branch drop is (R + sL) * I, i.e. at order q the R
        // term couples to m_{q-1} currents and the L term to m_{q-2}.
        auto& cur = m[static_cast<std::size_t>(q)];
        cur[0] = -rc.node(0).r_ohm * subtree[0] - rc.node(0).l_h * subtree_pp[0];
        for (std::size_t i = 1; i < n; ++i)
            cur[i] = cur[static_cast<std::size_t>(rc.node(i).parent)] -
                     rc.node(i).r_ohm * subtree[i] - rc.node(i).l_h * subtree_pp[i];
        subtree_pp = subtree;
        prev = cur;
    }
    return m;
}

}  // namespace cong93
