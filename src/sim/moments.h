// Moments of the RC tree transfer functions H_i(s) = Σ_q m_q(i) s^q with
// m_0 = 1: the engine behind the two-pole simulator and the Elmore
// cross-checks (-m_1(i) is the Elmore delay at node i).
//
// Standard O(n)-per-order path tracing: with "currents" I_k = C_k*m_{q-1}(k)
// accumulated over subtrees, m_q(i) = m_q(parent) - R_i * Σ_{k in subtree(i)}
// I_k (the ideal source ahead of Rd has m_q = 0 for q >= 1).
//
// The kernel reads the RcTree's structure-of-arrays mirrors directly (built
// once at tree construction, see RcTree::parent_data) and keeps only the
// subtree-current buffers and moment rows in a caller-owned MomentWorkspace,
// so a batch of nets reuses its scratch instead of copying the tree and
// re-zeroing buffers per call.  Pure-RC trees skip the inductance terms and
// the m_{q-2} buffer outright -- a bitwise no-op, since the seed kernel's
// lh terms are all +0.0 there.  The per-order recursion reproduces the seed
// implementation (compute_moments_reference, oracle/sim_reference.h) bit for
// bit.
#ifndef CONG93_SIM_MOMENTS_H
#define CONG93_SIM_MOMENTS_H

#include <cstdint>

#include "sim/rc_tree.h"

namespace cong93 {

/// Reusable scratch for compute_moments; one per worker thread in a batch.
struct MomentWorkspace {
    std::vector<double> subtree;       ///< Σ_subtree C_k * m_{q-1}
    std::vector<double> subtree_pp;    ///< Σ_subtree C_k * m_{q-2} (RLC only)
    std::vector<std::vector<double>> m;  ///< moment rows, reused across calls

    std::uint64_t evals = 0;    ///< compute_moments calls through this scratch
    std::uint64_t growths = 0;  ///< calls that had to grow a buffer
};

/// moments[q-1][i] = m_q(i) for q = 1..order.
std::vector<std::vector<double>> compute_moments(const RcTree& rc, int order);

/// Scratch-reusing flat kernel; the result lives in ws.m (rows beyond
/// `order` from a previous larger call are left untouched).
const std::vector<std::vector<double>>& compute_moments(const RcTree& rc, int order,
                                                        MomentWorkspace& ws);

/// Elmore delay at each node (= -m_1).
std::vector<double> rc_elmore_delays(const RcTree& rc);

}  // namespace cong93

#endif  // CONG93_SIM_MOMENTS_H
