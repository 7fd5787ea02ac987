// Backward-Euler transient simulation of RC and RLC trees -- the
// repository's SPICE
// substitute (the paper validated its two-pole simulator against SPICE; we
// validate ours against this).
//
// Each timestep solves (G + C/dt) v = (C/dt) v_prev + b with an exact
// O(n) tree-structured LU factorization (children eliminated into parents),
// factored once per dt.  Series branch inductors use the backward-Euler
// companion model (effective resistance L/dt plus a history current
// source), so RLC trees need no extra matrix structure.  Backward Euler is
// unconditionally stable, so dt can be chosen from the Elmore scale.
#ifndef CONG93_SIM_TRANSIENT_H
#define CONG93_SIM_TRANSIENT_H

#include "sim/rc_tree.h"

namespace cong93 {

class TransientSim {
public:
    TransientSim(const RcTree& rc, double dt);

    double dt() const { return dt_; }
    double time() const { return time_; }
    double voltage(std::size_t node) const { return v_[node]; }
    const std::vector<double>& voltages() const { return v_; }

    /// Advances one timestep with the given input (driver) voltage.
    void step(double vin);

private:
    const RcTree* rc_;
    double dt_;
    double time_ = 0.0;
    std::vector<double> g_;         ///< effective branch conductance per node
    std::vector<double> eff_diag_;  ///< eliminated diagonal (constant per dt)
    std::vector<double> v_;
    std::vector<double> i_branch_;  ///< inductor branch currents (RLC mode)
    std::vector<double> rhs_;
};

/// Waveform sample of one node.
struct Waveform {
    std::vector<double> time;
    std::vector<double> value;
};

/// Unit-step response delays at every sink (RcTree::sink_nodes() order),
/// measured at `threshold` with linear interpolation.  dt defaults to 1/500
/// of the largest sink Elmore delay.  Throws std::invalid_argument unless
/// threshold is in (0, 1).
std::vector<double> transient_sink_delays(const RcTree& rc, double threshold = 0.5,
                                          double dt = 0.0);

/// Ramp-input response delays at every sink (RcTree::sink_nodes() order):
/// the driver input rises linearly 0 -> 1 over `t_rise` seconds, and the
/// delay is the first time each sink crosses `threshold` (measured from
/// t = 0).  Throws std::invalid_argument unless threshold is in (0, 1).
std::vector<double> transient_ramp_delays(const RcTree& rc, double t_rise,
                                          double threshold = 0.5, double dt = 0.0);

/// Unit-step waveforms at the given RC nodes (e.g. rc.sink_nodes()),
/// simulated until every node exceeds `until_level`.
std::vector<Waveform> transient_waveforms(const RcTree& rc,
                                          const std::vector<int>& nodes,
                                          double until_level = 0.95,
                                          double dt = 0.0);

}  // namespace cong93

#endif  // CONG93_SIM_TRANSIENT_H
