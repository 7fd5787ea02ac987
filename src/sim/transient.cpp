#include "sim/transient.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/moments.h"

namespace cong93 {

TransientSim::TransientSim(const RcTree& rc, double dt) : rc_(&rc), dt_(dt)
{
    if (dt <= 0.0) throw std::invalid_argument("TransientSim: dt must be positive");
    const std::size_t n = rc.size();
    // Series RL branches use the backward-Euler companion model: effective
    // resistance r + L/dt plus a history current source g*(L/dt)*i_prev.
    g_.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        g_[i] = 1.0 / (rc.node(i).r_ohm + rc.node(i).l_h / dt_);

    // Diagonal of (G + C/dt), then eliminate children into parents once.
    eff_diag_.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) eff_diag_[i] = rc.node(i).c_f / dt_ + g_[i];
    for (std::size_t i = n; i-- > 1;)
        eff_diag_[static_cast<std::size_t>(rc.node(i).parent)] += g_[i];
    for (std::size_t i = n; i-- > 1;)
        eff_diag_[static_cast<std::size_t>(rc.node(i).parent)] -=
            g_[i] * g_[i] / eff_diag_[i];

    v_.assign(n, 0.0);
    i_branch_.assign(n, 0.0);
    rhs_.assign(n, 0.0);
}

void TransientSim::step(double vin)
{
    const std::size_t n = rc_->size();
    for (std::size_t i = 0; i < n; ++i)
        rhs_[i] = rc_->node(i).c_f / dt_ * v_[i];
    rhs_[0] += g_[0] * vin;
    // Inductor history sources (skipped entirely for pure-RC trees).
    for (std::size_t i = 0; i < n; ++i) {
        const double lh = rc_->node(i).l_h;
        if (lh <= 0.0) continue;
        const double j = g_[i] * (lh / dt_) * i_branch_[i];
        rhs_[i] += j;
        if (i > 0) rhs_[static_cast<std::size_t>(rc_->node(i).parent)] -= j;
    }

    // Forward elimination (children into parents), then back substitution.
    for (std::size_t i = n; i-- > 1;)
        rhs_[static_cast<std::size_t>(rc_->node(i).parent)] +=
            g_[i] * rhs_[i] / eff_diag_[i];
    v_[0] = rhs_[0] / eff_diag_[0];
    for (std::size_t i = 1; i < n; ++i)
        v_[i] = (rhs_[i] + g_[i] * v_[static_cast<std::size_t>(rc_->node(i).parent)]) /
                eff_diag_[i];

    // Branch current update for the inductor history.
    for (std::size_t i = 0; i < n; ++i) {
        const double lh = rc_->node(i).l_h;
        if (lh <= 0.0) continue;
        const double v_par = i == 0 ? vin : v_[static_cast<std::size_t>(rc_->node(i).parent)];
        i_branch_[i] = g_[i] * (v_par - v_[i] + (lh / dt_) * i_branch_[i]);
    }
    time_ += dt_;
}

namespace {

/// The two-pole simulator's contract: a crossing level strictly inside
/// (0, 1).  Outside it a sink would latch a negative delay on the first
/// step, or never cross at all.
void check_threshold(double threshold, const char* who)
{
    if (!(threshold > 0.0 && threshold < 1.0))
        throw std::invalid_argument(std::string(who) + ": threshold in (0,1)");
}

double default_dt(const RcTree& rc)
{
    const auto elm = rc_elmore_delays(rc);
    double t_max = 0.0;
    for (const int s : rc.sink_nodes())
        t_max = std::max(t_max, elm[static_cast<std::size_t>(s)]);
    if (t_max <= 0.0)
        t_max = *std::max_element(elm.begin(), elm.end());
    if (t_max <= 0.0) throw std::invalid_argument("transient: tree has no delay");
    return t_max / 500.0;
}

}  // namespace

std::vector<double> transient_sink_delays(const RcTree& rc, double threshold, double dt)
{
    check_threshold(threshold, "transient_sink_delays");
    if (dt <= 0.0) dt = default_dt(rc);
    TransientSim sim(rc, dt);
    const auto& sinks = rc.sink_nodes();
    std::vector<double> delays(sinks.size(), -1.0);
    std::vector<double> prev(sinks.size(), 0.0);
    std::size_t remaining = sinks.size();
    const double t_end = dt * 500.0 * 40.0;  // generous settle window
    while (remaining > 0 && sim.time() < t_end) {
        const double t0 = sim.time();
        sim.step(1.0);
        for (std::size_t i = 0; i < sinks.size(); ++i) {
            if (delays[i] >= 0.0) continue;
            const double cur = sim.voltage(static_cast<std::size_t>(sinks[i]));
            if (cur >= threshold) {
                // Linear interpolation inside the step.
                const double frac =
                    cur > prev[i] ? (threshold - prev[i]) / (cur - prev[i]) : 1.0;
                delays[i] = t0 + frac * dt;
                --remaining;
            }
            prev[i] = cur;
        }
    }
    for (double& d : delays)
        if (d < 0.0) d = t_end;  // did not settle (pathological input)
    return delays;
}

std::vector<double> transient_ramp_delays(const RcTree& rc, double t_rise,
                                          double threshold, double dt)
{
    if (t_rise < 0.0) throw std::invalid_argument("transient_ramp_delays: t_rise >= 0");
    check_threshold(threshold, "transient_ramp_delays");
    if (dt <= 0.0) dt = std::min(default_dt(rc), t_rise > 0.0 ? t_rise / 50.0 : default_dt(rc));
    TransientSim sim(rc, dt);
    const auto& sinks = rc.sink_nodes();
    std::vector<double> delays(sinks.size(), -1.0);
    std::vector<double> prev(sinks.size(), 0.0);
    std::size_t remaining = sinks.size();
    const double t_end = (default_dt(rc) * 500.0 * 40.0) + t_rise;
    while (remaining > 0 && sim.time() < t_end) {
        const double t0 = sim.time();
        const double t1 = t0 + dt;
        const double vin = t_rise > 0.0 ? std::min(1.0, t1 / t_rise) : 1.0;
        sim.step(vin);
        for (std::size_t i = 0; i < sinks.size(); ++i) {
            if (delays[i] >= 0.0) continue;
            const double cur = sim.voltage(static_cast<std::size_t>(sinks[i]));
            if (cur >= threshold) {
                const double frac =
                    cur > prev[i] ? (threshold - prev[i]) / (cur - prev[i]) : 1.0;
                delays[i] = t0 + frac * dt;
                --remaining;
            }
            prev[i] = cur;
        }
    }
    for (double& d : delays)
        if (d < 0.0) d = t_end;
    return delays;
}

std::vector<Waveform> transient_waveforms(const RcTree& rc, const std::vector<int>& nodes,
                                          double until_level, double dt)
{
    if (dt <= 0.0) dt = default_dt(rc);
    TransientSim sim(rc, dt);
    std::vector<Waveform> out(nodes.size());
    const double t_end = dt * 500.0 * 40.0;
    bool settled = false;
    while (!settled && sim.time() < t_end) {
        sim.step(1.0);
        settled = true;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            const double v = sim.voltage(static_cast<std::size_t>(nodes[i]));
            out[i].time.push_back(sim.time());
            out[i].value.push_back(v);
            settled = settled && v >= until_level;
        }
    }
    return out;
}

}  // namespace cong93
