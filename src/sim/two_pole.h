// Two-pole moment-matching simulator, reconstructing the simulator of
// Zhou, Su, Tsui, Gao and Cong [18] that the paper uses for all reported
// delays ("comparable to SPICE ... but runs much faster").
//
// At a node with transfer moments m1, m2 the response is approximated by
// H(s) ~= 1/(1 + b1 s + b2 s^2) with b1 = -m1 and b2 = m1^2 - m2 (matching
// H to second order).  The unit-step response is evaluated analytically
// (distinct real / repeated / complex pole pairs) and the delay is the first
// crossing of the chosen threshold (50% by default, as in Figure 1/4).
#ifndef CONG93_SIM_TWO_POLE_H
#define CONG93_SIM_TWO_POLE_H

#include "sim/rc_tree.h"

namespace cong93 {

struct TwoPole {
    double b1 = 0.0;
    double b2 = 0.0;
};

/// Fits the two-pole model from the first two transfer moments.
TwoPole fit_two_pole(double m1, double m2);

/// Unit-step response value of the model at time t >= 0.
double two_pole_response(const TwoPole& tp, double t);

/// First time the step response reaches `threshold` in (0,1).
double two_pole_threshold_delay(const TwoPole& tp, double threshold);

/// Two-pole delays at every sink node (tree.sinks() order).
std::vector<double> two_pole_sink_delays(const RcTree& rc, double threshold = 0.5);

// ---------------------------------------------------------------------------
// Pade[1/2] extension (AWE-lite).  The classic two-pole fit forces a zero
// initial slope and overestimates the delay of electrically-near sinks; the
// three-moment fit H(s) ~= (1 + a1 s)/(1 + b1 s + b2 s^2) matches m1..m3 and
// models the response zero, recovering near-sink accuracy.  Node 0 of any RC
// ladder is the canonical example: its exact transfer function has a zero.

struct PoleFit {
    double b1 = 0.0;
    double b2 = 0.0;
    double a1 = 0.0;  ///< numerator zero coefficient; 0 => classic two-pole
};

/// Fits H(s) = (1+a1 s)/(1+b1 s+b2 s^2) from m1..m3.  Falls back to the
/// classic two-pole fit (a1 = 0) when the Pade system is ill-conditioned or
/// produces an unstable pole pair (a known failure mode of moment matching).
PoleFit fit_pade12(double m1, double m2, double m3);

/// Unit-step response of the fitted model at time t >= 0.
double pole_fit_response(const PoleFit& pf, double t);

/// First crossing of `threshold` in (0,1).
double pole_fit_threshold_delay(const PoleFit& pf, double threshold);

/// Pade[1/2] delays at every sink node (tree.sinks() order).
std::vector<double> pade_sink_delays(const RcTree& rc, double threshold = 0.5);

}  // namespace cong93

#endif  // CONG93_SIM_TWO_POLE_H
