// High-level delay measurement: net-level wrappers combining a compiled
// tree (or a wiresized net's WiresizeContext), a technology and the
// simulators, matching the paper's methodology (delays in Tables 5/8 and
// Figure 17 are the *average over sinks* of the simulated 50%-threshold
// delay).  Both simulators accept only thresholds in (0, 1) and throw
// std::invalid_argument otherwise.
#ifndef CONG93_SIM_DELAY_MEASURE_H
#define CONG93_SIM_DELAY_MEASURE_H

#include "sim/rc_tree.h"

namespace cong93 {

enum class SimMethod {
    two_pole,   ///< moment-matching (the paper's simulator [18])
    transient,  ///< backward-Euler reference
};

struct DelayReport {
    std::vector<double> sink_delays;  ///< FlatTree::sinks() order, seconds
    double mean = 0.0;
    double max = 0.0;
};

/// Delay of a uniform-width compiled tree (the analysis IR).
/// `with_inductance` switches the wire model from RC to RLC using the
/// technology's per-unit inductance.
DelayReport measure_delay(const FlatTree& ft, const Technology& tech,
                          SimMethod method = SimMethod::two_pole,
                          double threshold = 0.5, bool with_inductance = false);

/// Delay of a wiresized net, described by its WiresizeContext (technology
/// and widths included) and the per-segment width assignment.
DelayReport measure_delay_wiresized(const WiresizeContext& ctx,
                                    const Assignment& assignment,
                                    SimMethod method = SimMethod::two_pole,
                                    double threshold = 0.5,
                                    bool with_inductance = false);

}  // namespace cong93

#endif  // CONG93_SIM_DELAY_MEASURE_H
