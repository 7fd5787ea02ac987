#include "sim/delay_measure.h"

#include <algorithm>
#include <numeric>

#include "sim/transient.h"
#include "sim/two_pole.h"

namespace cong93 {

namespace {

DelayReport report_from(std::vector<double> delays)
{
    DelayReport r;
    r.sink_delays = std::move(delays);
    if (!r.sink_delays.empty()) {
        r.mean = std::accumulate(r.sink_delays.begin(), r.sink_delays.end(), 0.0) /
                 static_cast<double>(r.sink_delays.size());
        r.max = *std::max_element(r.sink_delays.begin(), r.sink_delays.end());
    }
    return r;
}

DelayReport measure(const RcTree& rc, SimMethod method, double threshold)
{
    if (method == SimMethod::two_pole)
        return report_from(two_pole_sink_delays(rc, threshold));
    return report_from(transient_sink_delays(rc, threshold));
}

}  // namespace

DelayReport measure_delay(const FlatTree& ft, const Technology& tech,
                          SimMethod method, double threshold, bool with_inductance)
{
    return measure(RcTree::from_flat_tree(ft, tech, 16, with_inductance), method,
                   threshold);
}

DelayReport measure_delay_wiresized(const WiresizeContext& ctx,
                                    const Assignment& assignment, SimMethod method,
                                    double threshold, bool with_inductance)
{
    return measure(RcTree::from_wiresized_flat(ctx, assignment, 16, with_inductance),
                   method, threshold);
}

}  // namespace cong93
