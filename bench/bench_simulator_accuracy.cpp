// Simulator accuracy study: our reconstruction of the paper's two-pole
// simulator [18] versus the backward-Euler transient reference, plus the
// Pade[1/2] (three-moment) extension that repairs the two-pole model's
// known near-sink overestimate.  Per-sink relative errors on the Table 5
// MCM net population at both the 50% and 90% thresholds.
#include <algorithm>
#include <cmath>
#include <vector>

#include "atree/generalized.h"
#include "bench_common.h"
#include "netgen/netgen.h"
#include "report/table.h"
#include "sim/transient.h"
#include "sim/two_pole.h"
#include "tech/technology.h"

namespace cong93 {
namespace {

struct ErrStats {
    std::vector<double> errs;
    void add(double approx, double ref)
    {
        if (ref > 0.0) errs.push_back(std::abs(approx - ref) / ref);
    }
    double mean() const { return bench::mean(errs); }
    double p95() const
    {
        if (errs.empty()) return 0.0;
        std::vector<double> v = errs;
        std::sort(v.begin(), v.end());
        return v[static_cast<std::size_t>(0.95 * static_cast<double>(v.size() - 1))];
    }
    double worst() const
    {
        return errs.empty() ? 0.0 : *std::max_element(errs.begin(), errs.end());
    }
};

void run()
{
    bench::banner("Simulator accuracy: two-pole [18] vs Pade[1/2] vs transient",
                  "validation of the reconstructed simulator (not a paper table)");
    const Technology tech = mcm_technology();

    TextTable t({"sinks", "threshold", "two-pole mean err", "two-pole p95",
                 "two-pole worst", "Pade mean err", "Pade p95", "Pade worst"});
    for (const int sinks : {4, 8, 16}) {
        const auto nets =
            random_nets(6600 + static_cast<std::uint64_t>(sinks), 50, kMcmGrid, sinks);
        for (const double thr : {0.5, 0.9}) {
            ErrStats tp_err, pd_err;
            for (const Net& net : nets) {
                const RcTree rc = RcTree::from_flat_tree(
                    FlatTree(build_atree_general(net).tree), tech, 8);
                const auto tp = two_pole_sink_delays(rc, thr);
                const auto pd = pade_sink_delays(rc, thr);
                const auto tr = transient_sink_delays(rc, thr);
                for (std::size_t i = 0; i < tr.size(); ++i) {
                    tp_err.add(tp[i], tr[i]);
                    pd_err.add(pd[i], tr[i]);
                }
            }
            t.add_row({std::to_string(sinks), fmt_fixed(thr, 2),
                       fmt_fixed(100.0 * tp_err.mean(), 1) + "%",
                       fmt_fixed(100.0 * tp_err.p95(), 1) + "%",
                       fmt_fixed(100.0 * tp_err.worst(), 1) + "%",
                       fmt_fixed(100.0 * pd_err.mean(), 1) + "%",
                       fmt_fixed(100.0 * pd_err.p95(), 1) + "%",
                       fmt_fixed(100.0 * pd_err.worst(), 1) + "%"});
        }
    }
    t.print(std::cout);
    std::cout << "\nExpected: the two-pole model is tight at the 90% threshold "
                 "used for the paper's tables but can badly overestimate "
                 "electrically-near sinks at 50%; the three-moment Pade fit "
                 "repairs the worst cases.\n";
}

}  // namespace
}  // namespace cong93

int main()
{
    cong93::run();
    return 0;
}
