// Table 8: average simulated delay of the combined A-tree + Wiresizing flow
// against the batched 1-Steiner and BRBC baselines (uniform minimum width),
// for 4/8/16-sink MCM nets.
#include <vector>

#include "atree/generalized.h"
#include "baseline/brbc.h"
#include "baseline/one_steiner.h"
#include "batch/batch.h"
#include "bench_common.h"
#include "netgen/netgen.h"
#include "report/table.h"
#include "sim/delay_measure.h"
#include "tech/technology.h"
#include "wiresize/combined.h"

namespace cong93 {
namespace {

/// Width count for the wiresized A-tree (the paper's Table 6 set with r=6
/// gives its largest gain; Table 8 does not state r, so we report the
/// mid-range r=4 and the shape holds for any r >= 2).
constexpr int kWidths = 4;

void run()
{
    bench::banner("Table 8 -- A-tree + wiresizing vs baselines (MCM)",
                  "Cong/Leung/Zhou 1993, Table 8");
    const Technology tech = mcm_technology();

    TextTable t({"# sinks", "A-tree+Wiresizing (ns)", "1-Steiner (ns)",
                 "BRBC-0.5 (ns)", "BRBC-1.0 (ns)"});
    for (const int sinks : {4, 8, 16}) {
        const auto nets =
            random_nets(1993 + sinks, bench::kNetsPerConfig, kMcmGrid, sinks);
        struct NetResult {
            double sized = 0, steiner = 0, brbc05 = 0, brbc10 = 0;
        };
        // Per-net flows are independent: fan out over the batch pool and
        // reduce serially in index order (byte-identical to a serial run).
        const std::vector<NetResult> per_net =
            batch_map<NetResult>(nets.size(), [&](std::size_t ni) {
                const Net& net = nets[ni];
                const FlatTree ft(build_atree_general(net).tree);
                const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(kWidths));
                const CombinedResult sized = grewsa_owsa(ctx);
                NetResult res;
                res.sized = measure_delay_wiresized(ctx, sized.assignment,
                                                    SimMethod::two_pole,
                                                    bench::kPaperThreshold)
                                .mean;
                res.steiner =
                    measure_delay(FlatTree(build_one_steiner(net).tree), tech,
                                  SimMethod::two_pole, bench::kPaperThreshold)
                        .mean;
                res.brbc05 =
                    measure_delay(FlatTree(build_brbc(net, 0.5)), tech,
                                  SimMethod::two_pole, bench::kPaperThreshold)
                        .mean;
                res.brbc10 =
                    measure_delay(FlatTree(build_brbc(net, 1.0)), tech,
                                  SimMethod::two_pole, bench::kPaperThreshold)
                        .mean;
                return res;
            });
        double d_sized = 0, d_steiner = 0, d_brbc05 = 0, d_brbc10 = 0;
        for (const NetResult& res : per_net) {
            d_sized += res.sized;
            d_steiner += res.steiner;
            d_brbc05 += res.brbc05;
            d_brbc10 += res.brbc10;
        }
        const double n = bench::kNetsPerConfig;
        std::vector<std::string> row{std::to_string(sinks), fmt_ns(d_sized / n)};
        for (const double d : {d_steiner, d_brbc05, d_brbc10})
            row.push_back(fmt_ns(d / n) + " (" + fmt_pct_delta(d_sized, d) + ")");
        t.add_row(row);
    }
    t.print(std::cout);
    std::cout << "\nPaper's shape: the wiresized A-tree dominates every "
                 "baseline, and the margin grows with net size (paper: +73% to "
                 "+192% for 1-Steiner).\n";
}

}  // namespace
}  // namespace cong93

int main()
{
    cong93::run();
    return 0;
}
