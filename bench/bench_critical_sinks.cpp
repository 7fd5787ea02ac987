// Critical-sink extension study (Section 6 future work): isolating the most
// critical sink on its own source-rooted arborescence trades total wire for
// critical-path delay.  100 10-sink MCM nets; the farthest sink is critical.
#include <vector>

#include "atree/critical.h"
#include "atree/generalized.h"
#include "bench_common.h"
#include "netgen/netgen.h"
#include "report/table.h"
#include "rtree/metrics.h"
#include "sim/delay_measure.h"
#include "tech/technology.h"

namespace cong93 {
namespace {

void run()
{
    bench::banner("Critical-sink A-trees",
                  "extension of Cong/Leung/Zhou 1993, Section 6");
    const Technology tech = mcm_technology();
    const auto nets = random_nets(9900, bench::kNetsPerConfig, kMcmGrid, 10);

    double len_plain = 0, len_crit = 0;
    double crit_delay_plain = 0, crit_delay_crit = 0;
    double mean_plain = 0, mean_crit = 0;
    int improved = 0;
    for (const Net& net : nets) {
        std::size_t critical = 0;
        for (std::size_t i = 1; i < net.sinks.size(); ++i)
            if (dist(net.source, net.sinks[i]) > dist(net.source, net.sinks[critical]))
                critical = i;
        const Point cp = net.sinks[critical];

        const AtreeResult plain = build_atree_general(net);
        const CriticalAtreeResult crit = build_atree_critical(net, {critical});
        len_plain += static_cast<double>(plain.cost);
        len_crit += static_cast<double>(crit.cost);

        const auto delay_at = [&](const RoutingTree& tree, double* mean_out) {
            const FlatTree ft(tree);
            const DelayReport d = measure_delay(ft, tech, SimMethod::two_pole,
                                                bench::kPaperThreshold);
            *mean_out += d.mean;
            for (std::size_t i = 0; i < ft.sinks().size(); ++i)
                if (ft.point()[static_cast<std::size_t>(ft.sinks()[i])] == cp)
                    return d.sink_delays[i];
            return -1.0;
        };
        const double dp = delay_at(plain.tree, &mean_plain);
        const double dc = delay_at(crit.tree, &mean_crit);
        crit_delay_plain += dp;
        crit_delay_crit += dc;
        improved += dc < dp;
    }

    const double n = bench::kNetsPerConfig;
    TextTable t({"metric", "plain A-tree", "critical-sink A-tree", "delta"});
    t.add_row({"avg wirelength", fmt_fixed(len_plain / n, 0),
               fmt_fixed(len_crit / n, 0), fmt_pct_delta(len_plain, len_crit)});
    t.add_row({"avg critical-sink delay (ns)", fmt_ns(crit_delay_plain / n),
               fmt_ns(crit_delay_crit / n),
               fmt_pct_delta(crit_delay_plain, crit_delay_crit)});
    t.add_row({"avg mean-sink delay (ns)", fmt_ns(mean_plain / n),
               fmt_ns(mean_crit / n), fmt_pct_delta(mean_plain, mean_crit)});
    t.add_row({"nets with faster critical sink", "-",
               std::to_string(improved) + "/" + std::to_string(bench::kNetsPerConfig),
               "-"});
    t.print(std::cout);
    std::cout << "\nExpected: the critical sink speeds up on most nets for a "
                 "modest wirelength premium, the behaviour the paper's "
                 "'forbidden region' sketch aims at.\n";
}

}  // namespace
}  // namespace cong93

int main()
{
    cong93::run();
    return 0;
}
