// Table 5: A-tree vs batched 1-Steiner vs BRBC-0.5 / BRBC-1.0 under the MCM
// technology -- the three MDRT cost terms plus average simulated delay
// (two-pole, 90% threshold), for 100 random nets of 4, 8 and 16 sinks on the
// 100mm x 100mm region.
//
// Two net populations are reported:
//  * interior sources (primary) -- reproduces the paper's absolute delays
//    (A-tree 8.07/10.49/14.92 ns) and its delay rankings;
//  * corner sources (sensitivity) -- reproduces the paper's *wirelength*
//    ratios (A-tree within ~1-13% of 1-Steiner), which an interior source
//    cannot achieve because each quadrant routes independently.
// See EXPERIMENTS.md for the discussion.
#include <functional>
#include <string>

#include "atree/generalized.h"
#include "baseline/brbc.h"
#include "baseline/one_steiner.h"
#include "bench_common.h"
#include "netgen/netgen.h"
#include "report/table.h"
#include "rtree/metrics.h"
#include "sim/delay_measure.h"
#include "tech/technology.h"

namespace cong93 {
namespace {

struct Row {
    double length = 0;
    double sum_pl_sinks = 0;
    double sum_pl_nodes = 0;
    double delay = 0;
    double runtime = 0;
};

using Router = std::function<RoutingTree(const Net&)>;

const std::vector<std::pair<std::string, Router>>& routers()
{
    static const std::vector<std::pair<std::string, Router>> algos = {
        {"A-tree", [](const Net& n) { return build_atree_general(n).tree; }},
        {"1-Steiner", [](const Net& n) { return build_one_steiner(n).tree; }},
        {"BRBC-0.5", [](const Net& n) { return build_brbc(n, 0.5); }},
        {"BRBC-1.0", [](const Net& n) { return build_brbc(n, 1.0); }},
        {"BRBC-1.0m",
         [](const Net& n) { return build_brbc(n, 1.0, BrbcRadius::mst_path); }},
    };
    return algos;
}

void run_population(const std::string& label,
                    const std::function<std::vector<Net>(int)>& make_nets)
{
    const Technology tech = mcm_technology();
    std::cout << "\n################ " << label << " ################\n";
    for (const int sinks : {4, 8, 16}) {
        std::cout << "\n--- " << sinks << " sinks, " << bench::kNetsPerConfig
                  << " nets ---\n";
        const auto nets = make_nets(sinks);
        std::vector<Row> rows(routers().size());
        for (const Net& net : nets) {
            for (std::size_t a = 0; a < routers().size(); ++a) {
                RoutingTree tree(Point{0, 0});
                rows[a].runtime +=
                    bench::time_seconds([&] { tree = routers()[a].second(net); });
                const FlatTree ft(tree);
                rows[a].length += static_cast<double>(total_length(ft));
                rows[a].sum_pl_sinks += static_cast<double>(sum_sink_path_lengths(ft));
                rows[a].sum_pl_nodes +=
                    static_cast<double>(sum_all_node_path_lengths(ft));
                rows[a].delay += measure_delay(ft, tech, SimMethod::two_pole,
                                               bench::kPaperThreshold)
                                     .mean;
            }
        }
        for (Row& r : rows) {
            r.length /= bench::kNetsPerConfig;
            r.sum_pl_sinks /= bench::kNetsPerConfig;
            r.sum_pl_nodes /= bench::kNetsPerConfig;
            r.delay /= bench::kNetsPerConfig;
        }

        std::vector<std::string> headers{"weight function"};
        for (const auto& [name, fn] : routers()) headers.push_back(name);
        TextTable t(std::move(headers));
        const auto metric_row = [&](const std::string& name, double Row::*field,
                                    bool sci) {
            std::vector<std::string> cells{name};
            for (std::size_t a = 0; a < rows.size(); ++a) {
                const double v = rows[a].*field;
                std::string cell = sci ? fmt_sci(v, 3) : fmt_fixed(v, 1);
                if (a > 0) cell += " (" + fmt_pct_delta(rows[0].*field, v) + ")";
                cells.push_back(cell);
            }
            t.add_row(cells);
        };
        metric_row("length(T)", &Row::length, true);
        metric_row("sum_k in N pl_k(T)", &Row::sum_pl_sinks, true);
        metric_row("sum_k in T pl_k(T)", &Row::sum_pl_nodes, true);
        {
            std::vector<std::string> cells{"delay (ns, two-pole 90%)"};
            for (std::size_t a = 0; a < rows.size(); ++a) {
                std::string cell = fmt_ns(rows[a].delay);
                if (a > 0)
                    cell += " (" + fmt_pct_delta(rows[0].delay, rows[a].delay) + ")";
                cells.push_back(cell);
            }
            t.add_row(cells);
        }
        {
            std::vector<std::string> cells{"router runtime (s/net)"};
            for (const Row& r : rows)
                cells.push_back(fmt_sci(r.runtime / bench::kNetsPerConfig, 2));
            t.add_row(cells);
        }
        t.print(std::cout);
    }
}

void run()
{
    bench::banner("Table 5 -- interconnect topology optimization (MCM)",
                  "Cong/Leung/Zhou 1993, Table 5");
    run_population("interior sources (primary)", [](int sinks) {
        return random_nets(1993 + static_cast<std::uint64_t>(sinks),
                           bench::kNetsPerConfig, kMcmGrid, sinks);
    });
    run_population("corner sources (wirelength-ratio sensitivity)", [](int sinks) {
        return random_corner_nets(4993 + static_cast<std::uint64_t>(sinks),
                                  bench::kNetsPerConfig, kMcmGrid, sinks);
    });
    std::cout << "\nPaper's shape: 1-Steiner wins on wirelength; the A-tree wins "
                 "on both path-length terms and beats 1-Steiner on delay, with "
                 "the margin growing with net size.  Our BRBC inserts more "
                 "shortcuts than the paper's reported lengths imply (see the "
                 "BRBC-1.0m variant and EXPERIMENTS.md), which under a pure-RC "
                 "two-pole model makes it delay-competitive.\n";
}

}  // namespace
}  // namespace cong93

int main()
{
    cong93::run();
    return 0;
}
