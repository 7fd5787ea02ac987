// Ablation study of the A-tree design choices (DESIGN.md section 3):
//  1. safe moves ON (the paper's algorithm) vs OFF (pure Rao et al.
//     heuristic construction) -- how much do the optimal moves matter?
//  2. heuristic policy: farthest-corner (tree quality) vs
//     min-suboptimality (lower-bound quality).
// Measured on 100 8-sink and 16-sink first-quadrant MCM nets: wirelength,
// QMST cost, simulated delay, and the online ERROR bound.
#include <random>

#include "atree/atree.h"
#include "bench_common.h"
#include "netgen/netgen.h"
#include "report/table.h"
#include "sim/delay_measure.h"
#include "tech/technology.h"

namespace cong93 {
namespace {

struct Agg {
    double cost = 0, qmst = 0, delay = 0, sb = 0;
    int all_safe = 0;
};

void run()
{
    bench::banner("Ablation -- safe moves and heuristic policy",
                  "design-choice study (not a paper table)");
    const Technology tech = mcm_technology();

    struct Variant {
        const char* name;
        AtreeOptions opts;
    };
    const std::vector<Variant> variants = {
        {"paper (safe+farthest)", {HeuristicPolicy::farthest_corner, true}},
        {"no safe moves", {HeuristicPolicy::farthest_corner, false}},
        {"safe+min-SB policy", {HeuristicPolicy::min_suboptimality, true}},
    };

    // Sparse (MCM-scale) and dense (congested) populations: on sparse nets
    // the farthest-corner heuristic usually coincides with the safe-move
    // construction (only the ERROR certificate differs); on dense nets safe
    // moves win outright.
    struct Config {
        int sinks;
        Coord span;
    };
    for (const Config cfg : {Config{8, kMcmGrid}, Config{16, kMcmGrid},
                             Config{16, 40}, Config{24, 40}}) {
        const int sinks = cfg.sinks;
        std::vector<Agg> agg(variants.size());
        std::mt19937_64 rng(static_cast<std::uint64_t>(4000 + sinks));
        for (int n = 0; n < bench::kNetsPerConfig; ++n) {
            std::uniform_int_distribution<Coord> c(0, cfg.span);
            Net net;
            net.source = Point{0, 0};
            for (int k = 0; k < sinks; ++k) net.sinks.push_back(Point{c(rng), c(rng)});
            for (std::size_t v = 0; v < variants.size(); ++v) {
                const AtreeResult r = build_atree(net, variants[v].opts);
                agg[v].cost += static_cast<double>(r.cost);
                agg[v].qmst += static_cast<double>(r.qmst_cost);
                agg[v].delay += measure_delay(FlatTree(r.tree), tech).mean;
                agg[v].sb += static_cast<double>(r.sb_total);
                agg[v].all_safe += r.all_safe() ? 1 : 0;
            }
        }
        std::cout << "\n--- " << sinks << " sinks, span " << cfg.span << " ---\n";
        TextTable t({"variant", "avg length", "avg QMST cost", "avg delay (ns)",
                     "avg ERROR", "all-safe trees"});
        for (std::size_t v = 0; v < variants.size(); ++v) {
            const double n = bench::kNetsPerConfig;
            t.add_row({variants[v].name, fmt_fixed(agg[v].cost / n, 1),
                       fmt_sci(agg[v].qmst / n, 3), fmt_ns(agg[v].delay / n),
                       fmt_fixed(agg[v].sb / n, 1),
                       std::to_string(agg[v].all_safe)});
        }
        t.print(std::cout);
    }
    std::cout << "\nExpected: disabling safe moves costs wirelength/QMST/delay "
                 "and destroys the zero-ERROR optimality certificates; the "
                 "min-SB policy trades a slightly worse tree for a smaller "
                 "ERROR (tighter lower bounds).\n";
}

}  // namespace
}  // namespace cong93

int main()
{
    cong93::run();
    return 0;
}
