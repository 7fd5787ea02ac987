// Resistance-ratio crossover study -- the quantitative version of the
// paper's Section 2 thesis: "the relative importance of these terms is
// determined by the ratio Rd/R0".  Sweeping the driver resistance over four
// decades on fixed MCM-geometry nets shows where the wirelength-optimal
// Steiner tree stops winning and the path-length-optimal A-tree takes over,
// and where wiresizing stops helping (wide wires only pay when wire
// resistance matters).
#include <cmath>
#include <vector>

#include "atree/generalized.h"
#include "baseline/one_steiner.h"
#include "bench_common.h"
#include "netgen/netgen.h"
#include "report/table.h"
#include "sim/delay_measure.h"
#include "tech/technology.h"
#include "wiresize/combined.h"

namespace cong93 {
namespace {

void run()
{
    bench::banner("Resistance-ratio crossover sweep",
                  "Cong/Leung/Zhou 1993, Section 2 (quantified)");
    Technology tech = mcm_technology();
    const int kNets = 40;
    const auto nets = random_nets(7700, kNets, kMcmGrid, 8);

    // Topologies are fixed; only Rd changes.
    std::vector<FlatTree> atrees, steiners;
    for (const Net& net : nets) {
        atrees.emplace_back(build_atree_general(net).tree);
        steiners.emplace_back(build_one_steiner(net).tree);
    }

    TextTable t({"Rd (ohm)", "Rd/R0 (um)", "A-tree (ns)", "1-Steiner (ns)",
                 "A-tree advantage", "wiresizing gain (A-tree)"});
    for (const double rd : {0.25, 2.5, 25.0, 250.0, 2500.0, 25000.0}) {
        tech.driver_resistance_ohm = rd;
        double d_at = 0, d_st = 0, d_ws = 0;
        for (int i = 0; i < kNets; ++i) {
            d_at += measure_delay(atrees[static_cast<std::size_t>(i)], tech,
                                  SimMethod::two_pole, bench::kPaperThreshold)
                        .mean;
            d_st += measure_delay(steiners[static_cast<std::size_t>(i)], tech,
                                  SimMethod::two_pole, bench::kPaperThreshold)
                        .mean;
            const WiresizeContext ctx(atrees[static_cast<std::size_t>(i)], tech,
                                      WidthSet::uniform_steps(4));
            const CombinedResult sized = grewsa_owsa(ctx);
            d_ws += measure_delay_wiresized(ctx, sized.assignment, SimMethod::two_pole,
                                            bench::kPaperThreshold)
                        .mean;
        }
        t.add_row({fmt_fixed(rd, 2),
                   fmt_fixed(rd / tech.unit_wire_resistance_ohm, 0),
                   fmt_ns(d_at / kNets), fmt_ns(d_st / kNets),
                   fmt_pct_delta(d_at, d_st), fmt_pct_delta(d_at, d_ws)});
    }
    t.print(std::cout);
    std::cout << "\nReading: positive 'A-tree advantage' = the Steiner tree is "
                 "slower.  Expected: at tiny Rd/R0 the A-tree wins big and "
                 "wiresizing is most valuable; at huge Rd/R0 total wire "
                 "capacitance dominates, the Steiner tree wins, and wiresizing "
                 "degenerates to minimum width (zero gain).\n";
}

}  // namespace
}  // namespace cong93

int main()
{
    cong93::run();
    return 0;
}
