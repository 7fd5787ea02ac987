// Technology explorer: sweep the resistance ratio Rd/R0 (the quantity that
// governs the paper's entire analysis) and watch the best topology flip from
// Steiner (wirelength) to A-tree (pathlength) as the ratio falls -- the
// Section 5.4 story in one table.
//
//   $ ./technology_explorer
#include <iostream>

#include "atree/generalized.h"
#include "baseline/one_steiner.h"
#include "netgen/netgen.h"
#include "report/table.h"
#include "sim/delay_measure.h"
#include "tech/technology.h"

int main()
{
    using namespace cong93;
    const int kNets = 25;

    std::cout << "Average two-pole delay of A-tree vs batched 1-Steiner on "
              << kNets << " 8-sink nets (0.5cm x 0.5cm region) while scaling\n"
              << "the driver transistor (larger driver => smaller Rd/R0).\n\n";

    const auto nets = random_nets(99, kNets, kIcGrid, 8);
    TextTable t({"technology", "driver scale", "Rd/R0 (1e6 um)", "A-tree (ns)",
                 "1-Steiner (ns)", "A-tree advantage"});
    for (const Technology& base : table9_technologies()) {
        for (const double scale : {1.0, 4.0, 10.0}) {
            const Technology tech = base.with_driver_scale(scale);
            double d_a = 0.0, d_s = 0.0;
            for (const Net& net : nets) {
                d_a += measure_delay(FlatTree(build_atree_general(net).tree), tech).mean;
                d_s += measure_delay(FlatTree(build_one_steiner(net).tree), tech).mean;
            }
            d_a /= kNets;
            d_s /= kNets;
            t.add_row({base.name, "x" + fmt_fixed(scale, 0),
                       fmt_fixed(tech.resistance_ratio_um() / 1e6, 3), fmt_ns(d_a),
                       fmt_ns(d_s), fmt_pct_delta(d_a, d_s)});
        }
    }
    t.print(std::cout);
    std::cout << "\nReading: a positive advantage means the 1-Steiner tree is "
                 "that much slower than the A-tree.  The advantage should grow "
                 "as the driver scales up and as the technology shrinks.\n";
    return 0;
}
