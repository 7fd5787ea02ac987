// MCM net design walkthrough: compare every router in the library on one
// high-fanout MCM net, then wire-size the winner -- the workload the paper's
// introduction motivates (high-performance MCM routing).
//
//   $ ./mcm_net_design [seed]
#include <cstdlib>
#include <iostream>

#include "atree/generalized.h"
#include "baseline/brbc.h"
#include "baseline/mst.h"
#include "baseline/one_steiner.h"
#include "baseline/spt.h"
#include "netgen/netgen.h"
#include "report/table.h"
#include "rtree/metrics.h"
#include "sim/delay_measure.h"
#include "tech/technology.h"
#include "wiresize/combined.h"

int main(int argc, char** argv)
{
    using namespace cong93;
    const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;

    const Technology tech = mcm_technology();
    std::mt19937_64 rng(seed);
    const Net net = random_net(rng, kMcmGrid, 12);
    std::cout << "12-sink net on the 100mm x 100mm MCM substrate (seed " << seed
              << ")\n\n";

    TextTable t({"router", "length", "radius", "sum sink pl", "mean delay (ns)",
                 "max delay (ns)"});
    const auto row = [&](const std::string& name, const RoutingTree& tree) {
        const FlatTree ft(tree);
        const DelayReport d = measure_delay(ft, tech);
        t.add_row({name, std::to_string(total_length(ft)),
                   std::to_string(radius(ft)),
                   std::to_string(sum_sink_path_lengths(ft)),
                   fmt_ns(d.mean), fmt_ns(d.max)});
    };
    const RoutingTree atree = build_atree_general(net).tree;
    row("A-tree", atree);
    row("batched 1-Steiner", build_one_steiner(net).tree);
    row("MST", build_mst_tree(net));
    row("SPT", build_spt(net));
    row("BRBC eps=0.5", build_brbc(net, 0.5));
    row("BRBC eps=1.0", build_brbc(net, 1.0));
    t.print(std::cout);

    // Wire-size the A-tree with the Table 6 width menu.
    const FlatTree ft(atree);
    const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(6));
    const CombinedResult sized = grewsa_owsa(ctx);
    const DelayReport before = measure_delay(ft, tech);
    const DelayReport after =
        measure_delay_wiresized(ctx, sized.assignment);
    std::cout << "\nwiresized A-tree (widths {W1..6W1}, W1 = "
              << tech.base_width_um << " um):\n  mean delay " << fmt_ns(before.mean)
              << " ns -> " << fmt_ns(after.mean) << " ns ("
              << fmt_pct_delta(before.mean, after.mean) << ")\n  widths per segment:";
    for (std::size_t i = 0; i < ctx.segment_count(); ++i)
        std::cout << ' ' << ctx.widths()[sized.assignment[i]];
    std::cout << '\n';
    return 0;
}
