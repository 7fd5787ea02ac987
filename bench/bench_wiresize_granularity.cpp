// Wiresizing granularity study (Section 2.2's "artificial non-trivial
// nodes" generalization): allow the width to change *inside* straight
// segments by subdividing them, and measure how much extra delay the
// segment-based formulation leaves on the table.  100 16-sink MCM A-trees,
// r = 4 widths, GREWSA-OWSA at every granularity.
#include <vector>

#include "atree/generalized.h"
#include "bench_common.h"
#include "netgen/netgen.h"
#include "report/table.h"
#include "rtree/transform.h"
#include "tech/technology.h"
#include "wiresize/combined.h"

namespace cong93 {
namespace {

void run()
{
    bench::banner("Wiresizing granularity (artificial non-trivial nodes)",
                  "Cong/Leung/Zhou 1993, Section 2.2 generalization");
    const Technology tech = mcm_technology();
    const WidthSet widths = WidthSet::uniform_steps(4);
    const auto nets = random_nets(2006, bench::kNetsPerConfig, kMcmGrid, 16);

    std::vector<RoutingTree> trees;
    trees.reserve(nets.size());
    for (const Net& net : nets) trees.push_back(build_atree_general(net).tree);

    TextTable t({"max segment piece (grids)", "avg segments", "avg delay (ns)",
                 "gain vs whole-segment", "avg runtime (s/net)"});
    double base_delay = 0.0;
    for (const Length piece : {Length{1 << 20}, Length{2000}, Length{1000},
                               Length{500}, Length{250}}) {
        double delay = 0.0, seg_count = 0.0, runtime = 0.0;
        for (const RoutingTree& tree : trees) {
            const FlatTree fine(subdivide_edges(tree, piece));
            const WiresizeContext ctx(fine, tech, widths);
            seg_count += static_cast<double>(ctx.segment_count());
            CombinedResult res;
            runtime += bench::time_seconds([&] { res = grewsa_owsa(ctx); });
            delay += res.delay;
        }
        const double n = static_cast<double>(trees.size());
        if (base_delay == 0.0) base_delay = delay;
        t.add_row({piece > 100000 ? "whole segments" : std::to_string(piece),
                   fmt_fixed(seg_count / n, 1), fmt_ns(delay / n, 4),
                   fmt_pct_delta(base_delay, delay), fmt_sci(runtime / n, 2)});
    }
    t.print(std::cout);
    std::cout << "\nExpected: finer pieces buy a small additional delay "
                 "reduction with rapidly growing cost -- supporting the "
                 "paper's segment-based formulation as the practical choice.\n";
}

}  // namespace
}  // namespace cong93

int main()
{
    cong93::run();
    return 0;
}
