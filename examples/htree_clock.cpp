// H-tree clock distribution (Fisher/Kung-style, cited in the paper's
// introduction as the prior wiresizing art): build a perfect H-tree on the
// MCM substrate, measure skew, and wire-size it with GREWSA-OWSA.  The tree
// is exactly symmetric, so skew must stay (numerically) zero before and
// after wiresizing while the delay itself drops.
//
//   $ ./htree_clock [levels]
#include <algorithm>
#include <cstdlib>
#include <iostream>

#include "netgen/htree.h"
#include "report/table.h"
#include "rtree/metrics.h"
#include "sim/delay_measure.h"
#include "tech/technology.h"
#include "wiresize/combined.h"

int main(int argc, char** argv)
{
    using namespace cong93;
    const int levels = argc > 1 ? std::atoi(argv[1]) : 3;
    const Technology tech = mcm_technology();

    const RoutingTree tree = build_htree(levels, 1024, Point{2000, 2000});
    const FlatTree ft(tree);
    const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(4));
    std::cout << "H-tree: " << levels << " levels, " << tree.sinks().size()
              << " sinks, " << ctx.segment_count() << " segments, wirelength "
              << total_length(ft) << " grids\n\n";

    const auto skew = [](const DelayReport& d) {
        const auto [lo, hi] =
            std::minmax_element(d.sink_delays.begin(), d.sink_delays.end());
        return *hi - *lo;
    };

    const DelayReport uniform = measure_delay(ft, tech);
    const CombinedResult sized = grewsa_owsa(ctx);
    const DelayReport wide = measure_delay_wiresized(ctx, sized.assignment);

    TextTable t({"metric", "uniform width", "wiresized (GREWSA-OWSA)"});
    t.add_row({"mean sink delay (ns)", fmt_ns(uniform.mean), fmt_ns(wide.mean)});
    t.add_row({"max sink delay (ns)", fmt_ns(uniform.max), fmt_ns(wide.max)});
    t.add_row({"skew (ps)", fmt_fixed(skew(uniform) * 1e12, 3),
               fmt_fixed(skew(wide) * 1e12, 3)});
    t.print(std::cout);

    // Width wavefront from the driver: widths along a root-to-leaf path.
    std::cout << "\nwidths along one root-to-leaf path:";
    const std::vector<std::int32_t>& child_ptr = ctx.seg_child_ptr();
    std::int32_t seg = ctx.seg_roots()[0];
    for (;;) {
        std::cout << ' ' << ctx.widths()[sized.assignment[static_cast<std::size_t>(seg)]];
        if (child_ptr[seg] == child_ptr[seg + 1]) break;  // a leaf segment
        seg = ctx.seg_child_idx()[child_ptr[seg]];
    }
    std::cout << "\n\nSymmetry keeps the skew at zero while wiresizing cuts the "
                 "delay -- the Fisher/Kung observation the paper generalizes "
                 "to arbitrary topologies.\n";
    return 0;
}
