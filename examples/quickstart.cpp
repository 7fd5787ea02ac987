// Quickstart: route one net with the A-tree algorithm, size its wires, and
// simulate the result.  This is the 60-second tour of the public API.
//
//   $ ./quickstart
#include <iostream>

#include "atree/generalized.h"
#include "rtree/io.h"
#include "rtree/metrics.h"
#include "sim/delay_measure.h"
#include "tech/technology.h"
#include "wiresize/combined.h"

int main()
{
    using namespace cong93;

    // 1. A signal net: one driver, four sinks (coordinates in grid units;
    //    the MCM technology uses a 25 um pitch).
    const Net net{/*source=*/{1000, 1000},
                  /*sinks=*/{{3000, 1400}, {2200, 3100}, {200, 2400}, {1800, 150}}};
    const Technology tech = mcm_technology();

    // 2. Topology: a generalized A-tree (every source-to-node path is a
    //    rectilinear shortest path; wirelength near-optimal).
    const AtreeResult routed = build_atree_general(net);
    std::cout << "A-tree: " << describe(routed.tree) << '\n'
              << "  wirelength " << routed.cost << " (lower bound "
              << routed.lower_bound() << "), " << routed.safe_moves
              << " safe / " << routed.heuristic_moves << " heuristic moves\n";

    // 3. Wiresizing: optimal widths from {W1, 2W1, 3W1, 4W1} via GREWSA-OWSA.
    //    The context compiles the segments from the FlatTree and must not
    //    outlive it.
    const FlatTree ft(routed.tree);
    const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(4));
    const CombinedResult sized = grewsa_owsa(ctx);
    std::cout << "wiresizing: RPH bound "
              << ctx.delay(min_assignment(ctx.segment_count())) * 1e9 << " ns -> "
              << sized.delay * 1e9 << " ns (" << ctx.segment_count()
              << " segments, bounds " << (sized.bounds_tight ? "tight" : "loose")
              << ")\n";

    // 4. Simulate with the two-pole model (50% threshold step delays).
    const DelayReport before = measure_delay(ft, tech);
    const DelayReport after = measure_delay_wiresized(ctx, sized.assignment);
    std::cout << "simulated mean sink delay: " << before.mean * 1e9 << " ns -> "
              << after.mean * 1e9 << " ns\n";
    return 0;
}
