// Soak test: a broad randomized sweep of the full pipeline across net sizes,
// regions and technologies, checking every structural invariant the library
// promises.  Sized to run in a few seconds.
#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "atree/generalized.h"
#include "netgen/netgen.h"
#include "rtree/metrics.h"
#include "rtree/validate.h"
#include "sim/delay_measure.h"
#include "tech/technology.h"
#include "wiresize/combined.h"

namespace cong93 {
namespace {

TEST(Soak, FullPipelineSweep)
{
    std::mt19937_64 rng(271828);
    std::uniform_int_distribution<int> sink_count(1, 20);
    std::uniform_int_distribution<int> grid_pick(0, 2);
    std::uniform_int_distribution<int> tech_pick(0, 4);
    std::uniform_int_distribution<int> widths_pick(2, 5);
    const Coord grids[] = {60, 800, kMcmGrid};
    const Technology techs[] = {mcm_technology(), cmos_2000nm(), cmos_1500nm(),
                                cmos_1200nm(), cmos_500nm()};

    for (int trial = 0; trial < 250; ++trial) {
        SCOPED_TRACE(trial);
        const Coord grid = grids[grid_pick(rng)];
        const Net net = random_net(rng, grid, sink_count(rng));
        const Technology& tech = techs[static_cast<std::size_t>(tech_pick(rng))];

        const AtreeResult routed = build_atree_general(net);
        require_valid(routed.tree, net);
        ASSERT_TRUE(is_atree(routed.tree));
        ASSERT_GE(routed.cost, net_radius(net));
        ASSERT_LE(routed.lower_bound(), routed.cost);
        ASSERT_LE(routed.qmst_lower_bound(), routed.qmst_cost);

        const FlatTree ft(routed.tree);
        const WiresizeContext ctx(ft, tech,
                                  WidthSet::uniform_steps(widths_pick(rng)));
        ASSERT_EQ(std::accumulate(ctx.seg_length().begin(), ctx.seg_length().end(), 0.0),
                  static_cast<double>(routed.cost));
        const CombinedResult sized = grewsa_owsa(ctx);
        ASSERT_TRUE(is_monotone(ctx, sized.assignment));
        ASSERT_LE(sized.delay,
                  ctx.delay(min_assignment(ctx.segment_count())) * (1.0 + 1e-9));
        ASSERT_TRUE(dominates(sized.assignment, sized.lower_bounds));
        ASSERT_TRUE(dominates(sized.upper_bounds, sized.assignment));

        const DelayReport d = measure_delay_wiresized(ctx, sized.assignment);
        ASSERT_GT(d.mean, 0.0);
        ASSERT_TRUE(std::isfinite(d.max));
    }
}

}  // namespace
}  // namespace cong93
