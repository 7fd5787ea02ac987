#include <gtest/gtest.h>

#include <algorithm>

#include "netgen/htree.h"
#include "rtree/metrics.h"
#include "rtree/validate.h"
#include "sim/delay_measure.h"
#include "tech/technology.h"
#include "wiresize/combined.h"
#include "wiresize/grewsa.h"

namespace cong93 {
namespace {

TEST(Htree, StructureAndCounts)
{
    for (const int levels : {1, 2, 3}) {
        const RoutingTree t = build_htree(levels, 1 << (levels + 3));
        EXPECT_TRUE(validate_structure(t).empty());
        EXPECT_EQ(t.sinks().size(), static_cast<std::size_t>(1) << (2 * levels));
    }
}

TEST(Htree, RejectsBadParameters)
{
    EXPECT_THROW(build_htree(0, 16), std::invalid_argument);
    EXPECT_THROW(build_htree(2, 0), std::invalid_argument);
    EXPECT_THROW(build_htree(3, 12), std::invalid_argument);  // not divisible by 8
}

TEST(Htree, PerfectlyBalancedPathLengths)
{
    const RoutingTree t = build_htree(3, 64, Point{100, 100});
    const Length pl0 = t.path_length(t.sinks().front());
    for (const NodeId s : t.sinks()) EXPECT_EQ(t.path_length(s), pl0);
    // Closed form: sum over levels of 2 * span_l with span halving.
    // levels=3, s=64: 2*(64 + 32 + 16) = 224.
    EXPECT_EQ(pl0, 224);
    EXPECT_EQ(radius(FlatTree(t)), 224);
}

TEST(Htree, ZeroSkewUniformAndWiresized)
{
    const Technology tech = mcm_technology();
    const FlatTree ft(build_htree(2, 512, Point{1000, 1000}));
    const DelayReport uniform = measure_delay(ft, tech);
    const auto skew = [](const DelayReport& d) {
        const auto [lo, hi] =
            std::minmax_element(d.sink_delays.begin(), d.sink_delays.end());
        return *hi - *lo;
    };
    EXPECT_LT(skew(uniform), 1e-6 * uniform.mean);

    const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(3));
    const CombinedResult sized = grewsa_owsa(ctx);
    const DelayReport wide = measure_delay_wiresized(ctx, sized.assignment);
    EXPECT_LT(skew(wide), 1e-6 * wide.mean);
    EXPECT_LT(wide.mean, uniform.mean);

    // Symmetric segments get identical widths: group by depth from root.
    const std::size_t n = ctx.segment_count();
    const std::vector<std::int32_t>& parent = ctx.seg_parent();
    std::vector<int> depth(n, 0);
    for (std::size_t i = 0; i < n; ++i)
        if (parent[i] != kNoSegment)
            depth[i] = depth[static_cast<std::size_t>(parent[i])] + 1;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            if (depth[i] == depth[j] && ctx.seg_length()[i] == ctx.seg_length()[j]) {
                EXPECT_EQ(sized.assignment[i], sized.assignment[j])
                    << "asymmetric widths at depth " << depth[i];
            }
        }
    }
}

TEST(Htree, MonotoneWavefrontFromDriver)
{
    // Along any root-to-leaf chain the optimal widths never increase.
    const Technology tech = mcm_technology();
    const RoutingTree t = build_htree(3, 1024, Point{2000, 2000});
    const FlatTree ft(t);
    const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(4));
    const GrewsaResult g = grewsa_from_min(ctx);
    EXPECT_TRUE(is_monotone(ctx, g.assignment));
    // The stem is at least as wide as any leaf segment.
    int leaf_max = 0;
    for (std::size_t i = 0; i < ctx.segment_count(); ++i)
        if (ctx.seg_child_ptr()[i] == ctx.seg_child_ptr()[i + 1])
            leaf_max = std::max(leaf_max, g.assignment[i]);
    for (const std::int32_t root : ctx.seg_roots())
        EXPECT_GE(g.assignment[static_cast<std::size_t>(root)], leaf_max);
}

}  // namespace
}  // namespace cong93
