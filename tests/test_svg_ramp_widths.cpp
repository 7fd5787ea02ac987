// Tests for the SVG renderer, ramp-input simulation, and non-uniform width
// sets (arbitrary W_i multipliers, as the general formulation allows).
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "atree/generalized.h"
#include "netgen/netgen.h"
#include "rtree/svg.h"
#include "sim/transient.h"
#include "tech/technology.h"
#include "wiresize/combined.h"
#include "wiresize/grewsa.h"
#include "wiresize/owsa.h"

namespace cong93 {
namespace {

int count_substr(const std::string& hay, const std::string& needle)
{
    int n = 0;
    for (std::size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + 1))
        ++n;
    return n;
}

TEST(Svg, UniformRenderingStructure)
{
    const Net net{{0, 0}, {{300, 100}, {50, 400}}};
    const RoutingTree tree = build_atree_general(net).tree;
    const std::string svg = to_svg(FlatTree(tree));
    EXPECT_NE(svg.find("<svg"), std::string::npos);
    EXPECT_NE(svg.find("</svg>"), std::string::npos);
    // One line per edge, one marker per terminal.
    EXPECT_EQ(count_substr(svg, "<line"),
              static_cast<int>(tree.node_count()) - 1);
    EXPECT_EQ(count_substr(svg, "<circle"), 2);  // two sinks
    EXPECT_EQ(count_substr(svg, "<rect"), 2);    // background + source marker
}

TEST(Svg, WiresizedStrokesScaleWithWidths)
{
    const Technology tech = mcm_technology();
    const Net net{{0, 0}, {{2000, 500}, {300, 2500}, {1500, 1500}}};
    const RoutingTree tree = build_atree_general(net).tree;
    const FlatTree ft(tree);
    const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(4));
    const CombinedResult sized = grewsa_owsa(ctx);
    std::vector<double> norm(ctx.segment_count());
    for (std::size_t i = 0; i < ctx.segment_count(); ++i)
        norm[i] = ctx.widths()[sized.assignment[i]];
    const std::string svg = to_svg_wiresized(ft, ctx.seg_tail_flat(), norm);
    // The widest assigned stroke appears in the output (formatted the same
    // way the writer formats doubles).
    const double max_w = *std::max_element(norm.begin(), norm.end());
    std::ostringstream expect;
    expect << "stroke-width=\"" << max_w * 2.0 << '"';
    EXPECT_NE(svg.find(expect.str()), std::string::npos) << expect.str();
    EXPECT_THROW(to_svg_wiresized(ft, ctx.seg_tail_flat(), std::vector<double>(1, 1.0)),
                 std::invalid_argument);
}

TEST(Ramp, SlowerInputSlowerOutput)
{
    const Technology tech = mcm_technology();
    const Net net{{0, 0}, {{1500, 800}}};
    const RcTree rc =
        RcTree::from_flat_tree(FlatTree(build_atree_general(net).tree), tech, 8);
    const double step = transient_sink_delays(rc, 0.5)[0];
    const double fast = transient_ramp_delays(rc, step / 10.0, 0.5)[0];
    const double slow = transient_ramp_delays(rc, step * 10.0, 0.5)[0];
    EXPECT_GT(fast, step * 0.99);  // a finite ramp never beats the step
    EXPECT_GT(slow, fast);
    // Very slow ramp: the output tracks the input; 50% crossing approaches
    // t_rise/2 plus the network lag.
    EXPECT_GT(slow, step * 4.0);
    EXPECT_THROW(transient_ramp_delays(rc, -1.0), std::invalid_argument);
}

TEST(Ramp, ZeroRiseEqualsStep)
{
    const Technology tech = mcm_technology();
    const Net net{{0, 0}, {{900, 400}, {200, 700}}};
    const RcTree rc =
        RcTree::from_flat_tree(FlatTree(build_atree_general(net).tree), tech, 8);
    const auto step = transient_sink_delays(rc, 0.5);
    const auto ramp0 = transient_ramp_delays(rc, 0.0, 0.5);
    ASSERT_EQ(step.size(), ramp0.size());
    for (std::size_t i = 0; i < step.size(); ++i)
        EXPECT_NEAR(ramp0[i], step[i], 0.01 * step[i]);
}

TEST(NonUniformWidths, OwsaMatchesExhaustive)
{
    // Arbitrary width multipliers, not the paper's {1..r} menu.
    const Technology tech = mcm_technology();
    const WidthSet widths({1.0, 1.8, 5.0});
    const auto nets = random_nets(777, 4, kMcmGrid, 4);
    for (const Net& net : nets) {
        const RoutingTree tree = build_atree_general(net).tree;
        const FlatTree ft(tree);
        const WiresizeContext ctx(ft, tech, widths);
        if (ctx.segment_count() > 9) continue;
        double best = 1e99;
        Assignment cur(ctx.segment_count(), 0);
        for (;;) {
            best = std::min(best, ctx.delay(cur));
            std::size_t i = 0;
            while (i < cur.size() && ++cur[i] == 3) cur[i++] = 0;
            if (i == cur.size()) break;
        }
        const OwsaResult o = owsa(ctx);
        EXPECT_NEAR(o.delay, best, 1e-9 * best);
        // Dominance property holds for any width menu.
        const GrewsaResult lo = grewsa_from_min(ctx);
        const GrewsaResult hi = grewsa_from_max(ctx);
        EXPECT_TRUE(dominates(o.assignment, lo.assignment));
        EXPECT_TRUE(dominates(hi.assignment, o.assignment));
    }
}

TEST(NonUniformWidths, FractionalMenusRejectBelowOne)
{
    EXPECT_THROW(WidthSet({0.5, 1.0, 2.0}), std::invalid_argument);
    const WidthSet ok({1.0, 1.25, 1.5});
    EXPECT_EQ(ok.count(), 3);
}

}  // namespace
}  // namespace cong93
