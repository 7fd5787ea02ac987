// Per-sink loading capacitance (the paper's heterogeneous C_k of Eq. 1):
// propagation through every router, the delay models, wiresizing and I/O.
#include <gtest/gtest.h>

#include "atree/generalized.h"
#include "baseline/mst.h"
#include "baseline/one_steiner.h"
#include "baseline/spt.h"
#include "delay/elmore.h"
#include "delay/rph.h"
#include "rtree/io.h"
#include "rtree/validate.h"
#include "tech/technology.h"
#include "wiresize/owsa.h"
#include "workload/netlist.h"

namespace cong93 {
namespace {

Net heavy_light_net()
{
    Net net{{0, 0}, {{400, 100}, {100, 400}}, {50e-12, 1e-15}};
    return net;
}

double cap_at(const RoutingTree& tree, Point p)
{
    for (const NodeId s : tree.sinks())
        if (tree.point(s) == p) return tree.node(s).sink_cap_f;
    return -2.0;
}

TEST(SinkCaps, AtreeCarriesCaps)
{
    const Net net = heavy_light_net();
    const RoutingTree t = build_atree_general(net).tree;
    require_valid(t, net);
    EXPECT_DOUBLE_EQ(cap_at(t, net.sinks[0]), 50e-12);
    EXPECT_DOUBLE_EQ(cap_at(t, net.sinks[1]), 1e-15);
}

TEST(SinkCaps, BaselinesCarryCaps)
{
    const Net net = heavy_light_net();
    for (const RoutingTree& t :
         {build_mst_tree(net), build_spt(net), build_one_steiner(net).tree}) {
        EXPECT_DOUBLE_EQ(cap_at(t, net.sinks[0]), 50e-12);
        EXPECT_DOUBLE_EQ(cap_at(t, net.sinks[1]), 1e-15);
    }
}

TEST(SinkCaps, GeneralizedQuadrantsCarryCaps)
{
    // Sinks in all four quadrants with distinct caps.
    Net net{{100, 100},
            {{150, 150}, {50, 150}, {50, 50}, {150, 50}},
            {1e-12, 2e-12, 3e-12, 4e-12}};
    const RoutingTree t = build_atree_general(net).tree;
    for (std::size_t i = 0; i < net.sinks.size(); ++i)
        EXPECT_DOUBLE_EQ(cap_at(t, net.sinks[i]), net.sink_caps[i]) << i;
}

TEST(SinkCaps, RphUsesExplicitCaps)
{
    const Technology tech = mcm_technology();
    Net net{{0, 0}, {{100, 0}}, {}};
    const FlatTree default_cap(build_atree_general(net).tree);
    net.sink_caps = {10 * tech.sink_load_f};
    const FlatTree big_cap(build_atree_general(net).tree);
    EXPECT_GT(rph_terms(big_cap, tech).total(), rph_terms(default_cap, tech).total());
    EXPECT_GT(elmore_all_sinks(big_cap, tech)[0],
              elmore_all_sinks(default_cap, tech)[0]);
}

TEST(SinkCaps, WiresizingFavorsHeavyBranch)
{
    // A symmetric T with one heavy sink: the heavy branch gets at least the
    // light branch's width.
    const Technology tech = mcm_technology();
    RoutingTree t(Point{200, 0});
    const NodeId mid = t.add_child(t.root(), Point{200, 150});
    const NodeId left = t.add_child(mid, Point{0, 150});
    const NodeId right = t.add_child(mid, Point{400, 150});
    t.mark_sink(left, 20e-12);   // heavy
    t.mark_sink(right, 0.05e-12);  // light
    const FlatTree ft(t);
    const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(4));
    const OwsaResult o = owsa(ctx);
    int heavy_seg = -1, light_seg = -1;
    for (std::size_t i = 0; i < ctx.segment_count(); ++i) {
        if (ctx.seg_tail_flat()[i] == ft.flat_of(left)) heavy_seg = static_cast<int>(i);
        if (ctx.seg_tail_flat()[i] == ft.flat_of(right)) light_seg = static_cast<int>(i);
    }
    ASSERT_GE(heavy_seg, 0);
    ASSERT_GE(light_seg, 0);
    EXPECT_GE(o.assignment[static_cast<std::size_t>(heavy_seg)],
              o.assignment[static_cast<std::size_t>(light_seg)]);
}

TEST(SinkCaps, IoRoundTrip)
{
    std::vector<WorkItem> items(1);
    items[0].net = Net{{1, 2}, {{10, 2}, {1, 30}}, {-1.0, 3.5e-12}};
    const Net& net = items[0].net;
    const NetlistDesign design = parse_netlist(format_netlist(items));
    ASSERT_EQ(design.items.size(), 1u);
    const Net& back = design.items[0].net;
    ASSERT_EQ(back.sinks, net.sinks);
    ASSERT_EQ(back.sink_caps.size(), 2u);
    EXPECT_LT(back.sink_caps[0], 0.0);  // default marker survives
    EXPECT_DOUBLE_EQ(back.sink_caps[1], 3.5e-12);
}

TEST(SinkCaps, TreeIoRoundTripWithCaps)
{
    const Net net = heavy_light_net();
    const RoutingTree t = build_atree_general(net).tree;
    const RoutingTree back = parse_tree(format_tree(t));
    EXPECT_DOUBLE_EQ(cap_at(back, net.sinks[0]), 50e-12);
    EXPECT_DOUBLE_EQ(cap_at(back, net.sinks[1]), 1e-15);
}

}  // namespace
}  // namespace cong93
