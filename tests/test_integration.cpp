// End-to-end pipeline tests: net -> topology (all routers) -> wiresizing ->
// simulation, across technologies, mirroring the paper's experimental flows.
#include <gtest/gtest.h>

#include <string>

#include "atree/generalized.h"
#include "baseline/brbc.h"
#include "baseline/mst.h"
#include "baseline/one_steiner.h"
#include "baseline/spt.h"
#include "delay/elmore.h"
#include "delay/rph.h"
#include "netgen/netgen.h"
#include "rtree/metrics.h"
#include "rtree/validate.h"
#include "sim/delay_measure.h"
#include "wiresize/combined.h"

namespace cong93 {
namespace {

TEST(Pipeline, FullMcmFlow)
{
    const Technology tech = mcm_technology();
    const auto nets = random_nets(2024, 5, kMcmGrid, 8);
    for (const Net& net : nets) {
        // Topology.
        const AtreeResult atree = build_atree_general(net);
        require_valid(atree.tree, net);
        // Wiresizing.
        const FlatTree ft(atree.tree);
        const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(4));
        const CombinedResult sized = grewsa_owsa(ctx);
        EXPECT_LE(sized.delay, ctx.delay(min_assignment(ctx.segment_count())) * (1 + 1e-9));
        // Simulation: wiresized tree beats the uniform tree.
        const auto uniform = measure_delay(ft, tech);
        const auto wiresized = measure_delay_wiresized(ctx, sized.assignment);
        EXPECT_LT(wiresized.mean, uniform.mean * 1.001);
        EXPECT_GT(wiresized.mean, 0.0);
    }
}

TEST(Pipeline, AllRoutersProduceValidTrees)
{
    const auto nets = random_nets(31337, 5, kMcmGrid, 12);
    for (const Net& net : nets) {
        const std::vector<std::pair<std::string, RoutingTree>> trees = [
        ](const Net& n) {
            std::vector<std::pair<std::string, RoutingTree>> out;
            out.emplace_back("atree", build_atree_general(n).tree);
            out.emplace_back("mst", build_mst_tree(n));
            out.emplace_back("spt", build_spt(n));
            out.emplace_back("1steiner", build_one_steiner(n).tree);
            out.emplace_back("brbc05", build_brbc(n, 0.5));
            out.emplace_back("brbc10", build_brbc(n, 1.0));
            return out;
        }(net);
        for (const auto& [name, tree] : trees) {
            SCOPED_TRACE(name);
            require_valid(tree, net);
            const FlatTree ft(tree);
            EXPECT_GT(total_length(ft), 0);
            // Sinks reachable with sensible radius.
            EXPECT_GE(radius(ft), net_radius(net));
        }
    }
}

TEST(Pipeline, AtreeBeatsSteinerOnMcmDelay)
{
    // The paper's central claim (Table 5): under MCM technology the A-tree
    // has lower average simulated delay than the wirelength-optimized
    // 1-Steiner tree for medium/large nets.  Averaged over nets.
    const Technology tech = mcm_technology();
    const auto nets = random_nets(777, 12, kMcmGrid, 16);
    double atree_total = 0.0;
    double steiner_total = 0.0;
    for (const Net& net : nets) {
        const FlatTree at(build_atree_general(net).tree);
        const FlatTree st(build_one_steiner(net).tree);
        atree_total += measure_delay(at, tech).mean;
        steiner_total += measure_delay(st, tech).mean;
    }
    EXPECT_LT(atree_total, steiner_total);
}

TEST(Pipeline, SteinerWinsOnOldTechnology)
{
    // Section 5.4: with the 2.0um CMOS resistance ratio (minimum drivers),
    // wirelength dominates and the Steiner tree is at least competitive;
    // the A-tree advantage must GROW as the driver is scaled (ratio drops).
    const Technology old_min = cmos_2000nm();
    const Technology old_scaled = cmos_2000nm().with_driver_scale(10.0);
    const auto nets = random_nets(4242, 12, kIcGrid, 8);
    double adv_min = 0.0, adv_scaled = 0.0;
    for (const Net& net : nets) {
        const FlatTree at(build_atree_general(net).tree);
        const FlatTree st(build_one_steiner(net).tree);
        adv_min += measure_delay(st, old_min).mean - measure_delay(at, old_min).mean;
        adv_scaled +=
            measure_delay(st, old_scaled).mean - measure_delay(at, old_scaled).mean;
    }
    // Advantage (positive = A-tree faster) grows with driver scaling.
    EXPECT_GT(adv_scaled, adv_min);
}

TEST(Pipeline, RphObjectiveTracksSimulatedDelay)
{
    // The RPH bound is the optimization objective; it must correlate with
    // the simulated delay (same ordering on a topological A/B comparison
    // for most nets).
    const Technology tech = mcm_technology();
    const auto nets = random_nets(55555, 20, kMcmGrid, 8);
    int agree = 0;
    for (const Net& net : nets) {
        const FlatTree a(build_atree_general(net).tree);
        const FlatTree b(build_mst_tree(net));
        const bool rph_says_a = rph_terms(a, tech).total() < rph_terms(b, tech).total();
        const bool sim_says_a =
            measure_delay(a, tech).mean < measure_delay(b, tech).mean;
        agree += rph_says_a == sim_says_a;
    }
    EXPECT_GE(agree, 15) << "RPH bound should usually agree with simulation";
}

TEST(Pipeline, EveryTechnologyRunsEndToEnd)
{
    for (const Technology& base : table9_technologies()) {
        for (const double scale : {1.0, 4.0, 10.0}) {
            const Technology tech = base.with_driver_scale(scale);
            const auto nets = random_nets(17, 2, kIcGrid, 8);
            for (const Net& net : nets) {
                const AtreeResult r = build_atree_general(net);
                const FlatTree ft(r.tree);
                const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(3));
                const CombinedResult sized = grewsa_owsa(ctx);
                const auto d = measure_delay_wiresized(ctx, sized.assignment);
                EXPECT_GT(d.mean, 0.0) << tech.name;
                EXPECT_LT(d.mean, 1e-3) << tech.name;  // sanity: sub-millisecond
            }
        }
    }
}

TEST(Pipeline, WiresizingGainMatchesPaperBallpark)
{
    // Table 6: optimal wiresizing reduces the RPH delay of 16-sink MCM
    // A-trees substantially (the paper reports ~30% at r=2 up to ~50% at
    // r=6).  Check the direction and a loose band.
    const Technology tech = mcm_technology();
    const auto nets = random_nets(606060, 8, kMcmGrid, 16);
    double base = 0.0, r2 = 0.0, r6 = 0.0;
    for (const Net& net : nets) {
        const AtreeResult r = build_atree_general(net);
        const FlatTree ft(r.tree);
        const WiresizeContext c2(ft, tech, WidthSet::uniform_steps(2));
        const WiresizeContext c6(ft, tech, WidthSet::uniform_steps(6));
        base += c2.delay(min_assignment(c2.segment_count()));
        r2 += grewsa_owsa(c2).delay;
        r6 += grewsa_owsa(c6).delay;
    }
    EXPECT_LT(r2, base);
    EXPECT_LT(r6, r2);              // more widths, more gain
    EXPECT_LT(r6, 0.75 * base);     // strong gain in the MCM regime
}

}  // namespace
}  // namespace cong93
