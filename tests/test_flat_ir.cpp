// Canonical-IR equivalence suite: every layer downstream of topology
// construction (sim, metrics, report, rendering, wiresizing) takes only the
// FlatTree, and this file pins each consumer to an independent computation
// with exact comparisons -- no epsilons anywhere:
//   * summarize_net against sums walked over the RoutingTree (always built);
//   * WiresizeContext's FlatTree compile vs the reference
//     SegmentDecomposition, array by array, and its evaluation entry points
//     and wiresized RC tree vs the pointer-walk oracles over that
//     decomposition (CONG93_BUILD_ORACLES=ON);
//   * the cong_oracles pointer-walk twins (RcTree construction, simulator
//     outputs, all five metrics, SVG bytes) when CONG93_BUILD_ORACLES=ON;
//   * the pipeline's one-compile-per-net guarantee via
//     PipelineStats::compiles_per_net() and the process-wide
//     flat_tree_compiles() counter (A-tree construction compiles nothing).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "atree/generalized.h"
#include "batch/pipeline.h"
#include "batch/workspace.h"
#include "netgen/netgen.h"
#ifdef CONG93_HAVE_ORACLES
#include "oracle/metrics_reference.h"
#include "oracle/segments_reference.h"
#include "oracle/sim_reference.h"
#include "oracle/svg_reference.h"
#endif
#include "report/table.h"
#include "rtree/flat_tree.h"
#include "rtree/metrics.h"
#include "rtree/svg.h"
#include "sim/delay_measure.h"
#include "sim/rc_tree.h"
#include "sim/transient.h"
#include "sim/two_pole.h"
#include "tech/technology.h"
#include "wiresize/assignment.h"
#include "wiresize/combined.h"
#include "wiresize/delay_eval.h"

namespace cong93 {
namespace {

#ifdef CONG93_HAVE_ORACLES
std::vector<RoutingTree> random_atrees(std::uint64_t seed, int count, int sinks)
{
    std::vector<RoutingTree> trees;
    for (const Net& net : random_nets(seed, count, kMcmGrid, sinks))
        trees.push_back(build_atree_general(net).tree);
    return trees;
}

void expect_rc_equal(const RcTree& a, const RcTree& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.node(i).parent, b.node(i).parent) << "node " << i;
        EXPECT_EQ(a.node(i).r_ohm, b.node(i).r_ohm) << "node " << i;
        EXPECT_EQ(a.node(i).c_f, b.node(i).c_f) << "node " << i;
        EXPECT_EQ(a.node(i).l_h, b.node(i).l_h) << "node " << i;
    }
    EXPECT_EQ(a.sink_nodes(), b.sink_nodes());
}
#endif  // CONG93_HAVE_ORACLES

TEST(FlatIr, SummarizeNetMatchesMetrics)
{
    // The length is the price the A-tree construction put on the tree; the
    // path-length sums are walked over the RoutingTree's maintained pl.
    for (const Net& net : random_nets(305, 4, kMcmGrid, 10)) {
        const AtreeResult r = build_atree_general(net);
        const FlatTree ft(r.tree);
        const NetSummary s = summarize_net(ft);
        Length longest = 0, sum_pl = 0;
        for (const NodeId k : r.tree.sinks()) {
            longest = std::max(longest, r.tree.path_length(k));
            sum_pl += r.tree.path_length(k);
        }
        EXPECT_EQ(s.nodes, r.tree.node_count());
        EXPECT_EQ(s.sinks, r.tree.sinks().size());
        EXPECT_EQ(s.length, r.cost);
        EXPECT_EQ(s.radius, longest);
        EXPECT_EQ(s.sum_sink_path_lengths, sum_pl);
    }
}

#ifdef CONG93_HAVE_ORACLES
// ---------------------------------------------------------------------------
// WiresizeContext's FlatTree compile vs the reference SegmentDecomposition
// ---------------------------------------------------------------------------

TEST(FlatIr, WiresizeContextFlatBuildMatchesLegacyArrays)
{
    const Technology tech = mcm_technology();
    for (const RoutingTree& tree : random_atrees(306, 5, 12)) {
        const FlatTree ft(tree);
        const SegmentDecomposition segs(tree);
        const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(4));
        EXPECT_EQ(&ctx.flat(), &ft);

        ASSERT_EQ(ctx.segment_count(), segs.count());
        EXPECT_EQ(ctx.seg_roots(),
                  std::vector<std::int32_t>(segs.roots().begin(), segs.roots().end()));
        const std::vector<double> down = segs.downstream_sink_cap(tech.sink_load_f);
        const std::vector<std::int32_t>& cp = ctx.seg_child_ptr();
        for (std::size_t i = 0; i < segs.count(); ++i) {
            const WireSegment& s = segs[i];
            EXPECT_EQ(ctx.seg_parent()[i], s.parent) << "segment " << i;
            EXPECT_EQ(ctx.seg_length()[i], static_cast<double>(s.length)) << "segment " << i;
            EXPECT_EQ(std::vector<std::int32_t>(ctx.seg_child_idx().begin() + cp[i],
                                                ctx.seg_child_idx().begin() + cp[i + 1]),
                      std::vector<std::int32_t>(s.children.begin(), s.children.end()))
                << "segment " << i;
            EXPECT_EQ(ctx.tail_is_sink()[i] != 0, s.tail_is_sink) << "segment " << i;
            const double tail_cap =
                s.tail_is_sink ? (s.tail_sink_cap_f >= 0.0 ? s.tail_sink_cap_f
                                                           : tech.sink_load_f)
                               : 0.0;
            EXPECT_EQ(ctx.tail_cap(i), tail_cap) << "segment " << i;
            EXPECT_EQ(ctx.downstream_sink_cap(i), down[i]) << "segment " << i;

            // Tails are the decomposition's tail nodes, and the head that
            // to_svg_wiresized derives -- the tail's nearest non-trivial
            // ancestor -- is the decomposition's head.
            const std::int32_t tail = ctx.seg_tail_flat()[i];
            EXPECT_EQ(tail, ft.flat_of(s.tail)) << "segment " << i;
            std::int32_t head = ft.parent()[static_cast<std::size_t>(tail)];
            while (!is_nontrivial(ft, head)) head = ft.parent()[static_cast<std::size_t>(head)];
            EXPECT_EQ(head, ft.flat_of(s.head)) << "segment " << i;
        }
    }
}

TEST(FlatIr, WiresizeContextFlatBuildMatchesLegacyEvaluation)
{
    const Technology tech = mcm_technology();
    for (const std::uint64_t seed : {41u, 42u, 43u}) {
        for (const RoutingTree& tree : random_atrees(seed, 2, 14)) {
            const FlatTree ft(tree);
            const SegmentDecomposition segs(tree);
            const WiresizeContext ctx(ft, tech, WidthSet::uniform_steps(4));
            const std::size_t n = ctx.segment_count();

            std::mt19937_64 rng(seed * 1000003);
            for (int trial = 0; trial < 4; ++trial) {
                Assignment a(n, 0);
                for (std::size_t i = 0; i < n; ++i)
                    a[i] = static_cast<int>(rng() % 4);

                EXPECT_EQ(ctx.delay(a), delay_reference(ctx, segs, a));
                const auto tf = ctx.terms(a);
                const auto tl = terms_reference(ctx, segs, a);
                EXPECT_EQ(tf.t1, tl.t1);
                EXPECT_EQ(tf.t2, tl.t2);
                EXPECT_EQ(tf.t3, tl.t3);
                EXPECT_EQ(tf.t4, tl.t4);
                for (std::size_t i = 0; i < n; ++i) {
                    const auto pf = ctx.theta_phi_fast(a, i);
                    const auto pl = theta_phi_fast_reference(ctx, segs, a, i);
                    EXPECT_EQ(pf.theta, pl.theta) << "segment " << i;
                    EXPECT_EQ(pf.phi, pl.phi) << "segment " << i;
                    // The local refinement's argmin over the reference
                    // theta/phi (ties to the narrowest width).
                    int best = 0;
                    for (int k = 1; k <= 3; ++k)
                        if (pl.theta * ctx.widths()[k] + pl.phi / ctx.widths()[k] <
                            pl.theta * ctx.widths()[best] + pl.phi / ctx.widths()[best])
                            best = k;
                    EXPECT_EQ(ctx.locally_optimal_width(a, i, 3), best) << "segment " << i;
                }
            }
        }
    }
}

TEST(FlatIr, WiresizedRcTreeFlatMatchesLegacy)
{
    const Technology tech = mcm_technology();
    for (const RoutingTree& tree : random_atrees(307, 3, 10)) {
        const FlatTree ft(tree);
        const SegmentDecomposition segs(tree);
        const WidthSet widths = WidthSet::uniform_steps(4);
        const WiresizeContext ctx(ft, tech, widths);
        const Assignment a = grewsa_owsa(ctx).assignment;

        for (const bool rlc : {false, true}) {
            expect_rc_equal(
                RcTree::from_wiresized_flat(ctx, a, 8, rlc),
                from_wiresized_tree_reference(segs, tech, widths, a, 8, rlc));
        }

        const RcTree ref = from_wiresized_tree_reference(segs, tech, widths, a);
        EXPECT_EQ(measure_delay_wiresized(ctx, a, SimMethod::two_pole).sink_delays,
                  two_pole_sink_delays(ref));
        EXPECT_EQ(measure_delay_wiresized(ctx, a, SimMethod::transient).sink_delays,
                  transient_sink_delays(ref));
    }
}
#endif  // CONG93_HAVE_ORACLES

// ---------------------------------------------------------------------------
// Pipeline: the stage-2 compile is the only compile
// ---------------------------------------------------------------------------

TEST(FlatIr, PipelineCompilesEachNetExactlyOnce)
{
    const Technology tech = mcm_technology();
    PipelineOptions opts;
    opts.threads = 1;
    PipelineStats serial;
    const auto r1 = route_batch(97, 24, kMcmGrid, 9, tech, opts, &serial);
    EXPECT_EQ(serial.compiles_per_net(), 1.0);

    opts.threads = 4;
    PipelineStats threaded;
    const auto r4 = route_batch(97, 24, kMcmGrid, 9, tech, opts, &threaded);
    EXPECT_EQ(threaded.compiles_per_net(), 1.0);

    // Still byte-identical across thread counts with the shared compile.
    EXPECT_EQ(format_results(r1), format_results(r4));
}

TEST(FlatIr, AtreeConstructionCompilesNothing)
{
    // The constructors price their trees while they build them (each
    // quadrant in forest_to_tree's walk, the assembly as the quadrants'
    // sums), so construction compiles nothing; one compile afterwards
    // checks the prices.
    const Net net = random_nets(303, 1, kMcmGrid, 16).front();
    const std::uint64_t before = flat_tree_compiles();
    const AtreeResult r = build_atree_general(net);
    EXPECT_EQ(flat_tree_compiles() - before, 0u);
    const FlatTree ft(r.tree);
    EXPECT_EQ(r.cost, total_length(ft));
    EXPECT_EQ(r.qmst_cost, sum_all_node_path_lengths(ft));
}

TEST(FlatIr, ProcessWideCompilesEqualAtreeRoutedNets)
{
    // The process-wide counter sees every FlatTree::build, including any
    // throwaway compile a Workspace would not: a batch of N A-tree-routed
    // nets must compile exactly N times.
    const Technology tech = mcm_technology();
    const std::vector<Net> nets = random_nets(304, 20, kMcmGrid, 12);
    PipelineOptions opts;
    opts.threads = 1;
    PipelineStats stats;
    const std::uint64_t before = flat_tree_compiles();
    const auto results = route_batch(nets, tech, opts, &stats);
    const std::uint64_t compiles = flat_tree_compiles() - before;
    for (const NetRouteResult& r : results) ASSERT_EQ(r.status, RouteStatus::ok);
    EXPECT_EQ(compiles, nets.size());
    EXPECT_EQ(stats.compiles_per_net(), 1.0);
}

TEST(FlatIr, PipelineCompileCounterIsPerBatchDelta)
{
    // Reused workspaces carry tree_builds across batches; compiles_per_net
    // must measure only the current batch.
    const Technology tech = mcm_technology();
    PipelineOptions opts;
    opts.threads = 2;
    std::vector<Workspace> ws;
    for (int round = 0; round < 3; ++round) {
        PipelineStats stats;
        route_batch(500 + static_cast<std::uint64_t>(round), 10, kMcmGrid, 7,
                    tech, opts, &stats, &ws);
        EXPECT_EQ(stats.compiles_per_net(), 1.0) << "round " << round;
    }
}

#ifdef CONG93_HAVE_ORACLES
// ---------------------------------------------------------------------------
// Pointer-walk oracles (cong_oracles target)
// ---------------------------------------------------------------------------

/// Small random A-trees plus one tree per size from 12 to 200 sinks (seed
/// 9203), so the identity checks also cover nets an order of magnitude
/// larger.
std::vector<RoutingTree> oracle_trees(std::uint64_t seed, int count, int sinks,
                                      int max_study_sinks = 200)
{
    std::vector<RoutingTree> trees = random_atrees(seed, count, sinks);
    for (const int n : {12, 25, 50, 100, 200})
        if (n <= max_study_sinks)
            trees.push_back(
                build_atree_general(random_nets(9203, 1, kMcmGrid, n)[0]).tree);
    return trees;
}

TEST(FlatIrOracle, RcTreeBitIdenticalToPointerWalk)
{
    const Technology tech = mcm_technology();
    for (const RoutingTree& tree : oracle_trees(401, 5, 12)) {
        const FlatTree ft(tree);
        for (const int sections : {4, 16}) {
            for (const bool rlc : {false, true}) {
                expect_rc_equal(
                    RcTree::from_flat_tree(ft, tech, sections, rlc),
                    from_routing_tree_reference(tree, tech, sections, rlc));
            }
        }
    }
}

TEST(FlatIrOracle, SimulatorsBitIdenticalThroughFlatBuiltRc)
{
    const Technology tech = mcm_technology();
    // Backward Euler is O(timesteps * nodes): the largest study nets add
    // runtime but no coverage.
    for (const RoutingTree& tree : oracle_trees(402, 3, 9, 50)) {
        const RcTree flat_rc = RcTree::from_flat_tree(FlatTree(tree), tech);
        const RcTree ref_rc = from_routing_tree_reference(tree, tech);

        EXPECT_EQ(two_pole_sink_delays(flat_rc), two_pole_sink_delays(ref_rc));
        EXPECT_EQ(transient_sink_delays(flat_rc), transient_sink_delays(ref_rc));

        // Full waveform sample streams, not just threshold crossings.
        const auto wf = transient_waveforms(flat_rc, flat_rc.sink_nodes());
        const auto wr = transient_waveforms(ref_rc, ref_rc.sink_nodes());
        ASSERT_EQ(wf.size(), wr.size());
        for (std::size_t s = 0; s < wf.size(); ++s) {
            EXPECT_EQ(wf[s].time, wr[s].time) << "sink " << s;
            EXPECT_EQ(wf[s].value, wr[s].value) << "sink " << s;
        }
    }
}

TEST(FlatIrOracle, MetricsBitIdenticalToPointerWalk)
{
    for (const RoutingTree& tree : oracle_trees(403, 6, 13)) {
        const FlatTree ft(tree);
        EXPECT_EQ(total_length(ft), total_length_reference(tree));
        EXPECT_EQ(sum_sink_path_lengths(ft), sum_sink_path_lengths_reference(tree));
        EXPECT_EQ(sum_all_node_path_lengths(ft),
                  sum_all_node_path_lengths_reference(tree));
        EXPECT_EQ(radius(ft), radius_reference(tree));
        EXPECT_EQ(mdrt_cost(ft, 1.0, 0.5, 0.25),
                  mdrt_cost_reference(tree, 1.0, 0.5, 0.25));
    }
}

TEST(FlatIrOracle, SvgByteIdenticalToPointerWalk)
{
    for (const RoutingTree& tree : oracle_trees(404, 3, 8)) {
        const FlatTree ft(tree);
        EXPECT_EQ(to_svg(ft), to_svg_reference(tree));
        SvgOptions opts;
        opts.pixels = 321.0;
        opts.margin = 7.5;
        opts.base_stroke = 1.25;
        EXPECT_EQ(to_svg(ft, opts), to_svg_reference(tree, opts));
    }
}
#endif  // CONG93_HAVE_ORACLES

}  // namespace
}  // namespace cong93
