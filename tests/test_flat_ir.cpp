// Canonical-IR equivalence suite: every layer downstream of topology
// construction (sim, metrics, report, rendering, wiresizing) consumes the
// FlatTree, and this file pins each ported consumer to its predecessor with
// exact comparisons -- no epsilons anywhere:
//   * RoutingTree shims vs the native FlatTree overloads (always built);
//   * flat-built WiresizeContext vs the SegmentDecomposition-built one,
//     array by array and through every evaluation entry point;
//   * the cong_oracles pointer-walk twins (RcTree construction, simulator
//     outputs, all five metrics, SVG bytes) when CONG93_BUILD_ORACLES=ON;
//   * the pipeline's one-compile-per-net guarantee via
//     PipelineStats::compiles_per_net.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "atree/generalized.h"
#include "batch/pipeline.h"
#include "batch/workspace.h"
#include "netgen/netgen.h"
#include "report/table.h"
#include "rtree/flat_tree.h"
#include "rtree/metrics.h"
#include "rtree/segments.h"
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

// ---------------------------------------------------------------------------
// RoutingTree shims vs the native FlatTree entry points (oracle-free: these
// must hold in a CONG93_BUILD_ORACLES=OFF build too).
// ---------------------------------------------------------------------------

TEST(FlatIr, MetricShimsMatchFlatOverloads)
{
    for (const RoutingTree& tree : random_atrees(301, 6, 11)) {
        const FlatTree ft(tree);
        EXPECT_EQ(total_length(tree), total_length(ft));
        EXPECT_EQ(sum_sink_path_lengths(tree), sum_sink_path_lengths(ft));
        EXPECT_EQ(sum_all_node_path_lengths(tree), sum_all_node_path_lengths(ft));
        EXPECT_EQ(radius(tree), radius(ft));
        EXPECT_EQ(mdrt_cost(tree, 1.0, 0.5, 0.25), mdrt_cost(ft, 1.0, 0.5, 0.25));
    }
}

TEST(FlatIr, RcTreeShimMatchesFlatBuilder)
{
    const Technology tech = mcm_technology();
    for (const RoutingTree& tree : random_atrees(302, 4, 9)) {
        const FlatTree ft(tree);
        for (const bool rlc : {false, true}) {
            expect_rc_equal(RcTree::from_routing_tree(tree, tech, 16, rlc),
                            RcTree::from_flat_tree(ft, tech, 16, rlc));
        }
    }
}

TEST(FlatIr, MeasureDelayShimMatchesFlatOverload)
{
    const Technology tech = mcm_technology();
    for (const RoutingTree& tree : random_atrees(303, 3, 8)) {
        const FlatTree ft(tree);
        for (const SimMethod m : {SimMethod::two_pole, SimMethod::transient}) {
            const DelayReport a = measure_delay(tree, tech, m);
            const DelayReport b = measure_delay(ft, tech, m);
            EXPECT_EQ(a.sink_delays, b.sink_delays);
            EXPECT_EQ(a.mean, b.mean);
            EXPECT_EQ(a.max, b.max);
        }
    }
}

TEST(FlatIr, SvgShimMatchesFlatRenderer)
{
    for (const RoutingTree& tree : random_atrees(304, 3, 7)) {
        const FlatTree ft(tree);
        EXPECT_EQ(to_svg(tree), to_svg(ft));
    }
}

TEST(FlatIr, SummarizeNetMatchesMetrics)
{
    for (const RoutingTree& tree : random_atrees(305, 4, 10)) {
        const FlatTree ft(tree);
        const NetSummary s = summarize_net(ft);
        EXPECT_EQ(s.nodes, tree.node_count());
        EXPECT_EQ(s.sinks, tree.sinks().size());
        EXPECT_EQ(s.length, total_length(tree));
        EXPECT_EQ(s.radius, radius(tree));
        EXPECT_EQ(s.sum_sink_path_lengths, sum_sink_path_lengths(tree));
    }
}

// ---------------------------------------------------------------------------
// Flat-built WiresizeContext vs the SegmentDecomposition-built one
// ---------------------------------------------------------------------------

TEST(FlatIr, WiresizeContextFlatBuildMatchesLegacyArrays)
{
    const Technology tech = mcm_technology();
    for (const RoutingTree& tree : random_atrees(306, 5, 12)) {
        const FlatTree ft(tree);
        const SegmentDecomposition segs(tree);
        const WiresizeContext legacy(segs, tech, WidthSet::uniform_steps(4));
        const WiresizeContext flat(ft, tech, WidthSet::uniform_steps(4));

        ASSERT_EQ(flat.segment_count(), legacy.segment_count());
        EXPECT_EQ(flat.seg_parent(), legacy.seg_parent());
        EXPECT_EQ(flat.seg_length(), legacy.seg_length());
        EXPECT_EQ(flat.seg_child_ptr(), legacy.seg_child_ptr());
        EXPECT_EQ(flat.seg_child_idx(), legacy.seg_child_idx());
        EXPECT_EQ(flat.seg_roots(), legacy.seg_roots());
        EXPECT_EQ(flat.tail_is_sink(), legacy.tail_is_sink());
        for (std::size_t i = 0; i < flat.segment_count(); ++i) {
            EXPECT_EQ(flat.tail_cap(i), legacy.tail_cap(i)) << "segment " << i;
            EXPECT_EQ(flat.downstream_sink_cap(i), legacy.downstream_sink_cap(i))
                << "segment " << i;
        }

        // Provenance accessors: exactly one origin each.
        EXPECT_EQ(flat.flat(), &ft);
        EXPECT_EQ(legacy.flat(), nullptr);
        EXPECT_EQ(&legacy.segs(), &segs);
        EXPECT_THROW(flat.segs(), std::logic_error);
        EXPECT_FALSE(flat.seg_tail_flat().empty());
        EXPECT_TRUE(legacy.seg_tail_flat().empty());

        // seg_tail_flat points at the actual tail nodes: a sink tail is a
        // sink node, and the tail's path length equals the segment's span.
        for (std::size_t i = 0; i < flat.segment_count(); ++i) {
            const auto tail = static_cast<std::size_t>(flat.seg_tail_flat()[i]);
            ASSERT_LT(tail, ft.size());
            EXPECT_EQ(flat.tail_is_sink()[i] != 0, ft.is_sink()[tail] != 0);
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
            const WiresizeContext legacy(segs, tech, WidthSet::uniform_steps(4));
            const WiresizeContext flat(ft, tech, WidthSet::uniform_steps(4));
            const std::size_t n = flat.segment_count();

            std::mt19937_64 rng(seed * 1000003);
            for (int trial = 0; trial < 4; ++trial) {
                Assignment a(n, 0);
                for (std::size_t i = 0; i < n; ++i)
                    a[i] = static_cast<int>(rng() % 4);

                EXPECT_EQ(flat.delay(a), legacy.delay(a));
                const auto tf = flat.terms(a);
                const auto tl = legacy.terms(a);
                EXPECT_EQ(tf.t1, tl.t1);
                EXPECT_EQ(tf.t2, tl.t2);
                EXPECT_EQ(tf.t3, tl.t3);
                EXPECT_EQ(tf.t4, tl.t4);
                for (std::size_t i = 0; i < n; ++i) {
                    const auto pf = flat.theta_phi_fast(a, i);
                    const auto pl = legacy.theta_phi_fast(a, i);
                    EXPECT_EQ(pf.theta, pl.theta) << "segment " << i;
                    EXPECT_EQ(pf.phi, pl.phi) << "segment " << i;
                    EXPECT_EQ(flat.locally_optimal_width(a, i, 3),
                              legacy.locally_optimal_width(a, i, 3));
                }
            }

            // The full combined optimization reaches the same fixpoint.
            const CombinedResult cf = grewsa_owsa(flat);
            const CombinedResult cl = grewsa_owsa(legacy);
            EXPECT_EQ(cf.assignment, cl.assignment);
            EXPECT_EQ(cf.delay, cl.delay);
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
        const WiresizeContext flat(ft, tech, widths);
        const WiresizeContext legacy(segs, tech, widths);
        const Assignment a = grewsa_owsa(flat).assignment;

        for (const bool rlc : {false, true}) {
            expect_rc_equal(
                RcTree::from_wiresized_flat(flat, a, 8, rlc),
                RcTree::from_wiresized_tree(segs, tech, widths, a, 8, rlc));
        }
        // from_wiresized_flat needs the originating FlatTree.
        EXPECT_THROW(RcTree::from_wiresized_flat(legacy, a), std::logic_error);

        for (const SimMethod m : {SimMethod::two_pole, SimMethod::transient}) {
            const DelayReport df = measure_delay_wiresized(flat, a, m);
            const DelayReport dl = measure_delay_wiresized(segs, tech, widths, a, m);
            EXPECT_EQ(df.sink_delays, dl.sink_delays);
            EXPECT_EQ(df.mean, dl.mean);
            EXPECT_EQ(df.max, dl.max);
        }
    }
}

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
    EXPECT_EQ(serial.compiles_per_net, 1.0);

    opts.threads = 4;
    PipelineStats threaded;
    const auto r4 = route_batch(97, 24, kMcmGrid, 9, tech, opts, &threaded);
    EXPECT_EQ(threaded.compiles_per_net, 1.0);

    // Still byte-identical across thread counts with the shared compile.
    EXPECT_EQ(format_results(r1), format_results(r4));
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
        EXPECT_EQ(stats.compiles_per_net, 1.0) << "round " << round;
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
                    RcTree::from_routing_tree_reference(tree, tech, sections, rlc));
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
        const RcTree ref_rc = RcTree::from_routing_tree_reference(tree, tech);

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
