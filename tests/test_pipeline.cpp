// Batch pipeline & flat-kernel tests: FlatTree compilation invariants,
// flat-vs-reference evaluator bit-identity (Elmore, RPH terms, wiresize
// delay/theta-phi, moments, GREWSA fixpoints), thread-pool exception
// propagation, chunked-dynamic-scheduling coverage, multi-thread
// determinism of route_batch, and workspace arena reuse.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <stdexcept>

#include "atree/generalized.h"
#include "batch/batch.h"
#include "batch/pipeline.h"
#include "batch/workspace.h"
#include "delay/elmore.h"
#include "delay/rph.h"
#include "netgen/netgen.h"
#include "rtree/flat_tree.h"
#include "rtree/metrics.h"
#include "rtree/segments.h"
#include "sim/moments.h"
#include "sim/rc_tree.h"
#include "tech/technology.h"
#include "wiresize/combined.h"
#include "wiresize/grewsa.h"

namespace cong93 {
namespace {

std::vector<RoutingTree> random_atrees(std::uint64_t seed, int count, int sinks)
{
    std::vector<RoutingTree> trees;
    for (const Net& net : random_nets(seed, count, kMcmGrid, sinks))
        trees.push_back(build_atree_general(net).tree);
    return trees;
}

// ---------------------------------------------------------------------------
// FlatTree compilation
// ---------------------------------------------------------------------------

TEST(FlatTree, MirrorsRoutingTreeStructure)
{
    for (const RoutingTree& tree : random_atrees(11, 4, 13)) {
        const FlatTree ft(tree);
        ASSERT_EQ(ft.size(), tree.node_count());
        EXPECT_EQ(ft.total_length(), total_length(tree));

        // Flat index 0 is the root; parents precede children (preorder).
        EXPECT_EQ(ft.parent()[0], -1);
        for (std::size_t i = 1; i < ft.size(); ++i) {
            ASSERT_GE(ft.parent()[i], 0);
            EXPECT_LT(ft.parent()[i], static_cast<std::int32_t>(i));
        }

        // Per-node fields round-trip through the node_of mapping.
        for (std::size_t i = 0; i < ft.size(); ++i) {
            const NodeId id = ft.node_of()[i];
            EXPECT_EQ(ft.flat_of(id), static_cast<std::int32_t>(i));
            EXPECT_EQ(ft.edge_length()[i], tree.edge_length(id));
            EXPECT_EQ(ft.path_length()[i], tree.path_length(id));
            EXPECT_EQ(ft.is_sink()[i] != 0, tree.node(id).is_sink);
        }

        // CSR children match the tree's children, in order.
        for (std::size_t i = 0; i < ft.size(); ++i) {
            const auto& kids = tree.node(ft.node_of()[i]).children;
            const std::int32_t lo = ft.child_ptr()[i];
            const std::int32_t hi = ft.child_ptr()[i + 1];
            ASSERT_EQ(static_cast<std::size_t>(hi - lo), kids.size());
            for (std::int32_t k = lo; k < hi; ++k)
                EXPECT_EQ(ft.node_of()[static_cast<std::size_t>(ft.child_idx()[k])],
                          kids[static_cast<std::size_t>(k - lo)]);
        }

        // Sinks are listed in RoutingTree::sinks() order.
        const auto sinks = tree.sinks();
        ASSERT_EQ(ft.sinks().size(), sinks.size());
        for (std::size_t k = 0; k < sinks.size(); ++k)
            EXPECT_EQ(ft.node_of()[static_cast<std::size_t>(ft.sinks()[k])],
                      sinks[k]);
    }
}

TEST(FlatTree, RebuildReusesCapacity)
{
    const auto trees = random_atrees(12, 6, 17);
    FlatTree ft;
    for (const RoutingTree& t : trees) ft.build(t);
    const std::uint64_t growths_after_warmup = ft.growths();
    for (const RoutingTree& t : trees) ft.build(t);
    EXPECT_EQ(ft.builds(), 2 * trees.size());
    // Second pass over the same trees never exceeds the high-water mark.
    EXPECT_EQ(ft.growths(), growths_after_warmup);
}

TEST(RoutingTree, BufferReuseOverloadsMatch)
{
    for (const RoutingTree& tree : random_atrees(13, 3, 9)) {
        std::vector<NodeId> buf{42};  // stale contents must be cleared
        tree.preorder(buf);
        EXPECT_EQ(buf, tree.preorder());
        tree.sinks(buf);
        EXPECT_EQ(buf, tree.sinks());
    }
}

// ---------------------------------------------------------------------------
// Flat kernels vs reference twins (bit-identical); the twins live in the
// cong_oracles target, so this section needs CONG93_BUILD_ORACLES=ON.
// ---------------------------------------------------------------------------

#ifdef CONG93_HAVE_ORACLES

TEST(FlatKernels, ElmoreBitIdenticalToReference)
{
    const Technology tech = mcm_technology();
    for (const RoutingTree& tree : random_atrees(21, 6, 15)) {
        const auto flat = elmore_all_sinks(tree, tech);
        const auto ref = elmore_all_sinks_reference(tree, tech);
        ASSERT_EQ(flat.size(), ref.size());
        for (std::size_t i = 0; i < flat.size(); ++i)
            EXPECT_EQ(flat[i], ref[i]) << "sink " << i;
    }
}

TEST(FlatKernels, RphTermsBitIdenticalToReference)
{
    const Technology tech = mcm_technology();
    for (const RoutingTree& tree : random_atrees(22, 6, 15)) {
        const RphTerms flat = rph_terms(tree, tech);
        const RphTerms ref = rph_terms_reference(tree, tech);
        EXPECT_EQ(flat.t1, ref.t1);
        EXPECT_EQ(flat.t2, ref.t2);
        EXPECT_EQ(flat.t3, ref.t3);
        EXPECT_EQ(flat.t4, ref.t4);
        // And the closed forms still agree with the grid-node walk.
        EXPECT_NEAR(flat.total(), rph_delay_bruteforce(tree, tech),
                    1e-12 * flat.total());
    }
}

TEST(FlatKernels, WiresizeDelayAndTermsBitIdentical)
{
    const Technology tech = mcm_technology();
    std::mt19937_64 rng(23);
    for (const RoutingTree& tree : random_atrees(23, 5, 12)) {
        const SegmentDecomposition segs(tree);
        const WiresizeContext ctx(segs, tech, WidthSet::uniform_steps(4));
        for (int trial = 0; trial < 8; ++trial) {
            Assignment a(segs.count());
            for (auto& w : a) w = static_cast<int>(rng() % 4);
            EXPECT_EQ(ctx.delay(a), ctx.delay_reference(a));
            const auto ft = ctx.terms(a);
            const auto rt = ctx.terms_reference(a);
            EXPECT_EQ(ft.t1, rt.t1);
            EXPECT_EQ(ft.t2, rt.t2);
            EXPECT_EQ(ft.t3, rt.t3);
            EXPECT_EQ(ft.t4, rt.t4);
            const std::size_t i = rng() % segs.count();
            const auto ftp = ctx.theta_phi_fast(a, i);
            const auto rtp = ctx.theta_phi_fast_reference(a, i);
            EXPECT_EQ(ftp.theta, rtp.theta);
            EXPECT_EQ(ftp.phi, rtp.phi);
        }
    }
}

TEST(FlatKernels, MomentsBitIdenticalToReference)
{
    // The flat kernel reproduces the seed moment recursion bit for bit.
    const Technology tech = mcm_technology();
    MomentWorkspace ws;
    for (const RoutingTree& tree : random_atrees(24, 4, 10)) {
        const RcTree rc = RcTree::from_routing_tree(tree, tech, 8);
        const auto& flat = compute_moments(rc, 3, ws);
        const auto ref = compute_moments_reference(rc, 3);
        for (int q = 0; q < 3; ++q)
            for (std::size_t i = 0; i < rc.size(); ++i)
                EXPECT_EQ(flat[static_cast<std::size_t>(q)][i],
                          ref[static_cast<std::size_t>(q)][i])
                    << "order " << q << " node " << i;
    }
    // Re-evaluating a same-size problem must not grow the scratch.
    const std::uint64_t growths = ws.growths;
    const RcTree rc =
        RcTree::from_routing_tree(random_atrees(24, 1, 10)[0], tech, 8);
    compute_moments(rc, 3, ws);
    EXPECT_EQ(ws.growths, growths);
    EXPECT_EQ(ws.evals, 5u);

    // RLC trees take the inductance branch of the recursion; order 4 makes
    // the m_{q-2} coupling matter.
    MomentWorkspace rlc_ws;
    for (const RoutingTree& tree : random_atrees(38, 3, 9)) {
        const RcTree rlc = RcTree::from_routing_tree(tree, tech, 8, true);
        ASSERT_TRUE(rlc.has_inductance());
        const auto& flat = compute_moments(rlc, 4, rlc_ws);
        const auto ref = compute_moments_reference(rlc, 4);
        for (int q = 0; q < 4; ++q)
            for (std::size_t i = 0; i < rlc.size(); ++i)
                EXPECT_EQ(flat[static_cast<std::size_t>(q)][i],
                          ref[static_cast<std::size_t>(q)][i])
                    << "rlc order " << q << " node " << i;
    }
}

TEST(FlatKernels, GrewsaFixpointBitIdenticalToReference)
{
    const Technology tech = mcm_technology();
    for (const RoutingTree& tree : random_atrees(25, 4, 14)) {
        const SegmentDecomposition segs(tree);
        const WiresizeContext ctx(segs, tech, WidthSet::uniform_steps(4));
        const GrewsaResult fast = grewsa_from_min(ctx);
        const GrewsaResult ref =
            grewsa_reference(ctx, min_assignment(segs.count()));
        EXPECT_EQ(fast.assignment, ref.assignment);
        EXPECT_EQ(fast.delay, ref.delay);
        EXPECT_EQ(fast.sweeps, ref.sweeps);
    }
}

#endif  // CONG93_HAVE_ORACLES

// ---------------------------------------------------------------------------
// Thread pool: exception propagation & dynamic scheduling
// ---------------------------------------------------------------------------

TEST(ThreadPool, WorkerExceptionRethrownOnSubmitter)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        parallel_for_index(pool, 64,
                           [](std::size_t i) {
                               if (i == 17)
                                   throw std::runtime_error("boom at 17");
                           }),
        std::runtime_error);
    // The pool survives and is reusable after a failure.
    std::atomic<int> ran{0};
    parallel_for_index(pool, 8, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, BatchMapPropagatesExceptions)
{
    EXPECT_THROW(batch_map<int>(
                     32,
                     [](std::size_t i) -> int {
                         if (i == 5) throw std::invalid_argument("bad net");
                         return static_cast<int>(i);
                     },
                     4),
                 std::invalid_argument);
}

TEST(ThreadPool, ChunkedSlotsCoverEveryIndexOnce)
{
    for (const std::size_t chunk : {1u, 3u, 7u, 100u}) {
        ThreadPool pool(4);
        constexpr std::size_t kN = 97;
        std::vector<std::atomic<int>> hits(kN);
        std::vector<std::atomic<int>> slot_of(kN);
        for (std::size_t i = 0; i < kN; ++i) {
            hits[i] = 0;
            slot_of[i] = -1;
        }
        parallel_for_slots(
            pool, kN,
            [&](std::size_t i, int slot) {
                ++hits[i];
                slot_of[i] = slot;
            },
            chunk);
        for (std::size_t i = 0; i < kN; ++i) {
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
            EXPECT_GE(slot_of[i].load(), 0);
            EXPECT_LT(slot_of[i].load(), 4);
        }
    }
}

// ---------------------------------------------------------------------------
// route_batch: determinism, reuse, reporting
// ---------------------------------------------------------------------------

TEST(Pipeline, ParallelByteIdenticalToSerial)
{
    const Technology tech = mcm_technology();
    const auto nets = random_nets(31, 10, kMcmGrid, 9);

    PipelineOptions serial;
    serial.threads = 1;
    const auto base = format_results(route_batch(nets, tech, serial));
    EXPECT_FALSE(base.empty());

    for (const int threads : {2, 4}) {
        for (const std::size_t chunk : {1u, 3u}) {
            PipelineOptions par;
            par.threads = threads;
            par.chunk = chunk;
            PipelineStats stats;
            const auto out = format_results(route_batch(nets, tech, par, &stats));
            EXPECT_EQ(out, base) << "threads=" << threads << " chunk=" << chunk;
            EXPECT_EQ(stats.threads, threads);
            EXPECT_GT(stats.nets_per_sec, 0.0);
        }
    }
}

TEST(Pipeline, HonoursEnvironmentThreadCount)
{
    // The default thread count comes from CONG93_THREADS (the CI matrix runs
    // the whole suite under CONG93_THREADS=4); whatever it resolves to, the
    // results must match the serial run byte for byte.
    const Technology tech = mcm_technology();
    const auto nets = random_nets(32, 6, kMcmGrid, 7);
    PipelineOptions defaults;  // threads = 0 -> default_thread_count()
    PipelineOptions serial;
    serial.threads = 1;
    PipelineStats stats;
    const auto out = format_results(route_batch(nets, tech, defaults, &stats));
    EXPECT_EQ(out, format_results(route_batch(nets, tech, serial)));
    EXPECT_EQ(stats.threads, default_thread_count());
}

TEST(Pipeline, WorkspaceArenaIsReusedAcrossBatches)
{
    const Technology tech = mcm_technology();
    const auto nets = random_nets(33, 8, kMcmGrid, 8);
    PipelineOptions opts;
    opts.threads = 1;  // one workspace sees every net -> exact reuse check

    std::vector<Workspace> ws;
    PipelineStats first, second;
    route_batch(nets, tech, opts, &first, &ws);
    route_batch(nets, tech, opts, &second, &ws);

    EXPECT_EQ(first.counters.tree_builds, nets.size());
    EXPECT_EQ(second.counters.tree_builds, 2 * nets.size());
    // The warmed-up arena never touches the allocator again: no buffer of
    // the second batch outgrew the first batch's high-water mark.
    EXPECT_EQ(second.counters.tree_growths, first.counters.tree_growths);
    EXPECT_EQ(second.counters.moment_growths, first.counters.moment_growths);
    EXPECT_EQ(second.counters.scratch_growths, first.counters.scratch_growths);
}

TEST(Pipeline, ReportsConsistentDelays)
{
    const Technology tech = mcm_technology();
    PipelineStats stats;
    const auto results = route_batch(41, 5, kMcmGrid, 8, tech, {}, &stats);
    ASSERT_EQ(results.size(), 5u);
    for (const NetRouteResult& r : results) {
        EXPECT_GT(r.nodes, 8u);
        EXPECT_GT(r.segments, 0u);
        EXPECT_GT(r.wirelength, 0);
        // RPH bound dominates the Elmore delay at every sink.
        EXPECT_GE(r.rph_s, r.elmore_max_s);
        EXPECT_GT(r.elmore_max_s, 0.0);
        // Optimal wiresizing cannot be worse than the uniform-width bound
        // (delay(f_lower) reduces to Eq. 2; allow for the code-path epsilon).
        EXPECT_LE(r.wiresized_delay_s, r.rph_s * (1.0 + 1e-9));
        EXPECT_GT(r.wiresized_delay_s, 0.0);
        EXPECT_GT(r.moment_elmore_max_s, 0.0);
        EXPECT_EQ(r.assignment.size(), r.segments);
    }
    EXPECT_EQ(stats.counters.tree_builds, 5u);
    EXPECT_EQ(stats.counters.moment_evals, 5u);
}

TEST(Pipeline, EmptyAndDegenerateBatches)
{
    const Technology tech = mcm_technology();
    EXPECT_TRUE(route_batch(std::vector<Net>{}, tech).empty());

    // Single-sink nets exercise the smallest trees end to end.
    const auto results = route_batch(43, 3, kMcmGrid, 1, tech);
    ASSERT_EQ(results.size(), 3u);
    for (const NetRouteResult& r : results) EXPECT_GT(r.wiresized_delay_s, 0.0);
}

}  // namespace
}  // namespace cong93
