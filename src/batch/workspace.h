// Per-thread reusable scratch arenas for batch routing work.
//
// Every stage of the per-net pipeline historically allocated fresh vectors
// per call (preorder buffers, subtree-capacitance scratch, moment rows,
// the wiresizing context and solvers).  A Workspace owns one instance of
// each reusable buffer; a batch driver keeps one Workspace per worker slot
// (see parallel_for_slots) and threads it through every net the slot
// processes, so after warm-up the arenas stop allocating.  What a net
// still allocates is what outlives it or is built fresh on purpose: its
// result's assignment and the moment cross-check's RcTree (about 12 per
// net in all; test_alloc_count bounds it).
//
// Lifetime rules:
//   * a Workspace is owned by exactly one worker slot for the duration of a
//     parallel_for_slots call -- never shared between concurrent slots;
//   * buffers only grow; shrinking is never needed because every kernel
//     (re)sizes or clears what it reads -- except after a net the node cap
//     refuses on the A-tree rung, whose rows and forest were built before
//     the cap could see their size (release_atree());
//   * contents are scratch: nothing read out of a Workspace survives the
//     net that produced it except through the index-addressed output slot,
//     or a copy its caller takes right after route_single (the session's
//     AtreeRows::capture).
//
// counters() aggregates reuse telemetry (compilations vs capacity growths)
// so benchmarks and tests can prove buffers are actually being reused: on a
// warmed-up workspace, builds keep increasing while growths stay flat.
#ifndef CONG93_BATCH_WORKSPACE_H
#define CONG93_BATCH_WORKSPACE_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "atree/generalized.h"
#include "rtree/flat_tree.h"
#include "sim/moments.h"
#include "wiresize/combined.h"

namespace cong93 {

/// Aggregated allocation telemetry of one or more Workspaces.
struct WorkspaceCounters {
    std::uint64_t tree_builds = 0;     ///< FlatTree compilations
    std::uint64_t tree_growths = 0;    ///< compilations that grew the arrays
    std::uint64_t moment_evals = 0;    ///< moment-kernel calls
    std::uint64_t moment_growths = 0;  ///< calls that grew the moment scratch
    std::uint64_t scratch_growths = 0; ///< growths of the plain scratch vectors
    std::uint64_t atree_growths = 0;   ///< A-tree constructions that grew
                                       ///< the slot's AtreeScratch
    std::uint64_t wiresize_growths = 0;  ///< wiresized nets that grew the
                                         ///< slot's WiresizeScratch
    std::uint64_t arena_rejects = 0;   ///< nets rejected by guard_nodes caps
    /// Nets answered by the route cache / single-flight result sharing
    /// instead of a compile (batch/pipeline.cpp).  Distinguishes "served"
    /// from "compiled" so per-net compile accounting stays meaningful:
    /// tree_builds ~= nets - results_served on a clean cached batch, and
    /// PipelineStats::compiles_per_net() may legitimately drop below 1.0.
    std::uint64_t results_served = 0;

    WorkspaceCounters& operator+=(const WorkspaceCounters& o)
    {
        tree_builds += o.tree_builds;
        tree_growths += o.tree_growths;
        moment_evals += o.moment_evals;
        moment_growths += o.moment_growths;
        scratch_growths += o.scratch_growths;
        atree_growths += o.atree_growths;
        wiresize_growths += o.wiresize_growths;
        arena_rejects += o.arena_rejects;
        results_served += o.results_served;
        return *this;
    }
    WorkspaceCounters& operator-=(const WorkspaceCounters& o)
    {
        tree_builds -= o.tree_builds;
        tree_growths -= o.tree_growths;
        moment_evals -= o.moment_evals;
        moment_growths -= o.moment_growths;
        scratch_growths -= o.scratch_growths;
        atree_growths -= o.atree_growths;
        wiresize_growths -= o.wiresize_growths;
        arena_rejects -= o.arena_rejects;
        results_served -= o.results_served;
        return *this;
    }

    /// Compatibility stub, always 1.0: nets are no longer packed into
    /// lanes.  Kept only because the end-to-end benchmark
    /// (e2ebench/src/layers.cpp) still reads it for its
    /// batch.lane_occupancy metric.
    double lane_occupancy() const { return 1.0; }
};

class Workspace {
public:
    /// Reusable compiled-tree storage; rebuild per net with flat.build(tree)
    /// or, on the A-tree rung, emit_atree(net, atree, flat) + flat.finish().
    FlatTree flat;
    /// Reusable A-tree construction storage (forest, move engine, partition
    /// and graft buffers) for emit_atree.
    AtreeScratch atree;
    /// Reusable wiresizing storage (context, width set, GREWSA engine,
    /// OWSA buffers, bound and result assignments) for route_tail.
    WiresizeScratch wiresize;
    /// Reusable moment-engine scratch (sim/moments.h).
    MomentWorkspace moments;
    /// Per-node double scratch (subtree caps etc).
    std::vector<double> caps;
    /// Per-sink double output scratch.
    std::vector<double> sink_delays;
    /// Node-id scratch (preorder / sink lists).
    std::vector<NodeId> node_scratch;

    /// Notes an upcoming use of a plain scratch vector of size n, counting a
    /// growth when the capacity does not cover it yet.  Kernels themselves
    /// stay counter-free; callers instrument the buffers they pass in.
    template <typename T>
    void note_use(const std::vector<T>& v, std::size_t n)
    {
        if (n > v.capacity()) ++scratch_growths_;
    }

    /// OOM guard for the arenas: refuses to compile a net of `nodes` nodes
    /// into this workspace when a cap is set and exceeded, so one absurd net
    /// cannot balloon a slot's buffers for the rest of the process (arenas
    /// never shrink).  Throws std::length_error and counts the reject; a cap
    /// of 0 disables the guard.
    void guard_nodes(std::size_t nodes, std::size_t cap)
    {
        if (cap == 0 || nodes <= cap) return;
        ++arena_rejects_;
        throw std::length_error("workspace arena cap: net has " +
                                std::to_string(nodes) + " nodes, cap is " +
                                std::to_string(cap));
    }

    /// Frees the FlatTree and A-tree scratch storage.  The A-tree rung emits
    /// its rows before guard_nodes sees the node count, so a net the guard
    /// refuses there calls this: the refused net leaves no oversized buffer
    /// behind.  Counters are kept.
    void release_atree()
    {
        flat.release();
        atree.release();
    }

    /// Counts nets this slot answered from the route cache / result sharing
    /// rather than by compiling (the batch driver calls this from its serial
    /// post-pass).
    void note_results_served(std::uint64_t n) { results_served_ += n; }

    /// Approximate bytes held by this workspace's arenas (capacities, not
    /// sizes: arenas never shrink, so capacity is what the process pays).
    /// Feeds the SessionService memory budget, which spans the shared cache
    /// plus every session's per-slot arenas.
    std::size_t resident_bytes() const
    {
        std::size_t n = flat.capacity_bytes() + atree.capacity_bytes() +
                        wiresize.capacity_bytes();
        n += moments.subtree.capacity() * sizeof(double);
        n += moments.subtree_pp.capacity() * sizeof(double);
        for (const auto& row : moments.m) n += row.capacity() * sizeof(double);
        n += caps.capacity() * sizeof(double);
        n += sink_delays.capacity() * sizeof(double);
        n += node_scratch.capacity() * sizeof(NodeId);
        return n;
    }

    WorkspaceCounters counters() const
    {
        WorkspaceCounters c;
        c.tree_builds = flat.builds();
        c.tree_growths = flat.growths();
        c.moment_evals = moments.evals;
        c.moment_growths = moments.growths;
        c.scratch_growths = scratch_growths_;
        c.atree_growths = atree.growths;
        c.wiresize_growths = wiresize.growths;
        c.arena_rejects = arena_rejects_;
        c.results_served = results_served_;
        return c;
    }

private:
    std::uint64_t scratch_growths_ = 0;
    std::uint64_t arena_rejects_ = 0;
    std::uint64_t results_served_ = 0;
};

}  // namespace cong93

#endif  // CONG93_BATCH_WORKSPACE_H
