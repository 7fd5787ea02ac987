// Single-call high-throughput batch routing pipeline:
//   netgen -> A-tree topology -> optimal wiresizing -> delay report.
//
// route_batch() fans a batch of independent nets over a thread pool with
// chunked dynamic scheduling (parallel_for_slots), one reusable Workspace
// per worker slot.  Results are index-addressed, so serial and parallel
// runs are byte-identical (compare with format_results); per-net work never
// reads another net's state.
//
// The per-net flow:
//   0. validate_net            -- input front-end: canonicalizes duplicate /
//                                 source-coincident sinks, rejects empty or
//                                 overflow-scale nets (rtree/validate.h);
//   1. emit_atree              -- heuristic A-tree topology (the indexed
//                                 construction engine), built in the slot's
//                                 AtreeScratch and emitted in preorder
//                                 straight into the slot's FlatTree rows
//                                 (replaying a caller's unchanged quadrant
//                                 rows, see RouteReuse);
//                                 the BRBC/SPT fallback rungs build a
//                                 RoutingTree instead;
//   2. FlatTree compilation    -- in the slot's arena (FlatTree::finish for
//                                 the A-tree rows, FlatTree::build for a
//                                 fallback tree), guarded by the workspace
//                                 node cap when one is set;
//   3. uniform-width report    -- RPH bound + max sink Elmore delay via the
//                                 flat kernels, finiteness-checked;
//   4. grewsa_owsa             -- optimal wiresizing (PR 1's incremental
//                                 engine) over a WiresizeContext whose
//                                 segment arrays derive from the stage-2
//                                 compile (no second tree walk);
//   5. moment cross-check      -- max sink Elmore (-m_1) of the wiresized
//                                 RC tree (built from the same context)
//                                 through the slot's MomentWorkspace
//                                 (optional, see PipelineOptions).
//
// Each net's FlatTree is compiled into its slot arena exactly once (stage
// 2); every downstream stage consumes that compile.  PipelineStats::
// compiles_per_net() counter-verifies it per batch.
//
// Fault isolation (batch/errors.h): a failure in any per-net stage never
// aborts the batch.  Stages degrade down a ladder --
//
//   A-tree -> BRBC fallback -> SPT fallback -> uniform-width -> failed --
//
// and each net reports the rung it ended on in NetRouteResult::status, with
// every caught fault recorded in NetRouteResult::diag.  Only std::exception
// failures are isolated; anything else is a programming error and still
// propagates (aggregated by the thread pool into a BatchError).  Faults can
// be injected deterministically for soak testing (batch/fault_inject.h).
//
// Request lifecycle (batch/lifecycle.h): each batch may carry a deadline, a
// cancellation token, an admission cap and a cache memory budget (see
// PipelineOptions).  Deadline pressure reuses the ladder as a
// quality-for-latency dial -- a pressured net takes the cheap SPT rung
// directly and skips the wiresize tail (status deadline_degraded, still
// is_routed()); a cancelled net stops at the next stage boundary and reports
// status cancelled with every number zeroed; an over-cap net is refused
// before any work (status rejected_overload).  All three stamp a
// RouteStage::lifecycle diagnostic event.
#ifndef CONG93_BATCH_PIPELINE_H
#define CONG93_BATCH_PIPELINE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "batch/batch.h"
#include "batch/errors.h"
#include "batch/fault_inject.h"
#include "batch/lifecycle.h"
#include "batch/workspace.h"
#include "rtree/routing_tree.h"
#include "tech/technology.h"
#include "wiresize/assignment.h"
#include "wiresize/combined.h"

namespace cong93 {

class RouteCache;  // session/route_cache.h

struct PipelineOptions {
    int widths_r = 4;     ///< wiresizing width count (Table 6's r)
    int threads = 0;      ///< <= 0: default_thread_count()
    bool wiresize = true; ///< run the grewsa_owsa stage
    bool moment_check = true;  ///< run the wiresized moment cross-check
    /// RC discretization of the moment cross-check; fixed, so no cached
    /// result depends on it.
    static constexpr int rc_sections_per_edge = 8;
    /// Arena OOM guard: reject nets whose topology exceeds this many nodes
    /// (status failed, stage compile).  0 disables the cap.
    std::size_t max_nodes_per_net = 0;
    /// Wall-clock budget for the whole request in milliseconds; 0 disables.
    /// A net that observes the expired deadline at a stage boundary degrades
    /// (cheap SPT topology and/or skipped wiresize tail, status
    /// deadline_degraded) instead of blocking the shared pool.  Which nets
    /// observe expiry first is schedule-dependent, so wall-triggered
    /// degradations are telemetry (PipelineStats::deadline_wall_degraded),
    /// excluded from the byte-identity contract; deterministic degradation
    /// comes from FaultPlan's virtual clock instead (batch/fault_inject.h).
    double deadline_ms = 0.0;
    /// Optional client cancellation flag (not owned; may be flipped from any
    /// thread).  Checked between chunks in parallel_for_slots and at stage
    /// boundaries inside route_net: nets not finished when the token fires
    /// end as status cancelled with all numbers zero -- never half-written.
    const CancelToken* cancel = nullptr;
    /// Bounded admission: nets with batch index >= admit_cap are refused
    /// up front (status rejected_overload, no routing work, no cache probe).
    /// Deterministic by construction (a pure function of the index).
    /// 0 disables.  SessionService layers its own request-level queue cap on
    /// top of this per-batch knob.
    std::size_t admit_cap = 0;
    /// Resident-bytes budget for the attached cache: after the batch-end
    /// epoch drain, LRU entries are pressure-evicted until
    /// cache->resident_bytes() <= budget (counted in cache_evictions).
    /// 0 disables; no-op without a cache.
    std::size_t memory_budget_bytes = 0;
    /// Deterministic fault injection (soak testing); disabled by default.
    FaultPlan faults;
    /// Optional hash-consed route cache (session/route_cache.h), consulted
    /// and filled by route_batch under a deterministic single-flight rule:
    /// a serial pass in net order serves the hits and groups the misses by
    /// canonical signature; the pool routes each group's lowest-index net
    /// (the leader); a clean leader's result then serves the rest of its
    /// group, while followers of an unclean leader route individually.
    /// Clean results are interned for later batches via the batch-end epoch
    /// drain (sorted by net index), so cache contents are byte-identical
    /// serial or parallel, and format_results output is byte-identical with
    /// the cache on or off.  Ignored (bypassed entirely) when fault
    /// injection is enabled: injected faults are keyed by net index, which
    /// sharing would have to violate.  Not owned; the cache may be shared by
    /// concurrent route_batch calls (the SessionService dispatch path) and
    /// must stay alive across the call.
    RouteCache* cache = nullptr;
    /// Optional externally owned worker pool.  When set, the batch fans out
    /// over this pool (slot count = pool->thread_count(); the single-core
    /// serial clamp applies only to internally created pools) so several
    /// concurrent route_batch calls share one set of worker threads.  Each
    /// call scopes its jobs and failures in a private TaskGroup, so
    /// concurrent callers never wait on or steal each other's exceptions.
    ThreadPool* pool = nullptr;
};

/// Immutable shared width assignment: a NetRouteResult's widths behind a
/// refcount, so fanning one cached result out to thousands of duplicate nets
/// (and interning it) shares a single allocation instead of copying the
/// vector per serve.  Mutation is whole-value only -- assign a fresh
/// Assignment or clear() -- which keeps sharing sound: no holder can edit
/// the widths another net observes.  Reads convert implicitly to
/// const Assignment& (an empty vector when unset).
class SharedAssignment {
public:
    SharedAssignment() = default;
    SharedAssignment& operator=(Assignment&& a)
    {
        v_ = std::make_shared<const Assignment>(std::move(a));
        return *this;
    }
    void clear() { v_.reset(); }

    const Assignment& values() const { return v_ ? *v_ : empty_vector(); }
    operator const Assignment&() const { return values(); }
    std::size_t size() const { return values().size(); }
    bool empty() const { return values().empty(); }
    Assignment::const_iterator begin() const { return values().begin(); }
    Assignment::const_iterator end() const { return values().end(); }

    friend bool operator==(const SharedAssignment& a, const SharedAssignment& b)
    {
        return a.values() == b.values();
    }
    friend bool operator==(const SharedAssignment& a, const Assignment& b)
    {
        return a.values() == b;
    }

private:
    static const Assignment& empty_vector()
    {
        static const Assignment e;
        return e;
    }

    std::shared_ptr<const Assignment> v_;
};

/// Everything reported for one routed net.
struct NetRouteResult {
    RouteStatus status = RouteStatus::ok;  ///< ladder rung that produced this
    std::size_t nodes = 0;
    std::size_t segments = 0;
    Length wirelength = 0;
    double rph_s = 0.0;             ///< uniform-width RPH bound (Eq. 2)
    double elmore_max_s = 0.0;      ///< uniform-width max sink Elmore delay
    double wiresized_delay_s = 0.0; ///< grewsa_owsa optimum (0 when disabled
                                    ///< or degraded to uniform_width)
    double moment_elmore_max_s = 0.0;  ///< wiresized -m_1 max (0 when disabled)
    SharedAssignment assignment;    ///< optimal widths (empty when disabled)
    NetDiagnostic diag;             ///< every fault caught for this net
};

struct PipelineStats {
    int threads = 1;       ///< requested worker-slot count
    /// Pool threads actually spawned: equals `threads` except on a
    /// single-core host (hardware_concurrency() == 1), where the batch runs
    /// serially -- a pool there only adds context switches -- and on batches
    /// too small to fan out.  Results are byte-identical either way.
    int pool_threads = 1;
    double seconds = 0.0;
    /// This batch's workspace telemetry: the delta of the slot workspaces'
    /// counters over the call, so reused and fresh workspaces report alike
    /// and summing the stats of several batches stays exact.
    /// counters.tree_builds counts the batch's FlatTree compilations.
    WorkspaceCounters counters;
    std::uint64_t nets = 0;      ///< nets in the batch
    /// Nets that entered the route ladder this batch: the batch minus nets
    /// served from the cache, refused by admit_cap, or cancelled before
    /// they started.  The same count with or without a cache.
    std::uint64_t nets_routed = 0;

    // Route-cache telemetry for this batch (all zero without a cache).
    std::uint64_t cache_hits = 0;   ///< nets served from pre-existing entries
    std::uint64_t cache_misses = 0; ///< distinct signatures actually routed
    std::uint64_t cache_shared = 0; ///< nets served by in-batch single-flight
                                    ///< sharing from a leader routed here
    std::uint64_t cache_evictions = 0;  ///< LRU evictions caused by this batch
    /// Approximate bytes resident in the attached cache after this batch's
    /// epoch drain (0 without a cache).  Deterministic for a fixed request
    /// history against a private cache; under concurrent sharing it reflects
    /// whatever interleaving actually happened.
    std::uint64_t resident_bytes = 0;
    /// Cache-lock acquisitions this batch's probes made that had to wait
    /// (the name predates the single-lock cache; the end-to-end benchmark
    /// reads it).  Schedule-dependent telemetry: NOT covered by the
    /// determinism contract, never part of diffed output.
    std::uint64_t cache_shard_contention = 0;

    // Outcome tally (tally_outcomes, run serially after the barrier).
    std::uint64_t nets_ok = 0;
    std::uint64_t nets_fallback = 0;       ///< fallback_brbc + fallback_spt
    std::uint64_t nets_uniform_width = 0;
    std::uint64_t nets_deadline_degraded = 0;  ///< deadline-pressured nets
    std::uint64_t nets_invalid = 0;
    std::uint64_t nets_cancelled = 0;      ///< cancelled before finishing
    std::uint64_t nets_rejected = 0;       ///< refused by admission control
    std::uint64_t nets_failed = 0;
    std::uint64_t fault_events = 0;        ///< total diagnostic events
    /// Nets whose degradation was triggered by the WALL clock (as opposed to
    /// the deterministic virtual clock).  Schedule-dependent telemetry: NOT
    /// covered by the determinism contract, never part of diffed output --
    /// exactly like cache_shard_contention.
    std::uint64_t deadline_wall_degraded = 0;

    /// Nets that ended below the full flow (degraded or worse).
    std::uint64_t nets_not_ok() const
    {
        return nets_fallback + nets_uniform_width + nets_deadline_degraded +
               nets_invalid + nets_cancelled + nets_rejected + nets_failed;
    }

    // Rates, derived from the counts above so that summing the counts of
    // several batches (accumulate_pipeline_stats) keeps them exact.

    double nets_per_sec() const
    {
        return seconds > 0.0 ? static_cast<double>(nets) / seconds : 0.0;
    }
    /// Every consumer stage shares the stage-2 compile, so a clean batch
    /// without a route cache measures exactly 1.0; nets that fail before the
    /// compile stage -- and, with a cache attached, nets served by result
    /// sharing -- pull it below 1.0.
    double compiles_per_net() const { return ratio(counters.tree_builds, nets); }
    /// Per net that entered the ladder (nets_routed), so cache-served,
    /// refused and cut-off nets leave the denominator: the share-aware
    /// once-compiled invariant, <= 1.0 always and exactly 1.0 for a clean
    /// batch.
    double compiles_per_routed_net() const
    {
        return ratio(counters.tree_builds, nets_routed);
    }

    /// Recounts the outcome tally (nets_ok .. nets_failed, fault_events)
    /// from a batch's results, replacing what was there.  route_batch calls
    /// it after the barrier; route_stream calls it again once reader-
    /// rejected items have been rewritten to invalid_input.
    void tally_outcomes(const std::vector<NetRouteResult>& results);

private:
    static double ratio(std::uint64_t num, std::uint64_t den)
    {
        return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
    }
};

/// Routes every net of the batch; results are in net order regardless of
/// thread count, and a per-net failure degrades that net only (see header
/// comment).  When `workspaces` is supplied its entries are reused (and it
/// is grown to the slot count) so repeated batches reuse their arenas
/// (what a net still allocates is listed in batch/workspace.h); each entry
/// must not be in use by any other concurrent call.
std::vector<NetRouteResult> route_batch(const std::vector<Net>& nets,
                                        const Technology& tech,
                                        const PipelineOptions& opts = {},
                                        PipelineStats* stats = nullptr,
                                        std::vector<Workspace>* workspaces = nullptr);

/// Caller-supplied per-net diagnostic seeds (diag_seeds.size() must equal
/// nets.size(); throws std::invalid_argument otherwise).  Each result's
/// NetDiagnostic::net_seed is diag_seeds[i] -- the hook that lets streamed
/// workload sources (workload/net_source.h) carry generator seeds through
/// chunked routing exactly as the seeded front-end below records them.
///
/// `overlap`, when set, runs once on the calling thread: while the pool
/// routes the batch (inside PipelineStats::seconds), or -- on the serial
/// path -- after the last net and outside the timed window.  It must not
/// touch `nets`, `diag_seeds` or the workspaces.  route_stream pulls its
/// next chunk here.
std::vector<NetRouteResult> route_batch(const std::vector<Net>& nets,
                                        const std::vector<std::uint64_t>& diag_seeds,
                                        const Technology& tech,
                                        const PipelineOptions& opts = {},
                                        PipelineStats* stats = nullptr,
                                        std::vector<Workspace>* workspaces = nullptr,
                                        const std::function<void()>& overlap = {});

/// Worker threads route_batch fans `opts` out over: the external pool's
/// size when one is set, else the requested thread count (opts.threads, or
/// default_thread_count()) -- capped to 1 on a single-core host
/// (hardware_concurrency() == 1), where a pool only adds context switches.
/// 1 means route_batch runs serially on the calling thread.
int resolve_pool_threads(const PipelineOptions& opts);

/// netgen front-end: generates `count` random nets (uniform terminals on
/// [0, grid]^2, seeded deterministically) and routes them; each net's
/// diagnostic carries net_seed(seed, index).
std::vector<NetRouteResult> route_batch(std::uint64_t seed, int count, Coord grid,
                                        int sink_count, const Technology& tech,
                                        const PipelineOptions& opts = {},
                                        PipelineStats* stats = nullptr,
                                        std::vector<Workspace>* workspaces = nullptr);

/// Wiresizing solver hook: solves a compiled context into the slot's
/// scratch (scratch.best), drawing its engine and buffers from the same
/// scratch.  An empty function means grewsa_owsa(ctx, scratch).  A solver
/// must be bit-identical to grewsa_owsa on its inputs for the pipeline's
/// determinism contracts to extend through it (the session engine's
/// warm-started solver is; see session/session.h).
using WiresizeSolver =
    std::function<void(const WiresizeContext&, WiresizeScratch&)>;

/// What an incremental caller lends route_single from its previous route of
/// the same net: the A-tree rows emit_atree may replay for unchanged
/// quadrants, and a wiresizing solver.  Neither changes the result; both
/// only save work.  Not owned.
struct RouteReuse {
    const AtreeRows* atree = nullptr;  ///< prior emission (emit_atree)
    WiresizeSolver solver;             ///< empty: grewsa_owsa
};

/// Routes one net through the exact per-net ladder route_batch runs
/// (validate -> topology -> compile -> report -> wiresize -> moment check),
/// against the caller's workspace, under the same opts.faults.  This is the
/// from-scratch reference the session engine's incremental results are
/// bit-compared against, and -- through `reuse` -- the session's one route:
/// after a clean A-tree route, ws.atree and ws.flat hold the emission a
/// caller can keep as AtreeRows for the next call.
NetRouteResult route_single(const Net& net, std::size_t index,
                            std::uint64_t diag_seed, const Technology& tech,
                            const PipelineOptions& opts, Workspace& ws,
                            const RouteReuse& reuse = {});

/// Stage 3 (uniform-width report) against an already-compiled FlatTree:
/// fills nodes/wirelength/rph/elmore of `r`, finiteness-checked; returns
/// true while the net is still on the full-flow rung.  `nodes` is the
/// RoutingTree node count the compile consumed.
bool route_report_compiled(const FlatTree& ft, std::size_t nodes,
                           const Technology& t, Workspace& ws,
                           NetRouteResult& r);

/// Canonical full-precision serialization (hexfloat) of a result batch,
/// including each net's status and diagnostic events; equal strings <=>
/// byte-identical results.  Used by the determinism tests.
std::string format_results(const std::vector<NetRouteResult>& results);

}  // namespace cong93

#endif  // CONG93_BATCH_PIPELINE_H
