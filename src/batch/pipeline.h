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
//   1. build_atree_general     -- heuristic A-tree topology (PR 2's indexed
//                                 construction engine);
//   2. FlatTree compilation    -- into the slot's arena (guarded by the
//                                 workspace node cap when one is set);
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
// compiles_per_net counter-verifies it per batch.
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
    /// Dynamic-scheduling chunk size; 0 sizes chunks adaptively (~8 pulls
    /// per worker, clamped to [1, 64]) so cheap small batches do not pay one
    /// atomic round-trip per net.
    std::size_t chunk = 0;
    bool wiresize = true; ///< run the grewsa_owsa stage
    bool moment_check = true;  ///< run the wiresized moment cross-check
    int rc_sections_per_edge = 8;  ///< RC discretization of the cross-check
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
    /// Deterministic fault injection (soak testing).  When this plan is
    /// disabled, $CONG93_FAULT_INJECT is consulted instead; both off means
    /// no injection.
    FaultPlan faults;
    /// Optional hash-consed route cache (session/route_cache.h), consulted
    /// and filled by route_batch under a deterministic single-flight rule
    /// executed inside the parallel region: the first arrival of each
    /// canonical signature routes (the leader), later arrivals park on the
    /// owning cache shard's flight table and are served the leader's
    /// published result; clean results are interned for later batches via
    /// the batch-end epoch drain (sorted by net index), so cache contents --
    /// like format_results output -- are byte-identical with the cache on or
    /// off, serial or parallel, at any shard count.  Ignored (bypassed
    /// entirely) when fault injection is enabled: injected faults are keyed
    /// by net index, which sharing would have to violate.  Not owned; the
    /// cache may be shared by concurrent route_batch calls (the
    /// SessionService dispatch path) and must stay alive across the call.
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
    double nets_per_sec = 0.0;
    WorkspaceCounters counters;  ///< aggregated over the slot workspaces
    /// FlatTree compilations per net in this batch (tree_builds delta over
    /// the slot workspaces / net count).  Every consumer stage shares the
    /// stage-2 compile, so a clean batch without a route cache measures
    /// exactly 1.0; nets that fail before the compile stage -- and, with a
    /// cache attached, nets served by result sharing -- pull it below 1.0.
    double compiles_per_net = 0.0;
    /// FlatTree compilations per net that actually executed the route
    /// ladder (cache-served nets excluded from the denominator).  This is
    /// the share-aware once-compiled invariant: <= 1.0 always, exactly 1.0
    /// for a clean batch.
    double compiles_per_routed_net = 0.0;
    /// Nets that executed the route ladder this batch (= batch size minus
    /// cache-served nets).
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
    /// Cache-shard lock acquisitions this batch that had to wait (probe
    /// path).  Schedule-dependent telemetry: NOT covered by the determinism
    /// contract, never part of diffed output.
    std::uint64_t cache_shard_contention = 0;
    /// Followers that blocked on a still-routing single-flight leader.
    /// Schedule-dependent telemetry, like cache_shard_contention (the serial
    /// schedule never parks).
    std::uint64_t single_flight_parked = 0;

    // Outcome tally (reduced serially in index order after the barrier).
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
};

/// Routes every net of the batch; results are in net order regardless of
/// thread count, and a per-net failure degrades that net only (see header
/// comment).  When `workspaces` is supplied its entries are reused (and it
/// is grown to the slot count) so repeated batches stay allocation-free;
/// each entry must not be in use by any other concurrent call.
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
std::vector<NetRouteResult> route_batch(const std::vector<Net>& nets,
                                        const std::vector<std::uint64_t>& diag_seeds,
                                        const Technology& tech,
                                        const PipelineOptions& opts = {},
                                        PipelineStats* stats = nullptr,
                                        std::vector<Workspace>* workspaces = nullptr);

/// netgen front-end: generates `count` random nets (uniform terminals on
/// [0, grid]^2, seeded deterministically) and routes them; each net's
/// diagnostic carries net_seed(seed, index).
std::vector<NetRouteResult> route_batch(std::uint64_t seed, int count, Coord grid,
                                        int sink_count, const Technology& tech,
                                        const PipelineOptions& opts = {},
                                        PipelineStats* stats = nullptr,
                                        std::vector<Workspace>* workspaces = nullptr);

/// Routes one net through the exact per-net ladder route_batch runs
/// (validate -> topology -> compile -> report -> wiresize -> moment check),
/// against the caller's workspace.  The fault plan resolves exactly as in
/// route_batch (explicit options, else $CONG93_FAULT_INJECT).  This is the
/// from-scratch reference the session engine's incremental results are
/// bit-compared against.
NetRouteResult route_single(const Net& net, std::size_t index,
                            std::uint64_t diag_seed, const Technology& tech,
                            const PipelineOptions& opts, Workspace& ws);

/// Wiresizing solver hook for route_tail_compiled: maps a compiled context
/// to a CombinedResult.  An empty function means grewsa_owsa.  A solver must
/// be bit-identical to grewsa_owsa on its inputs for the pipeline's
/// determinism contracts to extend through it (the session engine's
/// warm-started solver is; see session/session.h).
using WiresizeSolver = std::function<CombinedResult(const WiresizeContext&)>;

/// Stage 3 (uniform-width report) against an already-compiled FlatTree:
/// fills nodes/wirelength/rph/elmore of `r`, finiteness-checked; returns
/// true while the net is still on the full-flow rung.  `nodes` is the
/// RoutingTree node count the compile consumed.
bool route_report_compiled(const FlatTree& ft, std::size_t nodes,
                           const Technology& t, Workspace& ws,
                           NetRouteResult& r);

/// Stages 4-5 (wiresize + moment cross-check) against an already-compiled
/// FlatTree, with the wiresizing solver pluggable.  Identical composition to
/// the route_batch tail; a failure demotes `r` to the uniform_width rung.
void route_tail_compiled(const FlatTree& ft, std::size_t index,
                         const Technology& t, const PipelineOptions& opts,
                         const FaultPlan& faults, Workspace& ws,
                         NetRouteResult& r, const WiresizeSolver& solver = {});

/// Canonical full-precision serialization (hexfloat) of a result batch,
/// including each net's status and diagnostic events; equal strings <=>
/// byte-identical results.  Used by the determinism tests and the
/// BENCH_pipeline.json identity checks.
std::string format_results(const std::vector<NetRouteResult>& results);

}  // namespace cong93

#endif  // CONG93_BATCH_PIPELINE_H
