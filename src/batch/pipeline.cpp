#include "batch/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "atree/generalized.h"
#include "baseline/brbc.h"
#include "baseline/spt.h"
#include "delay/elmore.h"
#include "delay/rph.h"
#include "netgen/netgen.h"
#include "rtree/validate.h"
#include "session/route_cache.h"
#include "sim/rc_tree.h"
#include "wiresize/combined.h"

namespace cong93 {

namespace {

/// What stages 0-2 left behind for the report/tail stages.
struct FrontOutcome {
    bool alive = false;            ///< reached the report stage
    std::size_t nodes = 0;         ///< node count of the compiled tree
    const Technology* t = nullptr; ///< technology routed against (may be the
                                   ///< per-net NaN-corrupted copy)
};

/// Request-wide lifecycle state, resolved once per batch.  The plan pointer
/// carries the deterministic virtual clock (when configured); the Deadline
/// is the wall budget; wall_degraded is the schedule-dependent telemetry
/// sink for wall-triggered degradations.
struct BatchLifecycle {
    const CancelToken* cancel = nullptr;
    Deadline wall;
    const FaultPlan* plan = nullptr;
    std::atomic<std::uint64_t>* wall_degraded = nullptr;
};

/// Per-net deadline clock, checked at stage boundaries.  Under a virtual
/// clock the counter is charged the plan's injected per-stage costs (plus a
/// deterministic per-net jitter), so which nets expire is a pure function of
/// the net index -- bit-reproducible at any thread count.  The wall path is
/// inherently schedule-dependent and only feeds telemetry.
struct NetClock {
    const BatchLifecycle& lc;
    std::size_t index = 0;
    std::uint64_t ticks = 0;
    bool noted = false;

    NetClock(const BatchLifecycle& lifecycle, std::size_t net_index)
        : lc(lifecycle), index(net_index)
    {
    }

    bool vclock() const { return lc.plan != nullptr && lc.plan->virtual_clock(); }

    void charge(RouteStage stage)
    {
        if (vclock()) ticks += lc.plan->vcost_of(stage);
    }

    void charge_jitter()
    {
        if (vclock()) ticks += lc.plan->vjitter_of(index);
    }

    bool cancelled() const { return lc.cancel != nullptr && lc.cancel->cancelled(); }

    /// True when this net is deadline-pressured.  The first observation
    /// stamps a lifecycle diagnostic on `r` (deterministic text for the
    /// virtual clock; the wall message is fixed but which nets carry it is
    /// schedule-dependent and counted in the telemetry channel instead).
    bool pressured(NetRouteResult& r)
    {
        if (vclock() && ticks > lc.plan->vdeadline_ticks) {
            if (!noted) {
                noted = true;
                r.diag.note(RouteStage::lifecycle,
                            "virtual deadline exceeded: " +
                                std::to_string(ticks) + " ticks > budget " +
                                std::to_string(lc.plan->vdeadline_ticks));
            }
            return true;
        }
        if (lc.wall.expired()) {
            if (!noted) {
                noted = true;
                r.diag.note(RouteStage::lifecycle, "wall deadline exceeded");
                if (lc.wall_degraded != nullptr)
                    lc.wall_degraded->fetch_add(1, std::memory_order_relaxed);
            }
            return true;
        }
        return false;
    }
};

/// Resets `r` to the deterministic terminal form of a net the lifecycle
/// layer disposed of (cancelled / rejected): every number zero, nothing
/// half-written, one lifecycle diagnostic explaining why.
void mark_lifecycle_terminal(NetRouteResult& r, std::size_t index,
                             std::uint64_t diag_seed, RouteStatus status,
                             std::string message)
{
    r = NetRouteResult{};
    r.status = status;
    r.diag.net_index = index;
    r.diag.net_seed = diag_seed;
    r.diag.note(RouteStage::lifecycle, std::move(message));
}

void mark_cancelled(NetRouteResult& r, std::size_t index, std::uint64_t diag_seed)
{
    mark_lifecycle_terminal(r, index, diag_seed, RouteStatus::cancelled,
                            "request cancelled before this net finished");
}

void mark_rejected(NetRouteResult& r, std::size_t index, std::uint64_t diag_seed,
                   std::size_t cap)
{
    mark_lifecycle_terminal(r, index, diag_seed, RouteStatus::rejected_overload,
                            "rejected by admission control: net index " +
                                std::to_string(index) + " >= admit cap " +
                                std::to_string(cap));
}

/// Stages 0-2 (validate -> topology ladder -> compile) of one net, compiling
/// into the slot arena `ws.flat`; the A-tree rung replays the unchanged
/// quadrants of `prior` when given.  Catches std::exception at every stage
/// and degrades (see pipeline.h); writes only `r` and the slot's workspace,
/// so isolation holds by construction.
FrontOutcome route_front(const Net& raw, std::size_t index,
                         std::uint64_t diag_seed, const Technology& tech,
                         const PipelineOptions& opts, const FaultPlan& faults,
                         NetClock& clk, Workspace& ws, NetRouteResult& r,
                         Technology& corrupted_storage, const AtreeRows* prior)
{
    FrontOutcome fo;
    r.diag.net_index = index;
    r.diag.net_seed = diag_seed;

    // 0. Input-validation front-end.
    NetValidation v = validate_net(raw);
    for (std::string& note : v.notes)
        r.diag.note(RouteStage::validate, std::move(note));
    if (!v.ok) {
        r.diag.note(RouteStage::validate, std::move(v.error));
        r.status = RouteStatus::invalid_input;
        return fo;
    }
    const Net& net = v.net;

    // NaN-technology fault: route this net against corrupted parameters;
    // the report stage's finiteness guard has to catch the fallout.
    fo.t = &tech;
    if (faults.fires(index, RouteStage::report)) {
        corrupted_storage = FaultPlan::corrupt_nan(tech);
        fo.t = &corrupted_storage;
    }

    // 1. Topology ladder: A-tree, then BRBC, then SPT.  A deadline-pressured
    // net takes the cheap rung directly: SPT is the ladder's own
    // quality-for-latency dial, so pressure degrades output instead of
    // blocking the pool.  The per-net jitter (virtual clock) is charged
    // up front, which is what lets a plan expire a deterministic subset of
    // nets before any stage runs.  The A-tree rung emits its tree straight
    // into the slot arena (rows only; stage 2 finishes the compile); the
    // fallback rungs build a RoutingTree that stage 2 compiles.
    clk.charge_jitter();
    bool atree = false;
    std::optional<RoutingTree> tree;
    const bool cheap = clk.pressured(r);
    if (!cheap) {
        try {
            faults.maybe_throw(index, RouteStage::topology,
                               "injected: A-tree construction fault");
            emit_atree(net, ws.atree, ws.flat, {}, prior);
            atree = true;
        } catch (const std::exception& e) {
            r.diag.note(RouteStage::topology, e.what());
        }
        clk.charge(RouteStage::topology);
        if (!atree) {
            try {
                faults.maybe_throw(index, RouteStage::fallback,
                                   "injected: BRBC fallback fault");
                tree.emplace(build_brbc(net, 1.0));
                r.status = RouteStatus::fallback_brbc;
            } catch (const std::exception& e) {
                r.diag.note(RouteStage::fallback,
                            std::string("brbc: ") + e.what());
            }
            clk.charge(RouteStage::fallback);
        }
    }
    if (!atree && !tree) {
        try {
            tree.emplace(build_spt(net));
            r.status = cheap ? worst(r.status, RouteStatus::deadline_degraded)
                             : RouteStatus::fallback_spt;
        } catch (const std::exception& e) {
            r.diag.note(RouteStage::fallback, std::string("spt: ") + e.what());
            r.status = RouteStatus::failed;
            return fo;
        }
    }

    // 2. Compile into the arena, behind the OOM guards (the real per-batch
    // cap and, for soak runs, the injected one).
    const std::size_t nodes = atree ? ws.flat.size() : tree->node_count();
    try {
        ws.guard_nodes(nodes, opts.max_nodes_per_net);
        if (faults.fires(index, RouteStage::compile))
            ws.guard_nodes(nodes, faults.arena_cap_nodes);
        if (atree)
            ws.flat.finish();
        else
            ws.flat.build(*tree);
    } catch (const std::exception& e) {
        if (atree) ws.release_atree();
        r.diag.note(RouteStage::compile, e.what());
        r.status = RouteStatus::failed;
        return fo;
    }
    clk.charge(RouteStage::compile);

    fo.alive = true;
    fo.nodes = nodes;
    return fo;
}

/// Stages 4-5: wiresizing and its moment cross-check.  Either failing
/// demotes the net to the uniform-width rung: a wiresized result whose
/// cross-check did not pass is not reported.  `solver` substitutes for
/// grewsa_owsa when non-empty (the session engine's warm-started solver,
/// bit-identical by contract).
void route_tail(const FlatTree& ft, std::size_t index, const Technology& t,
                const PipelineOptions& opts, const FaultPlan& faults,
                NetClock& clk, Workspace& ws, NetRouteResult& r,
                const WiresizeSolver& solver)
{
    // Counts a growth of the slot's wiresize scratch however the tail ends.
    struct GrowthProbe {
        WiresizeScratch& s;
        std::size_t before = s.capacity_bytes();
        ~GrowthProbe()
        {
            if (s.capacity_bytes() > before) ++s.growths;
        }
    } probe{ws.wiresize};

    RouteStage stage = RouteStage::wiresize;
    try {
        faults.maybe_throw(index, RouteStage::wiresize,
                           "injected: wiresizing fault");
        // The segment arrays derive from the stage-2 compile: one FlatTree
        // per net feeds report, wiresizing, and the moment cross-check.
        // Context, engine, OWSA buffers and bounds are the slot's.
        const WiresizeContext& ctx = ws.wiresize.compile(ft, t, opts.widths_r);
        r.segments = ctx.segment_count();
        if (ctx.segment_count() == 0) return;
        if (solver)
            solver(ctx, ws.wiresize);
        else
            grewsa_owsa(ctx, ws.wiresize);
        const CombinedResult& best = ws.wiresize.best;
        if (!std::isfinite(best.delay))
            throw std::runtime_error("non-finite wiresized delay");
        r.wiresized_delay_s = best.delay;
        r.assignment = Assignment(best.assignment);  // outlives the scratch
        clk.charge(RouteStage::wiresize);

        if (opts.moment_check) {
            // Deadline boundary between wiresize and its cross-check: an
            // unverified wiresized result is not reported, so pressure here
            // drops the wiresized numbers and keeps the uniform-width ones.
            if (clk.pressured(r)) {
                r.status = worst(r.status, RouteStatus::deadline_degraded);
                r.wiresized_delay_s = 0.0;
                r.assignment.clear();
                return;
            }
            stage = RouteStage::moment_check;
            faults.maybe_throw(index, RouteStage::moment_check,
                               "injected: moment cross-check fault");
            const RcTree rc = RcTree::from_wiresized_flat(
                ctx, r.assignment, opts.rc_sections_per_edge);
            const auto& m = compute_moments(rc, 1, ws.moments);
            double worst_m = 0.0;
            for (const int s : rc.sink_nodes())
                worst_m = std::max(worst_m, -m[0][static_cast<std::size_t>(s)]);
            if (!std::isfinite(worst_m))
                throw std::runtime_error("non-finite moment cross-check delay");
            r.moment_elmore_max_s = worst_m;
            clk.charge(RouteStage::moment_check);
        }
    } catch (const std::exception& e) {
        r.diag.note(stage, e.what());
        r.status = worst(r.status, RouteStatus::uniform_width);
        r.wiresized_delay_s = 0.0;
        r.moment_elmore_max_s = 0.0;
        r.assignment.clear();
    }
}

/// One net straight through the ladder against the slot arena.  Stage
/// composition is identical to the seed single-function ladder; `reuse`
/// only saves work (route_single's hook).
NetRouteResult route_net(const Net& raw, std::size_t index,
                         std::uint64_t diag_seed, const Technology& tech,
                         const PipelineOptions& opts, const FaultPlan& faults,
                         const BatchLifecycle& lc, Workspace& ws,
                         const RouteReuse& reuse = {})
{
    NetRouteResult r;
    NetClock clk(lc, index);
    if (clk.cancelled()) {
        mark_cancelled(r, index, diag_seed);
        return r;
    }
    Technology corrupted;
    const FrontOutcome fo = route_front(raw, index, diag_seed, tech, opts,
                                        faults, clk, ws, r, corrupted, reuse.atree);
    if (!fo.alive) return r;
    if (clk.cancelled()) {
        mark_cancelled(r, index, diag_seed);
        return r;
    }
    if (!route_report_compiled(ws.flat, fo.nodes, *fo.t, ws, r)) return r;
    clk.charge(RouteStage::report);
    if (opts.wiresize) {
        // Deadline boundary before the tail: pressure skips wiresizing
        // entirely (the biggest per-net cost) and reports the uniform-width
        // numbers that already exist.
        if (clk.pressured(r))
            r.status = worst(r.status, RouteStatus::deadline_degraded);
        else
            route_tail(ws.flat, index, *fo.t, opts, faults, clk, ws, r,
                       reuse.solver);
    }
    return r;
}

// ---------------------------------------------------------------------------
// Single-flight grouping (cache-attached batches)
// ---------------------------------------------------------------------------

/// Translation-dependent admissibility: mirrors validate_net's coordinate
/// bound (rtree/validate.h).  Every other validate outcome is translation-
/// invariant, so signature-equal nets behave identically through the ladder;
/// the coordinate bound is the one check an out-of-range twin of an in-range
/// leader would dodge if it were served the leader's clean result.
bool cacheable_net(const Net& net)
{
    const auto in_range = [](Point p) {
        return p.x >= -kMaxRoutableCoord && p.x <= kMaxRoutableCoord &&
               p.y >= -kMaxRoutableCoord && p.y <= kMaxRoutableCoord;
    };
    if (!in_range(net.source)) return false;
    for (const Point s : net.sinks)
        if (!in_range(s)) return false;
    return true;
}

/// One signature the batch-start cache missed.  Its lowest-index net (the
/// leader) routes; every later signature-equal net of the batch follows it.
/// Leader identity is output-safe: clean results of signature-equal nets are
/// bit-identical (translation invariance), and unclean groups share nothing.
struct MissGroup {
    std::size_t leader = 0;
    std::uint64_t hash = 0;
    CachedRoute payload;  ///< the leader's result, set only when it is clean
};

std::vector<NetRouteResult> route_batch_impl(const std::vector<Net>& nets,
                                             std::uint64_t diag_seed_base,
                                             bool seeded,
                                             const std::uint64_t* diag_seeds,
                                             const Technology& tech,
                                             const PipelineOptions& opts,
                                             PipelineStats* stats,
                                             std::vector<Workspace>* workspaces,
                                             const std::function<void()>& overlap)
{
    const int threads =
        opts.threads <= 0 ? default_thread_count() : opts.threads;
    const int pool_threads = resolve_pool_threads(opts);
    const std::size_t slot_count =
        static_cast<std::size_t>(std::max(threads, pool_threads));
    std::vector<Workspace> local_ws;
    std::vector<Workspace>& ws = workspaces ? *workspaces : local_ws;
    if (ws.size() < slot_count) ws.resize(slot_count);

    // Resolve the fault plan once for the whole batch: explicit options win,
    // then the environment, else disabled.
    const FaultPlan faults =
        opts.faults.enabled ? opts.faults : FaultPlan::from_env();

    // Fault injection is keyed by net index, so sharing one routed result
    // across indices would change which faults fire: the cache is bypassed
    // outright for fault-injected batches.
    RouteCache* const cache = faults.enabled ? nullptr : opts.cache;

    // Request lifecycle, resolved once per batch.  wall_degraded collects
    // the schedule-dependent wall-expiry telemetry across worker slots.
    std::atomic<std::uint64_t> wall_degraded{0};
    BatchLifecycle lc;
    lc.cancel = opts.cancel;
    lc.wall = Deadline::after_ms(opts.deadline_ms);
    lc.plan = &faults;
    lc.wall_degraded = &wall_degraded;

    const auto seed_of = [&](std::size_t i) -> std::uint64_t {
        if (diag_seeds != nullptr) return diag_seeds[i];
        return seeded ? net_seed(diag_seed_base, i) : 0;
    };

    WorkspaceCounters counters_before;
    for (const Workspace& w : ws) counters_before += w.counters();

    std::vector<NetRouteResult> out(nets.size());

    const auto t0 = std::chrono::steady_clock::now();
    const bool serial = pool_threads <= 1 || nets.size() < 2;
    std::optional<ThreadPool> own_pool;
    ThreadPool* pool = opts.pool;
    if (!serial && pool == nullptr) pool = &own_pool.emplace(pool_threads);

    // Routes net items[k] for every k < count (items == nullptr: net k),
    // serially or on the pool with `beside` running on the calling thread.
    // Once the cancel token fires, slots stop pulling chunks, and the items
    // nobody reached end cancelled (the same form as a net route_net itself
    // cancelled).  Returns how many items entered route_net: neither cut
    // off that way nor refused by admit_cap.
    const auto run_phase = [&](std::size_t count, const std::size_t* items,
                               const std::function<void()>& beside) {
        const auto index_of = [items](std::size_t k) {
            return items != nullptr ? items[k] : k;
        };
        std::vector<std::uint8_t> visited(
            lc.cancel != nullptr ? count : std::size_t{0}, std::uint8_t{0});
        const auto work_fn = [&](std::size_t k, int slot) {
            if (lc.cancel != nullptr) visited[k] = 1;
            const std::size_t i = index_of(k);
            // Bounded admission: a pure function of the batch index, so the
            // reject set is deterministic at any thread count, and no
            // routing work runs for refused nets.
            if (opts.admit_cap != 0 && i >= opts.admit_cap)
                mark_rejected(out[i], i, seed_of(i), opts.admit_cap);
            else
                out[i] = route_net(nets[i], i, seed_of(i), tech, opts, faults,
                                   lc, ws[static_cast<std::size_t>(slot)]);
        };
        if (serial) {
            for (std::size_t k = 0; k < count; ++k) {
                if (lc.cancel != nullptr && lc.cancel->cancelled()) break;
                work_fn(k, 0);
            }
        } else {
            // Chunks sized for ~8 pulls per worker, so small phases of cheap
            // nets do not pay one atomic round-trip per net while skewed
            // ones still balance.
            const std::size_t chunk = std::clamp<std::size_t>(
                count / (static_cast<std::size_t>(pool_threads) * 8), 1, 64);
            parallel_for_slots(*pool, count, work_fn, chunk, lc.cancel, beside);
        }
        std::size_t entered = 0;
        for (std::size_t k = 0; k < count; ++k) {
            const std::size_t i = index_of(k);
            if (!visited.empty() && visited[k] == 0)
                mark_cancelled(out[i], i, seed_of(i));
            else if (opts.admit_cap == 0 || i < opts.admit_cap)
                ++entered;
        }
        return entered;
    };

    std::uint64_t hits = 0, shared = 0, routed = 0, contended = 0;
    std::uint64_t miss_groups = 0, evictions = 0, resident = 0;
    if (cache == nullptr) {
        routed = run_phase(nets.size(), nullptr, overlap);
    } else {
        // --- Grouping pass: serial, in net-index order -------------------
        // Every net is probed against the cache (a pure read of the batch-
        // start state), so hit/miss/share decisions are functions of the
        // signatures alone, never of the schedule.  Hits are served here;
        // misses are grouped by signature, and each group's lowest index
        // leads.  LRU touches and interns are deferred as epoch events and
        // replayed in net-index order by the drain below.
        const std::uint32_t config = cache->config_of(tech, opts);
        const auto serve = [&](std::size_t i, const NetRouteResult& src) {
            out[i] = src;
            out[i].diag.net_index = i;
            out[i].diag.net_seed = seed_of(i);
        };
        std::vector<CacheEpochEvent> events;
        std::vector<MissGroup> groups;
        std::unordered_map<std::uint64_t, std::vector<std::size_t>> groups_of;
        std::vector<std::size_t> solo;  // leaders and uncacheable nets
        // (net, group) of every later member of a group, in net order.
        std::vector<std::pair<std::size_t, std::size_t>> followers;
        std::size_t i = 0;
        for (; i < nets.size(); ++i) {
            if (lc.cancel != nullptr && lc.cancel->cancelled()) break;
            if (opts.admit_cap != 0 && i >= opts.admit_cap) {
                mark_rejected(out[i], i, seed_of(i), opts.admit_cap);
                continue;
            }
            const Net& net = nets[i];
            if (!cacheable_net(net)) {
                solo.push_back(i);
                continue;
            }
            const std::uint64_t hash = sig::hash_of(net, config);
            const RouteCache::ProbeResult pr = cache->probe(hash, config, net);
            if (pr.contended) ++contended;
            if (pr.payload != nullptr) {
                serve(i, *pr.payload);
                ++hits;
                events.push_back(CacheEpochEvent{i, hash, config, &net, {}, false});
                continue;
            }
            std::vector<std::size_t>& chain = groups_of[hash];
            const auto g = std::find_if(
                chain.begin(), chain.end(), [&](std::size_t id) {
                    return sig::nets_equivalent(nets[groups[id].leader], net);
                });
            if (g != chain.end()) {
                followers.emplace_back(i, *g);
            } else {
                chain.push_back(groups.size());
                groups.push_back(MissGroup{i, hash, {}});
                solo.push_back(i);
            }
        }
        for (; i < nets.size(); ++i) mark_cancelled(out[i], i, seed_of(i));

        // --- Phase 1: leaders and uncacheable nets, on the pool ----------
        routed = run_phase(solo.size(), solo.data(), overlap);

        // --- Serial step: clean leaders intern and serve their followers --
        // A group interns under its leader's index -- exactly where the
        // serial schedule inserts it.  Unclean leaders (degraded status or
        // any diagnostic; messages may embed absolute coordinates, which
        // sharing would mistranslate) share nothing: their followers route
        // individually in phase 2.
        for (MissGroup& g : groups) {
            const NetRouteResult& r = out[g.leader];
            if (r.status != RouteStatus::ok || !r.diag.empty()) continue;
            g.payload = make_cached_route(r);
            events.push_back(CacheEpochEvent{g.leader, g.hash, config,
                                             &nets[g.leader], g.payload, true});
        }
        std::vector<std::size_t> unshared;
        for (const auto& [f, g] : followers) {
            if (groups[g].payload != nullptr) {
                serve(f, *groups[g].payload);
                ++shared;
            } else {
                unshared.push_back(f);
            }
        }

        // --- Phase 2: followers of unclean leaders, on the pool ----------
        routed += run_phase(unshared.size(), unshared.data(), {});
        miss_groups = groups.size();

        // --- Epoch drain: replay deferred cache effects in net-index order
        // so the cache leaves this batch byte-identical at any thread count.
        evictions = cache->drain(events);
        // Pressure eviction: hold the cache under the request's resident
        // budget before the next allocation has to fail instead.
        if (opts.memory_budget_bytes > 0)
            evictions += cache->evict_to_resident(opts.memory_budget_bytes);
        resident = cache->resident_bytes();
        ws[0].note_results_served(hits + shared);
    }
    const auto t1 = std::chrono::steady_clock::now();

    if (stats) {
        stats->threads = threads;
        stats->pool_threads = serial ? 1 : pool_threads;
        stats->seconds = std::chrono::duration<double>(t1 - t0).count();
        stats->counters = WorkspaceCounters{};
        for (const Workspace& w : ws) stats->counters += w.counters();
        stats->counters -= counters_before;
        stats->nets = nets.size();
        stats->nets_routed = routed;
        stats->cache_hits = hits;
        stats->cache_misses = miss_groups;
        stats->cache_shared = shared;
        stats->cache_evictions = evictions;
        stats->resident_bytes = resident;
        stats->cache_shard_contention = contended;
        stats->deadline_wall_degraded =
            wall_degraded.load(std::memory_order_relaxed);
        stats->tally_outcomes(out);
    }
    // Nothing ran beside the serial loop, so the caller's overlap work runs
    // now, outside [t0, t1]: stats->seconds stays pure route time.
    if (serial && overlap) overlap();
    return out;
}

}  // namespace

void PipelineStats::tally_outcomes(const std::vector<NetRouteResult>& results)
{
    nets_ok = nets_fallback = nets_uniform_width = nets_deadline_degraded = 0;
    nets_invalid = nets_cancelled = nets_rejected = nets_failed = 0;
    fault_events = 0;
    for (const NetRouteResult& r : results) {
        switch (r.status) {
        case RouteStatus::ok: ++nets_ok; break;
        case RouteStatus::fallback_brbc:
        case RouteStatus::fallback_spt: ++nets_fallback; break;
        case RouteStatus::uniform_width: ++nets_uniform_width; break;
        case RouteStatus::deadline_degraded: ++nets_deadline_degraded; break;
        case RouteStatus::invalid_input: ++nets_invalid; break;
        case RouteStatus::cancelled: ++nets_cancelled; break;
        case RouteStatus::rejected_overload: ++nets_rejected; break;
        case RouteStatus::failed: ++nets_failed; break;
        }
        fault_events += r.diag.events.size();
    }
}

int resolve_pool_threads(const PipelineOptions& opts)
{
    // An externally owned pool is taken at face value: its threads exist
    // either way, and the caller (e.g. a SessionService) sized it
    // deliberately.  hardware_concurrency() == 0 means "unknown" and does
    // not cap.
    if (opts.pool != nullptr) return opts.pool->thread_count();
    const int threads =
        opts.threads <= 0 ? default_thread_count() : opts.threads;
    return std::thread::hardware_concurrency() == 1 ? 1 : threads;
}

NetRouteResult route_single(const Net& net, std::size_t index,
                            std::uint64_t diag_seed, const Technology& tech,
                            const PipelineOptions& opts, Workspace& ws,
                            const RouteReuse& reuse)
{
    const FaultPlan faults =
        opts.faults.enabled ? opts.faults : FaultPlan::from_env();
    std::atomic<std::uint64_t> wall_degraded{0};
    BatchLifecycle lc;
    lc.cancel = opts.cancel;
    lc.wall = Deadline::after_ms(opts.deadline_ms);
    lc.plan = &faults;
    lc.wall_degraded = &wall_degraded;
    return route_net(net, index, diag_seed, tech, opts, faults, lc, ws, reuse);
}

bool route_report_compiled(const FlatTree& ft, std::size_t nodes,
                           const Technology& t, Workspace& ws,
                           NetRouteResult& r)
{
    // Finiteness-checked, so corrupt technology parameters surface as a
    // diagnosed failure instead of NaN output.
    try {
        const double rph = rph_terms(ft, t).total();
        ws.note_use(ws.caps, ft.size());
        ws.note_use(ws.sink_delays, ft.sinks().size());
        elmore_all_sinks(ft, t, ws.caps, ws.sink_delays);
        const double elmore_max =
            ws.sink_delays.empty()
                ? 0.0
                : *std::max_element(ws.sink_delays.begin(), ws.sink_delays.end());
        if (!std::isfinite(rph) || !std::isfinite(elmore_max))
            throw std::runtime_error(
                "non-finite uniform-width delay (corrupt technology parameters?)");
        r.nodes = nodes;
        r.wirelength = ft.total_length();
        r.rph_s = rph;
        r.elmore_max_s = elmore_max;
        return true;
    } catch (const std::exception& e) {
        r.diag.note(RouteStage::report, e.what());
        r.status = RouteStatus::failed;
        return false;
    }
}

std::vector<NetRouteResult> route_batch(const std::vector<Net>& nets,
                                        const Technology& tech,
                                        const PipelineOptions& opts,
                                        PipelineStats* stats,
                                        std::vector<Workspace>* workspaces)
{
    return route_batch_impl(nets, 0, false, nullptr, tech, opts, stats,
                            workspaces, {});
}

std::vector<NetRouteResult> route_batch(const std::vector<Net>& nets,
                                        const std::vector<std::uint64_t>& diag_seeds,
                                        const Technology& tech,
                                        const PipelineOptions& opts,
                                        PipelineStats* stats,
                                        std::vector<Workspace>* workspaces,
                                        const std::function<void()>& overlap)
{
    if (diag_seeds.size() != nets.size())
        throw std::invalid_argument("route_batch: diag_seeds size " +
                                    std::to_string(diag_seeds.size()) +
                                    " != nets size " + std::to_string(nets.size()));
    return route_batch_impl(nets, 0, false, diag_seeds.data(), tech, opts,
                            stats, workspaces, overlap);
}

std::vector<NetRouteResult> route_batch(std::uint64_t seed, int count, Coord grid,
                                        int sink_count, const Technology& tech,
                                        const PipelineOptions& opts,
                                        PipelineStats* stats,
                                        std::vector<Workspace>* workspaces)
{
    return route_batch_impl(random_nets(seed, count, grid, sink_count), seed,
                            true, nullptr, tech, opts, stats, workspaces, {});
}

std::string format_results(const std::vector<NetRouteResult>& results)
{
    std::ostringstream os;
    os << std::hexfloat;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const NetRouteResult& r = results[i];
        os << i << ' ' << r.nodes << ' ' << r.segments << ' ' << r.wirelength
           << ' ' << r.rph_s << ' ' << r.elmore_max_s << ' '
           << r.wiresized_delay_s << ' ' << r.moment_elmore_max_s << " [";
        for (const int w : r.assignment) os << ' ' << w;
        os << " ] " << to_string(r.status);
        if (!r.diag.empty()) {
            os << " {";
            if (r.diag.net_seed != 0)
                os << "seed=" << std::hex << r.diag.net_seed << std::dec << "; ";
            for (std::size_t e = 0; e < r.diag.events.size(); ++e) {
                if (e != 0) os << "; ";
                os << to_string(r.diag.events[e].stage) << ": "
                   << r.diag.events[e].message;
            }
            os << '}';
        }
        os << '\n';
    }
    return os.str();
}

}  // namespace cong93
