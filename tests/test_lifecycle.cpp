// Request-lifecycle tests: the RouteStatus ladder round-trips through its
// serialized form with no silent default, cancellation / virtual-clock
// deadlines / admission caps produce byte-identical degraded outputs at any
// thread count, wall-clock deadline pressure degrades without
// hanging, and the service-level queue cap + memory budget reject and evict
// instead of growing without bound.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "batch/batch.h"
#include "batch/errors.h"
#include "batch/fault_inject.h"
#include "batch/lifecycle.h"
#include "batch/pipeline.h"
#include "netgen/netgen.h"
#include "session/service.h"
#include "session/session.h"
#include "tech/technology.h"

namespace cong93 {
namespace {

// ---------------------------------------------------------------------------
// Status / stage taxonomy
// ---------------------------------------------------------------------------

TEST(LifecycleTaxonomy, StatusRoundTripsExhaustively)
{
    for (std::size_t i = 0; i < kRouteStatusCount; ++i) {
        const auto s = static_cast<RouteStatus>(i);
        const std::string name = to_string(s);
        EXPECT_NE(name, "?") << "rung " << i << " has no name";
        EXPECT_EQ(route_status_from_string(name), s) << name;
    }
    EXPECT_THROW(route_status_from_string("bogus"), std::invalid_argument);
    EXPECT_THROW(route_status_from_string(""), std::invalid_argument);
}

TEST(LifecycleTaxonomy, StageRoundTripsExhaustively)
{
    for (std::size_t i = 0; i < kRouteStageCount; ++i) {
        const auto s = static_cast<RouteStage>(i);
        const std::string name = to_string(s);
        EXPECT_NE(name, "?") << "stage " << i << " has no name";
        EXPECT_EQ(route_stage_from_string(name), s) << name;
    }
    EXPECT_THROW(route_stage_from_string("bogus"), std::invalid_argument);
}

TEST(LifecycleTaxonomy, WorstIsMonotoneInSeverityOrder)
{
    for (std::size_t a = 0; a < kRouteStatusCount; ++a) {
        for (std::size_t b = 0; b < kRouteStatusCount; ++b) {
            const auto sa = static_cast<RouteStatus>(a);
            const auto sb = static_cast<RouteStatus>(b);
            const RouteStatus w = worst(sa, sb);
            EXPECT_EQ(w, static_cast<RouteStatus>(std::max(a, b)));
            EXPECT_EQ(w, worst(sb, sa));
        }
    }
}

TEST(LifecycleTaxonomy, RoutedPredicateCoversTheLadder)
{
    EXPECT_TRUE(is_routed(RouteStatus::ok));
    EXPECT_TRUE(is_routed(RouteStatus::fallback_brbc));
    EXPECT_TRUE(is_routed(RouteStatus::fallback_spt));
    EXPECT_TRUE(is_routed(RouteStatus::uniform_width));
    EXPECT_TRUE(is_routed(RouteStatus::deadline_degraded));
    EXPECT_FALSE(is_routed(RouteStatus::invalid_input));
    EXPECT_FALSE(is_routed(RouteStatus::cancelled));
    EXPECT_FALSE(is_routed(RouteStatus::rejected_overload));
    EXPECT_FALSE(is_routed(RouteStatus::failed));
}

// ---------------------------------------------------------------------------
// CancelToken / Deadline primitives
// ---------------------------------------------------------------------------

TEST(LifecyclePrimitives, CancelTokenLatches)
{
    CancelToken t;
    EXPECT_FALSE(t.cancelled());
    t.cancel();
    EXPECT_TRUE(t.cancelled());
    t.cancel();  // idempotent
    EXPECT_TRUE(t.cancelled());
}

TEST(LifecyclePrimitives, DeadlineArmsOnlyForPositiveBudgets)
{
    EXPECT_FALSE(Deadline::none().active());
    EXPECT_FALSE(Deadline::none().expired());
    EXPECT_FALSE(Deadline::after_ms(0.0).active());
    EXPECT_FALSE(Deadline::after_ms(-5.0).active());
    const Deadline far = Deadline::after_ms(60'000.0);
    EXPECT_TRUE(far.active());
    EXPECT_FALSE(far.expired());
    const Deadline past = Deadline::after_ms(1e-9);
    EXPECT_TRUE(past.active());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(past.expired());
}

// ---------------------------------------------------------------------------
// Batch cancellation
// ---------------------------------------------------------------------------

TEST(LifecycleCancel, PreCancelledBatchMarksEveryNetDeterministically)
{
    const Technology tech = mcm_technology();
    const std::vector<Net> nets = random_nets(21, 12, kMcmGrid, 6);
    CancelToken cancel;
    cancel.cancel();

    std::string base;
    for (int threads : {1, 4}) {
        PipelineOptions opts;
        opts.threads = threads;
        opts.cancel = &cancel;
        PipelineStats stats;
        const auto results = route_batch(nets, tech, opts, &stats);
        ASSERT_EQ(results.size(), nets.size());
        for (const NetRouteResult& r : results) {
            EXPECT_EQ(r.status, RouteStatus::cancelled);
            EXPECT_EQ(r.nodes, 0u);
            EXPECT_EQ(r.wirelength, 0);
            EXPECT_EQ(r.elmore_max_s, 0.0);
            EXPECT_TRUE(r.assignment.empty());
        }
        EXPECT_EQ(stats.nets_cancelled, nets.size());
        EXPECT_EQ(stats.nets_ok, 0u);
        const std::string out = format_results(results);
        if (base.empty()) base = out;
        else EXPECT_EQ(out, base) << "threads=" << threads;
    }
}

TEST(LifecycleCancel, ParallelForSlotsStopsPullingAndCleanRunCoversAll)
{
    ThreadPool pool(2);
    const std::size_t n = 64;

    CancelToken cancelled;
    cancelled.cancel();
    std::atomic<std::size_t> ran{0};
    parallel_for_slots(
        pool, n, [&](std::size_t, int) { ran.fetch_add(1); }, 1, &cancelled);
    EXPECT_EQ(ran.load(), 0u);

    // The same pool then runs a clean pass to completion: cancellation did
    // not leak parked chunks or poison the pool.
    std::vector<std::uint8_t> seen(n, 0);
    CancelToken clean;
    parallel_for_slots(
        pool, n, [&](std::size_t i, int) { seen[i] = 1; }, 1, &clean);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(seen[i], 1) << i;
}

// ---------------------------------------------------------------------------
// Virtual-clock deadlines (deterministic degradation)
// ---------------------------------------------------------------------------

TEST(LifecycleVirtualClock, UniformPressureDegradesEveryNetIdentically)
{
    const Technology tech = mcm_technology();
    const std::vector<Net> nets = random_nets(5, 10, kMcmGrid, 8);

    std::string base;
    for (int threads : {1, 4}) {
        PipelineOptions opts;
        opts.threads = threads;
        opts.faults = FaultPlan::parse("seed=5,vdeadline=10,vcost-wiresize=20");
        PipelineStats stats;
        const auto results = route_batch(nets, tech, opts, &stats);
        for (const NetRouteResult& r : results) {
            EXPECT_EQ(r.status, RouteStatus::deadline_degraded);
            EXPECT_TRUE(is_routed(r.status));
            EXPECT_GT(r.nodes, 0u);  // routed topology survives
            // Wiresized numbers were dropped, never half-reported.
            EXPECT_EQ(r.wiresized_delay_s, 0.0);
            EXPECT_TRUE(r.assignment.empty());
        }
        EXPECT_EQ(stats.nets_deadline_degraded, nets.size());
        EXPECT_EQ(stats.deadline_wall_degraded, 0u);  // virtual, not wall
        const std::string out = format_results(results);
        if (base.empty()) base = out;
        else EXPECT_EQ(out, base) << "threads=" << threads;
    }
}

TEST(LifecycleVirtualClock, JitterSplitsTheBatchAndSparesUnpressuredNets)
{
    const Technology tech = mcm_technology();
    const std::vector<Net> nets = random_nets(7, 24, kMcmGrid, 6);

    PipelineOptions plain;
    plain.threads = 1;
    const auto want = route_batch(nets, tech, plain);

    std::string base;
    for (int threads : {1, 4}) {
        PipelineOptions opts;
        opts.threads = threads;
        opts.faults = FaultPlan::parse("seed=9,vdeadline=10,vjitter=20");
        const auto results = route_batch(nets, tech, opts);
        std::size_t degraded = 0, clean = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (results[i].status == RouteStatus::deadline_degraded) {
                ++degraded;
            } else {
                ASSERT_EQ(results[i].status, want[i].status);
                // A net the virtual clock spared is bit-identical to the
                // same net routed with no deadline at all.
                EXPECT_EQ(format_results({results[i]}),
                          format_results({want[i]}))
                    << "net " << i;
                ++clean;
            }
        }
        EXPECT_GT(degraded, 0u) << "vjitter never fired";
        EXPECT_GT(clean, 0u) << "vjitter pressured everything";
        const std::string out = format_results(results);
        if (base.empty()) base = out;
        else EXPECT_EQ(out, base) << "threads=" << threads;
    }
}

TEST(LifecycleVirtualClock, SessionDefersToRouteSingleAtAnyThreadCount)
{
    const Technology tech = mcm_technology();
    const std::vector<Net> nets = random_nets(11, 8, kMcmGrid, 5);

    std::string base;
    for (const int threads : {1, 4}) {
        SessionOptions sopts;
        sopts.pipeline.faults =
            FaultPlan::parse("seed=5,vdeadline=10,vjitter=20");
        sopts.pipeline.threads = threads;
        Session s(tech, sopts);
        std::string out;
        for (const NetId id : s.add_batch(nets))
            out += format_results({s.result(id)});
        // ECO applies under a virtual clock also stay deterministic: the
        // repair path defers to route_single, whose clock is a pure function
        // of the request index.
        const EcoOutcome o = s.apply(0, EcoDelta::make_move(0, Point{7, 9}));
        out += format_results({o.result});
        if (base.empty()) base = out;
        else EXPECT_EQ(out, base) << "threads=" << threads;
    }
}

// ---------------------------------------------------------------------------
// Admission cap
// ---------------------------------------------------------------------------

TEST(LifecycleAdmission, CapRejectsTheTailDeterministically)
{
    const Technology tech = mcm_technology();
    const std::vector<Net> nets = random_nets(31, 12, kMcmGrid, 5);

    std::string base;
    for (int threads : {1, 4}) {
        PipelineOptions opts;
        opts.threads = threads;
        opts.admit_cap = 5;
        PipelineStats stats;
        const auto results = route_batch(nets, tech, opts, &stats);
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (i < 5) {
                EXPECT_TRUE(is_routed(results[i].status)) << i;
            } else {
                EXPECT_EQ(results[i].status, RouteStatus::rejected_overload);
                EXPECT_EQ(results[i].nodes, 0u);
                EXPECT_TRUE(results[i].assignment.empty());
            }
        }
        EXPECT_EQ(stats.nets_rejected, nets.size() - 5);
        const std::string out = format_results(results);
        if (base.empty()) base = out;
        else EXPECT_EQ(out, base) << "threads=" << threads;
    }
}

// ---------------------------------------------------------------------------
// Wall-clock deadlines (degrade, never hang; telemetry, not bytes)
// ---------------------------------------------------------------------------

TEST(LifecycleWallClock, ExpiredDeadlineDegradesEverythingAndCounts)
{
    const Technology tech = mcm_technology();
    const std::vector<Net> nets = random_nets(13, 10, kMcmGrid, 6);

    std::string base;
    for (int threads : {1, 4}) {
        PipelineOptions opts;
        opts.threads = threads;
        opts.deadline_ms = 1e-6;  // expired before the first net starts
        PipelineStats stats;
        const auto results = route_batch(nets, tech, opts, &stats);
        for (const NetRouteResult& r : results) {
            EXPECT_EQ(r.status, RouteStatus::deadline_degraded);
            EXPECT_GT(r.nodes, 0u);
            EXPECT_EQ(r.wiresized_delay_s, 0.0);
        }
        EXPECT_EQ(stats.nets_deadline_degraded, nets.size());
        EXPECT_GT(stats.deadline_wall_degraded, 0u);
        const std::string out = format_results(results);
        if (base.empty()) base = out;
        else EXPECT_EQ(out, base) << "threads=" << threads;
    }
}

// ---------------------------------------------------------------------------
// Service backpressure + memory budget
// ---------------------------------------------------------------------------

TEST(LifecycleService, QueueCapRejectsOverlappingRequests)
{
    const Technology tech = mcm_technology();
    ServiceOptions so;
    so.threads = 2;
    so.queue_cap = 1;
    // Give the long request real work so the overlap window is wide.
    const std::vector<Net> big = random_nets(3, 60, kMcmGrid, 10);
    const std::vector<Net> tiny = random_nets(4, 1, kMcmGrid, 3);

    // Either side of the overlap may be the one refused: when a tiny
    // request takes the only queue slot first, the long request is rejected
    // inside its own thread, which must catch it there.
    std::atomic<bool> saw_rejection{false};
    const auto rejected = [&](const OverloadError& e) {
        saw_rejection.store(true);
        EXPECT_NE(std::string(e.what()).find("queue cap"), std::string::npos);
    };
    for (int attempt = 0; attempt < 5 && !saw_rejection.load(); ++attempt) {
        SessionService svc(tech, so);
        const SessionId a = svc.open();
        const SessionId b = svc.open();
        std::atomic<bool> started{false};
        std::thread long_req([&] {
            started.store(true);
            try {
                svc.add_batch(a, big);
            } catch (const OverloadError& e) {
                rejected(e);
            }
        });
        while (!started.load()) std::this_thread::yield();
        // Hammer the second session while the first request holds the only
        // queue slot; at least one attempt overlaps in practice.
        for (int i = 0; i < 200 && !saw_rejection.load(); ++i) {
            try {
                svc.add_batch(b, tiny);
            } catch (const OverloadError& e) {
                rejected(e);
            }
        }
        long_req.join();
        if (saw_rejection.load()) {
            EXPECT_GT(svc.stats().rejected_overload, 0u);
        }
    }
    EXPECT_TRUE(saw_rejection.load());

    // Mixed overload: four clients against queue cap 2, a 2 KiB memory
    // budget and a virtual-clock deadline plan on every other session.
    // Every request returns or is refused with OverloadError, and no
    // admitted net ends on the failed rung.
    ServiceOptions mixed;
    mixed.threads = 2;
    mixed.queue_cap = 2;
    mixed.memory_budget_bytes = 2 * 1024;
    mixed.session.pipeline.faults =
        FaultPlan::parse("seed=5,vdeadline=10,vjitter=20");
    SessionOptions plain = mixed.session;
    plain.pipeline.faults = FaultPlan{};
    SessionService mixed_svc(tech, mixed);
    const std::vector<Net> common = random_nets(314, 20, kMcmGrid, 6);
    constexpr int kClients = 4;
    constexpr int kRequests = 8;
    std::vector<int> finished(kClients, 0), failed_nets(kClients, 0);
    std::vector<std::string> errors(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        const SessionId sid = c % 2 ? mixed_svc.open(plain) : mixed_svc.open();
        clients.emplace_back([&, c, sid] {
            const auto ci = static_cast<std::size_t>(c);
            for (int r = 0; r < kRequests; ++r) {
                std::vector<Net> nets = common;
                const Coord dx = static_cast<Coord>(900 * c + 13 * r);
                const Coord dy = static_cast<Coord>(500 * c + 7 * r);
                for (Net& n : nets) {
                    n.source = Point{n.source.x + dx, n.source.y + dy};
                    for (Point& p : n.sinks) p = Point{p.x + dx, p.y + dy};
                }
                try {
                    for (const NetId nid : mixed_svc.add_batch(sid, nets))
                        if (mixed_svc.result(sid, nid).status == RouteStatus::failed)
                            ++failed_nets[ci];
                } catch (const OverloadError&) {
                    // Backpressure: refused whole, before any work ran.
                } catch (const std::exception& e) {
                    errors[ci] = e.what();
                }
                ++finished[ci];
            }
        });
    }
    for (std::thread& t : clients) t.join();
    for (std::size_t c = 0; c < clients.size(); ++c) {
        EXPECT_EQ(finished[c], kRequests) << "client " << c;
        EXPECT_EQ(failed_nets[c], 0) << "client " << c;
        EXPECT_EQ(errors[c], "") << "client " << c;
    }
}

TEST(LifecycleService, QueueCapZeroNeverRejects)
{
    const Technology tech = mcm_technology();
    SessionService svc(tech, ServiceOptions{});
    const SessionId id = svc.open();
    const std::vector<Net> nets = random_nets(6, 4, kMcmGrid, 5);
    EXPECT_NO_THROW(svc.add_batch(id, nets));
    EXPECT_EQ(svc.stats().rejected_overload, 0u);
}

TEST(LifecycleService, MemoryBudgetPressureEvictsTheCache)
{
    const Technology tech = mcm_technology();
    ServiceOptions so;
    so.threads = 1;
    // A budget the workspace arenas alone exceed: the evictable pool (the
    // shared cache) must be emptied, and the service must keep serving.
    so.memory_budget_bytes = 1;
    SessionService svc(tech, so);
    const SessionId id = svc.open();
    const std::vector<Net> nets = random_nets(17, 6, kMcmGrid, 5);
    const std::vector<NetId> ids = svc.add_batch(id, nets);
    ASSERT_EQ(ids.size(), nets.size());
    EXPECT_EQ(svc.cache().size(), 0u);
    EXPECT_EQ(svc.cache().resident_bytes(), 0u);
    EXPECT_GT(svc.stats().pressure_evictions, 0u);
    // Results themselves are untouched by the eviction.
    for (const NetId nid : ids)
        EXPECT_TRUE(is_routed(svc.result(id, nid).status));
}

TEST(LifecycleService, GenerousBudgetEvictsNothing)
{
    const Technology tech = mcm_technology();
    ServiceOptions so;
    so.threads = 1;
    so.memory_budget_bytes = std::size_t{1} << 40;  // 1 TiB: never binds
    SessionService svc(tech, so);
    const SessionId id = svc.open();
    svc.add_batch(id, random_nets(18, 6, kMcmGrid, 5));
    EXPECT_GT(svc.cache().size(), 0u);
    EXPECT_EQ(svc.stats().pressure_evictions, 0u);
}

TEST(LifecycleService, ResidentBytesCountCapturedNets)
{
    // The budget sees per-net session state (geometry, result, stored
    // A-tree rows, stem bounds), not just workspace arenas: translated
    // twins of one net route exactly like it, so the arenas stop growing
    // after the first, yet every captured twin raises the resident bytes.
    const Technology tech = mcm_technology();
    ServiceOptions so;
    so.threads = 1;
    SessionService svc(tech, so);
    const SessionId id = svc.open();
    const Net base = random_nets(19, 1, kMcmGrid, 12).front();
    svc.add(id, base);
    std::size_t prev = svc.resident_bytes();
    for (Coord k = 1; k <= 4; ++k) {
        Net twin = base;
        twin.source = Point{base.source.x + 10 * k, base.source.y};
        for (Point& p : twin.sinks) p = Point{p.x + 10 * k, p.y};
        svc.add(id, twin);
        const std::size_t now = svc.resident_bytes();
        EXPECT_GT(now, prev) << "twin " << k;
        prev = now;
    }
}

TEST(LifecyclePipeline, MemoryBudgetEvictsAttachedCacheAfterDrain)
{
    const Technology tech = mcm_technology();
    const std::vector<Net> nets = random_nets(23, 8, kMcmGrid, 5);
    RouteCache cache;
    PipelineOptions opts;
    opts.threads = 1;
    opts.cache = &cache;
    opts.memory_budget_bytes = 1;
    PipelineStats stats;
    const auto results = route_batch(nets, tech, opts, &stats);
    ASSERT_EQ(results.size(), nets.size());
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_GT(stats.cache_evictions, 0u);
    for (const NetRouteResult& r : results)
        EXPECT_TRUE(is_routed(r.status));
}

TEST(LifecycleCache, DegradedResultsAreNeverInterned)
{
    const Technology tech = mcm_technology();
    // Duplicate nets under an expired wall deadline: every occurrence
    // degrades, and none of the degraded results may be published for
    // sharing (unclean results never enter the cache).
    std::vector<Net> nets = random_nets(29, 2, kMcmGrid, 5);
    nets.push_back(nets[0]);
    nets.push_back(nets[1]);
    RouteCache cache;
    PipelineOptions opts;
    opts.threads = 1;
    opts.cache = &cache;
    opts.deadline_ms = 1e-6;
    const auto results = route_batch(nets, tech, opts);
    for (const NetRouteResult& r : results)
        EXPECT_EQ(r.status, RouteStatus::deadline_degraded);
    EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace cong93
