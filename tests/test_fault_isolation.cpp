// Fault-isolation tests for the batch routing pipeline: the FaultPlan
// harness itself, the per-net degradation ladder under injected failures at
// every stage, the determinism invariants (serial == parallel byte-identity
// of results *and* diagnostics under fault load; good nets bit-identical to
// a fault-free run), input-validation isolation, the real arena OOM guard,
// and the thread pool's multi-exception aggregation (BatchError).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "batch/batch.h"
#include "batch/errors.h"
#include "batch/fault_inject.h"
#include "batch/lifecycle.h"
#include "batch/pipeline.h"
#include "tech/technology.h"

namespace {

using namespace cong93;

// ---------------------------------------------------------------------------
// FaultPlan: spec parsing and the deterministic per-(stage, net) draw.

TEST(FaultPlan, EmptySpecIsDisabled)
{
    const FaultPlan plan = FaultPlan::parse("");
    EXPECT_FALSE(plan.enabled);
    EXPECT_FALSE(plan.fires(0, RouteStage::topology));
}

TEST(FaultPlan, ParsesFullSpec)
{
    const FaultPlan plan = FaultPlan::parse(
        "seed=7,topology=0.25,fallback=0.5,wiresize=0.25,moment=0.1,nan=0.1,"
        "arena-cap=40@0.2");
    EXPECT_TRUE(plan.enabled);
    EXPECT_EQ(plan.seed, 7u);
    EXPECT_DOUBLE_EQ(plan.topology_rate, 0.25);
    EXPECT_DOUBLE_EQ(plan.fallback_rate, 0.5);
    EXPECT_DOUBLE_EQ(plan.wiresize_rate, 0.25);
    EXPECT_DOUBLE_EQ(plan.moment_rate, 0.1);
    EXPECT_DOUBLE_EQ(plan.nan_tech_rate, 0.1);
    EXPECT_EQ(plan.arena_cap_nodes, 40u);
    EXPECT_DOUBLE_EQ(plan.arena_cap_rate, 0.2);
}

TEST(FaultPlan, RejectsMalformedSpecsLoudly)
{
    EXPECT_THROW(FaultPlan::parse("topology"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("bogus=0.5"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("topology=1.5"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("topology=-0.1"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("topology=abc"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("seed=xyz"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("arena-cap=40"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("arena-cap=n@0.5"), std::invalid_argument);
}

TEST(FaultPlan, DrawsAreDeterministicAndRateBounded)
{
    FaultPlan plan = FaultPlan::parse("seed=11,topology=1.0,wiresize=0.0");
    for (std::size_t i = 0; i < 64; ++i) {
        EXPECT_TRUE(plan.fires(i, RouteStage::topology));   // rate 1: always
        EXPECT_FALSE(plan.fires(i, RouteStage::wiresize));  // rate 0: never
        EXPECT_FALSE(plan.fires(i, RouteStage::fallback));  // unconfigured
        // Pure function of (seed, stage, index): repeated draws agree.
        EXPECT_EQ(plan.fires(i, RouteStage::report), plan.fires(i, RouteStage::report));
    }
    plan.enabled = false;
    EXPECT_FALSE(plan.fires(0, RouteStage::topology));
}

TEST(FaultPlan, MaybeThrowRaisesInjectedFault)
{
    const FaultPlan plan = FaultPlan::parse("topology=1.0");
    EXPECT_THROW(plan.maybe_throw(3, RouteStage::topology, "injected: boom"),
                 InjectedFault);
    EXPECT_NO_THROW(plan.maybe_throw(3, RouteStage::wiresize, "never"));
}

TEST(FaultPlan, FromEnvReadsTheGateVariable)
{
    ASSERT_EQ(setenv("CONG93_FAULT_INJECT", "seed=5,nan=0.5", 1), 0);
    const FaultPlan plan = FaultPlan::from_env();
    EXPECT_TRUE(plan.enabled);
    EXPECT_EQ(plan.seed, 5u);
    EXPECT_DOUBLE_EQ(plan.nan_tech_rate, 0.5);
    ASSERT_EQ(unsetenv("CONG93_FAULT_INJECT"), 0);
    EXPECT_FALSE(FaultPlan::from_env().enabled);
}

// ---------------------------------------------------------------------------
// The degradation ladder, one injected stage at a time.  Rate-1.0 plans make
// every net take the same rung, so the assertions are exact.

PipelineOptions fault_opts(const std::string& spec, int threads = 1)
{
    PipelineOptions opts;
    opts.threads = threads;
    opts.faults = FaultPlan::parse(spec);
    return opts;
}

TEST(FaultLadder, TopologyFaultFallsBackToBrbc)
{
    const Technology tech = mcm_technology();
    PipelineStats stats;
    const auto results = route_batch(1, 5, 1000, 5, tech,
                                     fault_opts("seed=2,topology=1.0"), &stats);
    ASSERT_EQ(results.size(), 5u);
    for (const NetRouteResult& r : results) {
        EXPECT_EQ(r.status, RouteStatus::fallback_brbc);
        ASSERT_EQ(r.diag.events.size(), 1u);
        EXPECT_EQ(r.diag.events[0].stage, RouteStage::topology);
        EXPECT_EQ(r.diag.events[0].message, "injected: A-tree construction fault");
        // The fallback tree still goes through the full flow.
        EXPECT_GT(r.wiresized_delay_s, 0.0);
        EXPECT_FALSE(r.assignment.empty());
    }
    EXPECT_EQ(stats.nets_fallback, 5u);
    EXPECT_EQ(stats.nets_ok, 0u);
    EXPECT_EQ(stats.fault_events, 5u);
}

TEST(FaultLadder, TopologyAndFallbackFaultsFallBackToSpt)
{
    const auto results = route_batch(
        1, 4, 1000, 5, mcm_technology(),
        fault_opts("seed=2,topology=1.0,fallback=1.0"));
    for (const NetRouteResult& r : results) {
        EXPECT_EQ(r.status, RouteStatus::fallback_spt);
        ASSERT_EQ(r.diag.events.size(), 2u);
        EXPECT_EQ(r.diag.events[0].stage, RouteStage::topology);
        EXPECT_EQ(r.diag.events[1].stage, RouteStage::fallback);
        EXPECT_GT(r.wiresized_delay_s, 0.0);
    }
}

TEST(FaultLadder, WiresizeFaultDemotesToUniformWidth)
{
    const auto results = route_batch(1, 4, 1000, 5, mcm_technology(),
                                     fault_opts("seed=2,wiresize=1.0"));
    for (const NetRouteResult& r : results) {
        EXPECT_EQ(r.status, RouteStatus::uniform_width);
        ASSERT_EQ(r.diag.events.size(), 1u);
        EXPECT_EQ(r.diag.events[0].stage, RouteStage::wiresize);
        // The uniform-width report survives; the wiresized numbers do not.
        EXPECT_GT(r.elmore_max_s, 0.0);
        EXPECT_EQ(r.wiresized_delay_s, 0.0);
        EXPECT_EQ(r.moment_elmore_max_s, 0.0);
        EXPECT_TRUE(r.assignment.empty());
    }
}

TEST(FaultLadder, MomentFaultDemotesToUniformWidthAndClearsWiresizing)
{
    const auto results = route_batch(1, 4, 1000, 5, mcm_technology(),
                                     fault_opts("seed=2,moment=1.0"));
    for (const NetRouteResult& r : results) {
        EXPECT_EQ(r.status, RouteStatus::uniform_width);
        ASSERT_EQ(r.diag.events.size(), 1u);
        EXPECT_EQ(r.diag.events[0].stage, RouteStage::moment_check);
        // An unverified wiresized result is not reported.
        EXPECT_EQ(r.wiresized_delay_s, 0.0);
        EXPECT_TRUE(r.assignment.empty());
    }
}

TEST(FaultLadder, MomentFaultIsMootWhenCheckDisabled)
{
    PipelineOptions opts = fault_opts("seed=2,moment=1.0");
    opts.moment_check = false;
    const auto results = route_batch(1, 3, 1000, 5, mcm_technology(), opts);
    for (const NetRouteResult& r : results) {
        EXPECT_EQ(r.status, RouteStatus::ok);
        EXPECT_TRUE(r.diag.empty());
        EXPECT_GT(r.wiresized_delay_s, 0.0);
    }
}

TEST(FaultLadder, NanTechnologyIsCaughtByTheReportGuard)
{
    PipelineStats stats;
    const auto results = route_batch(1, 4, 1000, 5, mcm_technology(),
                                     fault_opts("seed=2,nan=1.0"), &stats);
    for (const NetRouteResult& r : results) {
        EXPECT_EQ(r.status, RouteStatus::failed);
        ASSERT_EQ(r.diag.events.size(), 1u);
        EXPECT_EQ(r.diag.events[0].stage, RouteStage::report);
        EXPECT_NE(r.diag.events[0].message.find("non-finite"), std::string::npos);
        // A failed net reports nothing: no NaN may leak into the output.
        EXPECT_EQ(r.nodes, 0u);
        EXPECT_EQ(r.rph_s, 0.0);
        EXPECT_EQ(r.elmore_max_s, 0.0);
    }
    EXPECT_EQ(stats.nets_failed, 4u);
}

TEST(FaultLadder, InjectedArenaCapFailsAtCompile)
{
    PipelineStats stats;
    const auto results = route_batch(1, 4, 1000, 5, mcm_technology(),
                                     fault_opts("seed=2,arena-cap=3@1.0"), &stats);
    for (const NetRouteResult& r : results) {
        EXPECT_EQ(r.status, RouteStatus::failed);
        ASSERT_EQ(r.diag.events.size(), 1u);
        EXPECT_EQ(r.diag.events[0].stage, RouteStage::compile);
        EXPECT_NE(r.diag.events[0].message.find("arena cap"), std::string::npos);
    }
    EXPECT_EQ(stats.nets_failed, 4u);
    EXPECT_EQ(stats.counters.arena_rejects, 4u);
}

TEST(FaultLadder, RealNodeCapGuardsTheArena)
{
    PipelineOptions opts;
    opts.threads = 1;
    opts.max_nodes_per_net = 2;  // every 5-sink topology exceeds this
    PipelineStats stats;
    const auto results =
        route_batch(1, 3, 1000, 5, mcm_technology(), opts, &stats);
    for (const NetRouteResult& r : results) {
        EXPECT_EQ(r.status, RouteStatus::failed);
        ASSERT_EQ(r.diag.events.size(), 1u);
        EXPECT_EQ(r.diag.events[0].stage, RouteStage::compile);
    }
    EXPECT_EQ(stats.counters.arena_rejects, 3u);
}

TEST(FaultLadder, EnvironmentGateInjectsWhenOptionsAreSilent)
{
    ASSERT_EQ(setenv("CONG93_FAULT_INJECT", "seed=2,topology=1.0", 1), 0);
    PipelineOptions opts;
    opts.threads = 1;
    auto results = route_batch(1, 3, 1000, 5, mcm_technology(), opts);
    for (const NetRouteResult& r : results)
        EXPECT_EQ(r.status, RouteStatus::fallback_brbc);
    ASSERT_EQ(unsetenv("CONG93_FAULT_INJECT"), 0);
    results = route_batch(1, 3, 1000, 5, mcm_technology(), opts);
    for (const NetRouteResult& r : results)
        EXPECT_EQ(r.status, RouteStatus::ok);
}

// ---------------------------------------------------------------------------
// Input validation is part of the same isolation story: a malformed net
// degrades to invalid_input without disturbing its neighbours.

TEST(FaultIsolation, InvalidInputsAreIsolatedWithinABatch)
{
    Net good;
    good.source = Point{0, 0};
    good.sinks = {Point{50, 0}, Point{0, 70}};

    Net zero_length;  // every sink coincides with the source: rejected
    zero_length.source = Point{5, 5};
    zero_length.sinks = {Point{5, 5}};

    Net dup;  // duplicate sink: canonicalized with a note, still routed
    dup.source = Point{0, 0};
    dup.sinks = {Point{30, 40}, Point{30, 40}};

    PipelineOptions opts;
    opts.threads = 1;
    PipelineStats stats;
    const auto results = route_batch({good, zero_length, dup},
                                     mcm_technology(), opts, &stats);
    ASSERT_EQ(results.size(), 3u);

    EXPECT_EQ(results[0].status, RouteStatus::ok);
    EXPECT_TRUE(results[0].diag.empty());

    EXPECT_EQ(results[1].status, RouteStatus::invalid_input);
    ASSERT_FALSE(results[1].diag.empty());
    EXPECT_EQ(results[1].diag.events.back().stage, RouteStage::validate);
    EXPECT_NE(results[1].diag.events.back().message.find("zero-length"),
              std::string::npos);
    EXPECT_EQ(results[1].nodes, 0u);

    EXPECT_EQ(results[2].status, RouteStatus::ok);  // canonicalized, not failed
    ASSERT_EQ(results[2].diag.events.size(), 1u);
    EXPECT_EQ(results[2].diag.events[0].stage, RouteStage::validate);
    EXPECT_NE(results[2].diag.events[0].message.find("duplicate"),
              std::string::npos);

    EXPECT_EQ(stats.nets_ok, 2u);
    EXPECT_EQ(stats.nets_invalid, 1u);
    EXPECT_EQ(stats.nets_not_ok(), 1u);
}

// ---------------------------------------------------------------------------
// Determinism under fault load: the acceptance criteria of the isolation
// layer.

const char* kSoakSpec =
    "seed=7,topology=0.3,fallback=0.4,wiresize=0.3,moment=0.2,nan=0.15,"
    "arena-cap=12@0.2";

TEST(FaultIsolation, BatchWithFaultsAtEveryStageCompletes)
{
    PipelineStats stats;
    const auto results = route_batch(3, 32, 2000, 6, mcm_technology(),
                                     fault_opts(kSoakSpec), &stats);
    ASSERT_EQ(results.size(), 32u);
    EXPECT_EQ(stats.nets_ok + stats.nets_fallback + stats.nets_uniform_width +
                  stats.nets_invalid + stats.nets_failed,
              32u);
    // The soak rates are high enough that every rung must be exercised.
    EXPECT_GT(stats.nets_fallback, 0u);
    EXPECT_GT(stats.nets_uniform_width, 0u);
    EXPECT_GT(stats.nets_failed, 0u);
    EXPECT_GT(stats.nets_ok, 0u);
    std::size_t events = 0;
    for (const NetRouteResult& r : results) events += r.diag.events.size();
    EXPECT_EQ(stats.fault_events, events);
}

TEST(FaultIsolation, GoodNetsAreBitIdenticalToAFaultFreeRun)
{
    PipelineOptions clean;
    clean.threads = 1;
    const auto baseline = route_batch(3, 16, 2000, 6, mcm_technology(), clean);
    const auto faulted =
        route_batch(3, 16, 2000, 6, mcm_technology(), fault_opts(kSoakSpec));
    ASSERT_EQ(baseline.size(), faulted.size());
    std::size_t untouched = 0;
    for (std::size_t i = 0; i < faulted.size(); ++i) {
        if (faulted[i].status != RouteStatus::ok || !faulted[i].diag.empty())
            continue;
        ++untouched;
        // Single-element serialization compares every reported field at full
        // precision.
        EXPECT_EQ(format_results({faulted[i]}), format_results({baseline[i]}))
            << "net " << i;
    }
    EXPECT_GT(untouched, 0u);  // the comparison must not be vacuous
}

TEST(FaultIsolation, SerialAndParallelRunsAreByteIdenticalUnderFaults)
{
    PipelineStats s1, s4;
    const auto serial = route_batch(3, 24, 2000, 6, mcm_technology(),
                                    fault_opts(kSoakSpec, 1), &s1);
    const auto parallel = route_batch(3, 24, 2000, 6, mcm_technology(),
                                      fault_opts(kSoakSpec, 4), &s4);
    EXPECT_EQ(s1.threads, 1);
    EXPECT_EQ(s4.threads, 4);
    EXPECT_EQ(format_results(serial), format_results(parallel));
    EXPECT_EQ(s1.nets_ok, s4.nets_ok);
    EXPECT_EQ(s1.nets_fallback, s4.nets_fallback);
    EXPECT_EQ(s1.nets_uniform_width, s4.nets_uniform_width);
    EXPECT_EQ(s1.nets_invalid, s4.nets_invalid);
    EXPECT_EQ(s1.nets_failed, s4.nets_failed);
    EXPECT_EQ(s1.fault_events, s4.fault_events);
}

// ---------------------------------------------------------------------------
// Thread-pool exception aggregation: every worker failure is preserved.

TEST(ThreadPoolAggregation, AllSubmittedFailuresReachTheSubmitter)
{
    ThreadPool pool(2);
    TaskGroup group;
    for (const char* msg : {"boom B", "boom A", "boom C"})
        pool.submit(group, [msg] { throw std::runtime_error(msg); });
    try {
        group.wait();
        FAIL() << "group.wait() must throw";
    } catch (const BatchError& e) {
        EXPECT_EQ(e.causes().size(), 3u);
        // Messages are sorted so the aggregate text is deterministic.
        EXPECT_STREQ(e.what(), "3 worker exceptions:\n  boom A\n  boom B\n  boom C");
    }
    // The pool stays usable after an aggregate failure, and the group is
    // drained: its next wait sees only the new job.
    int ran = 0;
    pool.submit(group, [&ran] { ran = 1; });
    EXPECT_NO_THROW(group.wait());
    EXPECT_EQ(ran, 1);
}

TEST(ThreadPoolAggregation, SingleFailureStillRethrowsTheOriginalType)
{
    ThreadPool pool(2);
    TaskGroup group;
    pool.submit(group, [] { throw std::invalid_argument("just one"); });
    EXPECT_THROW(group.wait(), std::invalid_argument);
}

TEST(ThreadPoolAggregation, MultiSlotFailuresInParallelForSlotsAggregate)
{
    // Four slots, four indices, chunk 1: each slot pulls exactly one index
    // and parks at a barrier until all four arrived, so all four throw and
    // the aggregation path (not the single-rethrow path) is exercised
    // deterministically.
    ThreadPool pool(4);
    std::atomic<int> arrivals{0};
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    try {
        parallel_for_slots(
            pool, 4,
            [&](std::size_t i, int) {
                arrivals.fetch_add(1);
                while (arrivals.load() < 4 &&
                       std::chrono::steady_clock::now() < deadline)
                    std::this_thread::yield();
                throw std::runtime_error("chunk fault " + std::to_string(i));
            },
            1);
        FAIL() << "parallel_for_slots must rethrow";
    } catch (const BatchError& e) {
        EXPECT_EQ(e.causes().size(), 4u);
        const std::string what = e.what();
        EXPECT_NE(what.find("4 worker exceptions"), std::string::npos);
        for (int i = 0; i < 4; ++i)
            EXPECT_NE(what.find("chunk fault " + std::to_string(i)),
                      std::string::npos);
    }
}

TEST(ThreadPoolAggregation, FailuresDuringCancellationStillAggregate)
{
    // Cancellation and worker failure race during real overload shutdowns;
    // the contract is that cancellation never swallows exceptions.  Four
    // slots each pull one index and park at a barrier; once all arrived the
    // request is cancelled and every slot throws anyway -- all four causes
    // must still reach the caller as one BatchError.
    ThreadPool pool(4);
    CancelToken cancel;
    std::atomic<int> arrivals{0};
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    try {
        parallel_for_slots(
            pool, 4,
            [&](std::size_t i, int) {
                arrivals.fetch_add(1);
                while (arrivals.load() < 4 &&
                       std::chrono::steady_clock::now() < deadline)
                    std::this_thread::yield();
                cancel.cancel();
                throw std::runtime_error("dying worker " + std::to_string(i));
            },
            1, &cancel);
        FAIL() << "parallel_for_slots must rethrow";
    } catch (const BatchError& e) {
        EXPECT_EQ(e.causes().size(), 4u);
        const std::string what = e.what();
        for (int i = 0; i < 4; ++i)
            EXPECT_NE(what.find("dying worker " + std::to_string(i)),
                      std::string::npos);
    }

    // The pool is fully serviceable after the cancelled, failed run.
    std::atomic<int> ran{0};
    parallel_for_slots(pool, 8, [&](std::size_t, int) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8);
}

}  // namespace
