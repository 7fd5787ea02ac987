// Concurrent route cache + multi-session service facade tests: pool-size
// invariance of output bytes, warm-rerun hits, entry count and resident
// bytes, serial vs external-pool byte-identity (results AND cache contents
// via dump()), schedule-independent cache counters, LRU squeeze,
// fault injection / out-of-bound twins never poisoning the cache, TaskGroup
// failure isolation on a shared pool, and the randomized multi-session soak
// against serial single-session replay.
#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "batch/batch.h"
#include "batch/lifecycle.h"
#include "batch/pipeline.h"
#include "netgen/netgen.h"
#include "rtree/validate.h"
#include "session/route_cache.h"
#include "session/service.h"
#include "session/session.h"
#include "tech/technology.h"

namespace cong93 {
namespace {

Net translated(const Net& n, Coord dx, Coord dy)
{
    Net t = n;
    t.source = Point{n.source.x + dx, n.source.y + dy};
    for (Point& p : t.sinks) p = Point{p.x + dx, p.y + dy};
    return t;
}

/// `copies` signature-equal rounds of `uniques` random nets, each round
/// translated as a block -- the canonical duplicate-heavy batch shape.
std::vector<Net> dup_batch(std::uint64_t seed, int uniques, int copies)
{
    const std::vector<Net> base = random_nets(seed, uniques, 3000, 6);
    std::vector<Net> nets;
    nets.reserve(base.size() * static_cast<std::size_t>(copies));
    for (int c = 0; c < copies; ++c)
        for (const Net& b : base)
            nets.push_back(translated(b, static_cast<Coord>(500 * c),
                                      static_cast<Coord>(210 * c)));
    return nets;
}

std::string fmt1(const NetRouteResult& r)
{
    return format_results(std::vector<NetRouteResult>{r});
}

// ---------------------------------------------------------------------------
// Pool-size invariance
// ---------------------------------------------------------------------------

TEST(SharedCache, ThreadCountChangesNoOutputByte)
{
    const Technology tech = mcm_technology();
    const std::vector<Net> first = dup_batch(11, 12, 3);
    const std::vector<Net> second = dup_batch(11, 12, 2);  // warm rerun

    // Serial, then external 2- and 4-thread pools; the cache's entry count
    // and resident bytes must not move either.
    ThreadPool pool2(2);
    ThreadPool pool4(4);
    std::string want_first, want_second;
    std::uint64_t want_hits = 0;
    std::size_t want_size = 0, want_resident = 0;
    for (ThreadPool* pool :
         {static_cast<ThreadPool*>(nullptr), &pool2, &pool4}) {
        RouteCache cache;
        PipelineOptions opts;
        opts.threads = 1;
        opts.cache = &cache;
        opts.pool = pool;
        PipelineStats s1, s2;
        const std::string got_first =
            format_results(route_batch(first, tech, opts, &s1));
        const std::string got_second =
            format_results(route_batch(second, tech, opts, &s2));
        const std::string where =
            pool != nullptr ? std::to_string(s1.pool_threads) + " threads"
                            : std::string("serial");
        // Every signature of the warm batch is already interned.
        EXPECT_EQ(s2.cache_hits, second.size()) << where;
        if (want_first.empty()) {
            want_first = got_first;
            want_second = got_second;
            want_hits = s2.cache_hits;
            want_size = cache.size();
            want_resident = cache.resident_bytes();
        } else {
            EXPECT_EQ(got_first, want_first) << where;
            EXPECT_EQ(got_second, want_second) << where;
            EXPECT_EQ(s2.cache_hits, want_hits) << where;
            EXPECT_EQ(cache.size(), want_size) << where;
            EXPECT_EQ(cache.resident_bytes(), want_resident) << where;
        }
    }
}

// ---------------------------------------------------------------------------
// Serial vs external-pool byte-identity (results and cache contents)
// ---------------------------------------------------------------------------

TEST(SharedCache, SerialAndPooledRunsAreByteIdentical)
{
    const Technology tech = mcm_technology();
    const std::vector<Net> nets = dup_batch(23, 16, 4);

    const auto run = [&](ThreadPool* pool, std::string& cache_dump,
                         PipelineStats& stats) {
        RouteCache cache;
        PipelineOptions opts;
        opts.threads = 1;
        opts.cache = &cache;
        opts.pool = pool;
        const std::string out =
            format_results(route_batch(nets, tech, opts, &stats));
        cache_dump = cache.dump();
        return out;
    };

    std::string serial_dump, pooled_dump;
    PipelineStats serial_stats, pooled_stats;
    const std::string serial = run(nullptr, serial_dump, serial_stats);
    ThreadPool pool(4);
    const std::string pooled = run(&pool, pooled_dump, pooled_stats);

    EXPECT_EQ(pooled_stats.pool_threads, 4);
    EXPECT_EQ(pooled, serial);
    // The epoch drain leaves the cache itself byte-identical too.
    EXPECT_EQ(pooled_dump, serial_dump);
    // Hit/miss/share counters are functions of the signatures alone.
    EXPECT_EQ(pooled_stats.cache_hits, serial_stats.cache_hits);
    EXPECT_EQ(pooled_stats.cache_misses, serial_stats.cache_misses);
    EXPECT_EQ(pooled_stats.cache_shared, serial_stats.cache_shared);
    EXPECT_EQ(pooled_stats.nets_routed, serial_stats.nets_routed);

    // And cache-off output is the same bytes again.
    PipelineOptions off;
    off.threads = 1;
    EXPECT_EQ(format_results(route_batch(nets, tech, off)), serial);
}

TEST(SharedCache, ConcurrentBatchesShareOnePoolAndCache)
{
    const Technology tech = mcm_technology();
    const std::vector<Net> a = dup_batch(31, 10, 3);
    const std::vector<Net> b = dup_batch(47, 10, 3);

    PipelineOptions serial_opts;
    serial_opts.threads = 1;
    const std::string want_a = format_results(route_batch(a, tech, serial_opts));
    const std::string want_b = format_results(route_batch(b, tech, serial_opts));

    RouteCache cache;
    ThreadPool pool(4);
    std::string got_a, got_b;
    std::thread ta([&] {
        PipelineOptions o;
        o.cache = &cache;
        o.pool = &pool;
        got_a = format_results(route_batch(a, tech, o));
    });
    std::thread tb([&] {
        PipelineOptions o;
        o.cache = &cache;
        o.pool = &pool;
        got_b = format_results(route_batch(b, tech, o));
    });
    ta.join();
    tb.join();
    EXPECT_EQ(got_a, want_a);
    EXPECT_EQ(got_b, want_b);
}

// ---------------------------------------------------------------------------
// LRU squeeze
// ---------------------------------------------------------------------------

TEST(SharedCache, LruSqueezeEvictsButNeverChangesOutput)
{
    const Technology tech = mcm_technology();
    const std::vector<Net> nets = dup_batch(59, 40, 2);

    RouteCache cache(8);
    EXPECT_EQ(cache.capacity(), 8u);
    PipelineOptions opts;
    opts.threads = 1;
    opts.cache = &cache;
    PipelineStats stats;
    const std::string got = format_results(route_batch(nets, tech, opts, &stats));
    EXPECT_LE(cache.size(), 8u);
    EXPECT_GT(stats.cache_evictions, 0u);
    EXPECT_GT(stats.resident_bytes, 0u);

    PipelineOptions off;
    off.threads = 1;
    EXPECT_EQ(format_results(route_batch(nets, tech, off)), got);
}

// ---------------------------------------------------------------------------
// Nothing unclean is ever interned
// ---------------------------------------------------------------------------

TEST(SharedCache, FaultInjectedBatchesNeverIntern)
{
    const Technology tech = mcm_technology();
    const std::vector<Net> nets = dup_batch(71, 8, 3);

    RouteCache cache;
    PipelineOptions faulty;
    faulty.threads = 1;
    faulty.cache = &cache;
    faulty.faults.enabled = true;
    faulty.faults.seed = 9;
    faulty.faults.topology_rate = 0.3;
    faulty.faults.wiresize_rate = 0.5;

    PipelineOptions bare = faulty;
    bare.cache = nullptr;
    const std::string want = format_results(route_batch(nets, tech, bare));

    PipelineStats stats;
    EXPECT_EQ(format_results(route_batch(nets, tech, faulty, &stats)), want);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(stats.cache_hits + stats.cache_shared, 0u);
}

TEST(SharedCache, OutOfBoundTwinIsNotServedALeaderResult)
{
    const Technology tech = mcm_technology();
    const std::vector<Net> base = random_nets(83, 1, 2000, 5);
    // The twin is signature-equal (pure translation) but sits beyond the
    // routable coordinate bound, so solo routing rejects it -- and sharing
    // the in-bound leader's clean result would not.
    const Net twin = translated(base[0], kMaxRoutableCoord, kMaxRoutableCoord);
    const std::vector<Net> nets = {twin, base[0], twin};

    PipelineOptions off;
    off.threads = 1;
    const std::string want = format_results(route_batch(nets, tech, off));

    RouteCache cache;
    PipelineOptions opts;
    opts.threads = 1;
    opts.cache = &cache;
    PipelineStats stats;
    EXPECT_EQ(format_results(route_batch(nets, tech, opts, &stats)), want);
    EXPECT_EQ(cache.size(), 1u);  // only the in-bound leader interned
}

// ---------------------------------------------------------------------------
// TaskGroup multiplexing on one pool
// ---------------------------------------------------------------------------

TEST(TaskGroup, FailuresStayWithTheirGroup)
{
    ThreadPool pool(2);
    TaskGroup bad, good;
    pool.submit(bad, [] { throw std::runtime_error("group fault"); });
    int ran = 0;
    pool.submit(good, [&ran] { ran = 1; });
    EXPECT_THROW(bad.wait(), std::runtime_error);
    good.wait();  // must not observe the other group's failure
    EXPECT_EQ(ran, 1);
}

TEST(TaskGroup, CancelledRunLeavesNoParkedTasks)
{
    // A cancelled parallel_for_slots run abandons its remaining chunks by
    // design; nothing may stay parked in the pool or its task groups.  A
    // follow-up clean run on the same pool must cover every index exactly
    // once, with no stragglers from the cancelled pass bleeding in.
    ThreadPool pool(2);
    CancelToken cancel;
    std::atomic<std::size_t> before{0};
    parallel_for_slots(
        pool, 1000,
        [&](std::size_t, int) {
            before.fetch_add(1);
            cancel.cancel();  // cancel as soon as any chunk ran
        },
        1, &cancel);
    EXPECT_GT(before.load(), 0u);     // something ran before the cancel
    EXPECT_LT(before.load(), 1000u);  // and the run genuinely stopped early

    std::vector<int> seen(1000, 0);
    parallel_for_slots(pool, 1000, [&](std::size_t i, int) { ++seen[i]; });
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], 1) << "index " << i;
}

// ---------------------------------------------------------------------------
// Multi-session service facade
// ---------------------------------------------------------------------------

TEST(SessionService, CrossSessionResultSharing)
{
    ServiceOptions sopts;
    sopts.threads = 2;
    SessionService svc(mcm_technology(), sopts);
    const SessionId s0 = svc.open();
    const SessionId s1 = svc.open();

    const std::vector<Net> nets = dup_batch(97, 10, 1);
    svc.add_batch(s0, nets);
    PipelineStats stats;
    // Session 1 submits translated twins of session 0's nets: every one is
    // a shared-cache hit even though session 1 never routed them.
    std::vector<Net> twins;
    twins.reserve(nets.size());
    for (const Net& n : nets) twins.push_back(translated(n, 7777, -1234));
    svc.add_batch(s1, twins, &stats);
    EXPECT_EQ(stats.cache_hits, twins.size());
    EXPECT_EQ(svc.stats().batches, 2u);
}

TEST(SessionService, FaultedSessionNeverPoisonsTheSharedCache)
{
    ServiceOptions sopts;
    sopts.threads = 2;
    SessionService svc(mcm_technology(), sopts);

    SessionOptions faulty;
    faulty.pipeline.faults.enabled = true;
    faulty.pipeline.faults.seed = 3;
    faulty.pipeline.faults.topology_rate = 1.0;
    const SessionId sick = svc.open(faulty);
    const SessionId healthy = svc.open();

    const std::vector<Net> nets = dup_batch(103, 6, 2);
    svc.add_batch(sick, nets);
    EXPECT_EQ(svc.cache().size(), 0u);  // fault-injected requests bypass

    PipelineStats stats;
    svc.add_batch(healthy, nets, &stats);
    EXPECT_GT(svc.cache().size(), 0u);
    EXPECT_EQ(stats.cache_hits, 0u);  // nothing was poisoned in either way
}

/// One session's deterministic request script: admissions interleaved with
/// ECO moves, returning the per-request output transcript.
template <typename AddBatch, typename Apply>
std::string run_script(std::uint64_t seed, const AddBatch& add_batch,
                       const Apply& apply)
{
    std::string transcript;
    const std::vector<Net> first = dup_batch(seed, 8, 2);
    const std::vector<NetId> ids = add_batch(first, transcript);
    for (std::size_t k = 0; k < 6; ++k) {
        const NetId id = ids[(k * 5) % ids.size()];
        const EcoDelta d = EcoDelta::make_move(
            k % 4, Point{static_cast<Coord>(100 + 13 * k),
                         static_cast<Coord>(2200 - 7 * k)});
        apply(id, d, transcript);
    }
    const std::vector<Net> second = dup_batch(seed + 1, 6, 2);
    const std::vector<NetId> more = add_batch(second, transcript);
    apply(more.front(), EcoDelta::make_add(Point{55, 66}), transcript);
    apply(more.back(), EcoDelta::make_remove(0), transcript);
    return transcript;
}

TEST(SessionService, ConcurrentSoakMatchesSerialSingleSessionReplay)
{
    const Technology tech = mcm_technology();
    const std::array<std::uint64_t, 2> seeds = {211, 223};

    // Serial oracle: one independent single-threaded session per script.
    std::array<std::string, 2> want;
    for (std::size_t s = 0; s < seeds.size(); ++s) {
        SessionOptions o;
        o.pipeline.threads = 1;
        Session session(tech, o);
        want[s] = run_script(
            seeds[s],
            [&](const std::vector<Net>& nets, std::string& t) {
                const std::vector<NetId> ids = session.add_batch(nets);
                for (const NetId id : ids) t += fmt1(session.result(id));
                return ids;
            },
            [&](NetId id, const EcoDelta& d, std::string& t) {
                t += fmt1(session.apply(id, d).result);
            });
    }

    // Concurrent run: two client threads, one shared cache + pool.  Every
    // request's bytes must match the serial replay -- the shared cache only
    // changes who routes, never what anyone reports.
    ServiceOptions sopts;
    sopts.threads = 4;
    SessionService svc(tech, sopts);
    std::array<std::string, 2> got;
    std::array<std::thread, 2> clients;
    for (std::size_t s = 0; s < seeds.size(); ++s) {
        clients[s] = std::thread([&, s] {
            const SessionId sid = svc.open();
            got[s] = run_script(
                seeds[s],
                [&](const std::vector<Net>& nets, std::string& t) {
                    const std::vector<NetId> ids = svc.add_batch(sid, nets);
                    for (const NetId id : ids) t += fmt1(svc.result(sid, id));
                    return ids;
                },
                [&](NetId id, const EcoDelta& d, std::string& t) {
                    t += fmt1(svc.apply(sid, id, d).result);
                });
        });
    }
    for (std::thread& c : clients) c.join();
    EXPECT_EQ(got[0], want[0]);
    EXPECT_EQ(got[1], want[1]);
    EXPECT_EQ(svc.stats().batches, 4u);
    EXPECT_EQ(svc.stats().applies, 16u);
}

}  // namespace
}  // namespace cong93
