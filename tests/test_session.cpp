// Session engine & route-cache tests: canonical-signature edges (translation
// invariance, sink order, cap quantization collisions), LRU bookkeeping,
// cache-on/off and serial/parallel byte-identity of route_batch (including
// the single-flight grouping pass under cancellation, admission caps and
// annotated duplicate groups), ECO repair
// bit-identity against from-scratch route_single for every delta kind,
// lopsided and annotated repairs, fault injection on the request path, and
// delta type-checking.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <random>
#include <stdexcept>
#include <tuple>

#include "batch/pipeline.h"
#include "batch/workspace.h"
#include "netgen/netgen.h"
#include "rtree/flat_tree.h"
#include "session/route_cache.h"
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

/// Interior-source net with sinks spread over all four quadrants.
Net interior_net(std::uint64_t seed, int sinks)
{
    std::mt19937_64 rng(seed);
    Net n;
    n.source = Point{2000, 2000};
    std::uniform_int_distribution<Coord> d(0, 4000);
    while (static_cast<int>(n.sinks.size()) < sinks) {
        const Point p{d(rng), d(rng)};
        if (p.x == n.source.x && p.y == n.source.y) continue;
        if (std::find(n.sinks.begin(), n.sinks.end(), p) != n.sinks.end())
            continue;
        n.sinks.push_back(p);
    }
    return n;
}

/// Interior-source net with `bulk` sinks in quadrant (+,+), then `small`
/// sinks in each of (-,+), (-,-) and (+,-), all strictly interior.
Net skewed_net(std::uint64_t seed, int bulk, int small)
{
    std::mt19937_64 rng(seed);
    Net n;
    n.source = Point{2000, 2000};
    const auto fill = [&](int count, Coord x0, Coord y0) {
        while (count > 0) {
            const Point p{x0 + 1 + static_cast<Coord>(rng() % 1998),
                          y0 + 1 + static_cast<Coord>(rng() % 1998)};
            if (std::find(n.sinks.begin(), n.sinks.end(), p) != n.sinks.end())
                continue;
            n.sinks.push_back(p);
            --count;
        }
    };
    fill(bulk, 2000, 2000);
    fill(small, 0, 2000);
    fill(small, 0, 0);
    fill(small, 2000, 0);
    return n;
}

std::string fmt1(const NetRouteResult& r)
{
    return format_results(std::vector<NetRouteResult>{r});
}

/// From-scratch oracle: route_single on a fresh workspace.
NetRouteResult from_scratch(const Net& net, std::size_t index,
                            const Technology& tech,
                            const PipelineOptions& opts)
{
    Workspace ws;
    return route_single(net, index, 0, tech, opts, ws);
}

/// Full-field equality, including exact double bits via format_results.
void expect_same_result(const NetRouteResult& got, const NetRouteResult& want)
{
    EXPECT_EQ(fmt1(got), fmt1(want));
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.assignment, want.assignment);
    EXPECT_EQ(got.wiresized_delay_s, want.wiresized_delay_s);
    EXPECT_EQ(got.elmore_max_s, want.elmore_max_s);
    EXPECT_EQ(got.rph_s, want.rph_s);
    EXPECT_EQ(got.moment_elmore_max_s, want.moment_elmore_max_s);
}

// ---------------------------------------------------------------------------
// Canonical signature (sig::) and the cache behind route_batch
// ---------------------------------------------------------------------------

/// Routes `nets` serially through `cache` and returns the batch stats.
PipelineStats route_through(RouteCache& cache, const std::vector<Net>& nets,
                            const Technology& tech = mcm_technology(),
                            PipelineOptions opts = {})
{
    opts.threads = 1;
    opts.cache = &cache;
    PipelineStats stats;
    route_batch(nets, tech, opts, &stats);
    return stats;
}

TEST(RouteCacheKey, TranslationInvariant)
{
    RouteCache cache;
    const Technology tech = mcm_technology();
    const std::uint32_t cfg = cache.config_of(tech, PipelineOptions{});

    std::mt19937_64 rng(5);
    const Net a = random_net(rng, 500, 9);
    const Net b = translated(a, 1234, -321);
    const CacheKey ka = sig::key_of(a, cfg);
    EXPECT_EQ(ka.hash, sig::hash_of(b, cfg));
    EXPECT_TRUE(sig::key_matches_net(ka, b, cfg));
    EXPECT_TRUE(sig::nets_equivalent(a, b));
}

TEST(RouteCacheKey, SinkOrderIsPartOfTheSignature)
{
    // The signature is deliberately the exact source-relative sink
    // *sequence*: sink order feeds A-tree tie-breaking, so a permuted net
    // can legitimately route differently and must not share a cache entry.
    RouteCache cache;
    const std::uint32_t cfg =
        cache.config_of(mcm_technology(), PipelineOptions{});
    std::mt19937_64 rng(6);
    const Net a = random_net(rng, 500, 6);
    Net b = a;
    std::swap(b.sinks[0], b.sinks[5]);
    EXPECT_FALSE(sig::key_matches_net(sig::key_of(a, cfg), b, cfg));
    EXPECT_FALSE(sig::nets_equivalent(a, b));
}

TEST(RouteCacheKey, CapQuantizationCollidesButExactCompareSeparates)
{
    // Two caps equal after float quantization but different as doubles:
    // the 64-bit hash collides (by design -- quantization keeps the hash
    // stable under parser noise) while the exact compare still separates
    // them, so neither is ever served the other's result.
    RouteCache cache;
    const Technology tech = mcm_technology();
    const std::uint32_t cfg = cache.config_of(tech, PipelineOptions{});

    std::mt19937_64 rng(7);
    Net a = random_net(rng, 500, 4);
    a.sink_caps.assign(a.sinks.size(), 1e-12);
    Net b = a;
    b.sink_caps[2] = 1e-12 * (1.0 + 1e-12);  // float-identical, double-distinct
    ASSERT_EQ(static_cast<float>(a.sink_caps[2]),
              static_cast<float>(b.sink_caps[2]));
    ASSERT_NE(a.sink_caps[2], b.sink_caps[2]);
    EXPECT_EQ(sig::hash_of(a, cfg), sig::hash_of(b, cfg));
    EXPECT_FALSE(sig::key_matches_net(sig::key_of(a, cfg), b, cfg));

    // One batch: b is no single-flight follower of a -- both route.
    const PipelineStats both = route_through(cache, {a, b}, tech);
    EXPECT_EQ(both.cache_misses, 2u);
    EXPECT_EQ(both.cache_shared, 0u);
    EXPECT_EQ(cache.size(), 2u);
    // Later batches: each net is served only its own entry.
    RouteCache only_a;
    route_through(only_a, {a}, tech);
    EXPECT_EQ(route_through(only_a, {b}, tech).cache_hits, 0u);
    EXPECT_EQ(route_through(only_a, {a}, tech).cache_hits, 1u);
    EXPECT_EQ(only_a.stats().hits, 1u);
    EXPECT_EQ(only_a.stats().misses, 2u);
}

TEST(RouteCacheKey, ConfigSeparatesTechAndOptions)
{
    RouteCache cache;
    const Technology mcm = mcm_technology();
    Technology hot = mcm;
    hot.driver_resistance_ohm *= 2.0;
    PipelineOptions narrow;
    narrow.widths_r = 2;

    const std::uint32_t c0 = cache.config_of(mcm, PipelineOptions{});
    EXPECT_EQ(c0, cache.config_of(mcm, PipelineOptions{}));  // interned
    EXPECT_NE(c0, cache.config_of(hot, PipelineOptions{}));
    EXPECT_NE(c0, cache.config_of(mcm, narrow));

    std::mt19937_64 rng(8);
    const Net n = random_net(rng, 500, 5);
    EXPECT_FALSE(sig::key_matches_net(sig::key_of(n, c0), n,
                                      cache.config_of(hot, PipelineOptions{})));

    // Through route_batch: an entry written under one configuration never
    // serves another, and each configuration keeps its own entry.
    EXPECT_EQ(route_through(cache, {n}, mcm).cache_hits, 0u);
    EXPECT_EQ(route_through(cache, {n}, hot).cache_hits, 0u);
    EXPECT_EQ(route_through(cache, {n}, mcm, narrow).cache_hits, 0u);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(route_through(cache, {n}, hot).cache_hits, 1u);
    EXPECT_EQ(route_through(cache, {n}, mcm).cache_hits, 1u);
}

TEST(RouteCache, LruEvictsLeastRecentlyUsed)
{
    RouteCache cache(2);
    std::mt19937_64 rng(9);
    const Net n1 = random_net(rng, 500, 3);
    const Net n2 = random_net(rng, 500, 3);
    const Net n3 = random_net(rng, 500, 3);

    EXPECT_EQ(route_through(cache, {n1, n2}).cache_evictions, 0u);
    EXPECT_EQ(route_through(cache, {n1}).cache_hits, 1u);  // n1 now MRU
    // Inserting n3 evicts n2, the least recently used entry.
    EXPECT_EQ(route_through(cache, {n3}).cache_evictions, 1u);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(route_through(cache, {n1, n3}).cache_hits, 2u);
    const PipelineStats again = route_through(cache, {n2});
    EXPECT_EQ(again.cache_hits, 0u);
    EXPECT_EQ(again.cache_evictions, 1u);
    EXPECT_EQ(cache.stats().evictions, 2u);
    EXPECT_EQ(cache.stats().insertions, 4u);

    // Within one batch the epoch drain replays in net order: of three fresh
    // signatures under capacity 2, the first is the one evicted.
    RouteCache fresh(2);
    EXPECT_EQ(route_through(fresh, {n1, n2, n3}).cache_evictions, 1u);
    EXPECT_EQ(route_through(fresh, {n2, n3}).cache_hits, 2u);
    EXPECT_EQ(route_through(fresh, {n1}).cache_hits, 0u);
}

// ---------------------------------------------------------------------------
// route_batch with a cache attached
// ---------------------------------------------------------------------------

std::vector<Net> nets_with_duplicates(std::uint64_t seed, int base, int dups)
{
    std::vector<Net> nets = random_nets(seed, base, kMcmGrid, 8);
    std::mt19937_64 rng(seed ^ 0x9e37u);
    for (int d = 0; d < dups; ++d) {
        const std::size_t src = rng() % nets.size();
        nets.push_back(translated(nets[src], static_cast<Coord>(rng() % 100),
                                  static_cast<Coord>(rng() % 100)));
    }
    return nets;
}

TEST(PipelineCache, CacheOnByteIdenticalToCacheOff)
{
    const Technology tech = mcm_technology();
    const auto nets = nets_with_duplicates(51, 8, 8);

    PipelineOptions off;
    off.threads = 1;
    const auto base = format_results(route_batch(nets, tech, off));

    RouteCache cache;
    PipelineOptions on = off;
    on.cache = &cache;
    PipelineStats stats;
    EXPECT_EQ(format_results(route_batch(nets, tech, on, &stats)), base);

    // 8 duplicates were served by single-flight sharing, not routed.
    EXPECT_EQ(stats.cache_shared, 8u);
    EXPECT_EQ(stats.cache_hits, 0u);
    EXPECT_EQ(stats.cache_misses, 8u);
    EXPECT_EQ(stats.nets_routed, 8u);
    EXPECT_LT(stats.compiles_per_net(), 1.0);
    EXPECT_LE(stats.compiles_per_routed_net(), 1.0);

    // A second identical batch is served entirely from the cache.
    PipelineStats again;
    EXPECT_EQ(format_results(route_batch(nets, tech, on, &again)), base);
    EXPECT_EQ(again.cache_hits, nets.size());
    EXPECT_EQ(again.nets_routed, 0u);
    EXPECT_EQ(again.compiles_per_net(), 0.0);
}

TEST(PipelineCache, ParallelByteIdenticalToSerialWithCache)
{
    const Technology tech = mcm_technology();
    const auto nets = nets_with_duplicates(52, 10, 10);

    PipelineOptions off;
    off.threads = 1;
    const auto base = format_results(route_batch(nets, tech, off));

    for (const int threads : {1, 4}) {
        RouteCache cache;
        PipelineOptions on;
        on.threads = threads;
        on.cache = &cache;
        EXPECT_EQ(format_results(route_batch(nets, tech, on)), base)
            << "threads=" << threads;
        // Warm-cache rerun at the same thread count.
        EXPECT_EQ(format_results(route_batch(nets, tech, on)), base)
            << "warm threads=" << threads;
    }
}

TEST(PipelineCache, FaultInjectionBypassesTheCache)
{
    // Injected faults are keyed by net index; sharing would have to violate
    // that, so the cache must be ignored wholesale under a fault plan.
    const Technology tech = mcm_technology();
    const auto nets = nets_with_duplicates(53, 6, 6);

    PipelineOptions faulty;
    faulty.threads = 1;
    faulty.faults = FaultPlan::parse("seed=3,wiresize=0.5,nan=0.25");
    const auto base = format_results(route_batch(nets, tech, faulty));

    RouteCache cache;
    PipelineOptions cached = faulty;
    cached.cache = &cache;
    PipelineStats stats;
    EXPECT_EQ(format_results(route_batch(nets, tech, cached, &stats)), base);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(stats.cache_hits + stats.cache_shared, 0u);
}

TEST(PipelineCache, PreCancelledBatchServesAndInternsNothing)
{
    // The grouping pass checks the token before its first probe: a batch
    // cancelled up front neither serves a hit, nor touches the LRU order,
    // nor interns a result, and every net ends cancelled.
    const Technology tech = mcm_technology();
    const auto nets = nets_with_duplicates(54, 6, 6);
    CancelToken cancel;
    cancel.cancel();

    PipelineOptions off;
    off.threads = 1;
    off.cancel = &cancel;
    const auto base = format_results(route_batch(nets, tech, off));

    for (const int threads : {1, 4}) {
        RouteCache cold;
        RouteCache warm;
        PipelineOptions fill;
        fill.threads = threads;
        fill.cache = &warm;
        route_batch(nets, tech, fill);
        const std::string warm_before = warm.dump();

        for (RouteCache* cache : {&cold, &warm}) {
            PipelineOptions on = off;
            on.threads = threads;
            on.cache = cache;
            PipelineStats stats;
            const auto results = route_batch(nets, tech, on, &stats);
            EXPECT_EQ(format_results(results), base) << "threads=" << threads;
            for (const NetRouteResult& r : results)
                EXPECT_EQ(r.status, RouteStatus::cancelled);
            EXPECT_EQ(stats.cache_hits + stats.cache_shared, 0u);
            EXPECT_EQ(stats.cache_misses, 0u);
            EXPECT_EQ(stats.nets_routed, 0u);
        }
        EXPECT_EQ(cold.size(), 0u);
        EXPECT_EQ(warm.dump(), warm_before);

        // Without a cache the count means the same: nothing entered a route.
        PipelineOptions uncached = off;
        uncached.threads = threads;
        PipelineStats stats;
        route_batch(nets, tech, uncached, &stats);
        EXPECT_EQ(stats.nets_routed, 0u) << "threads=" << threads;
    }
}

TEST(PipelineCache, AdmitCapRejectsTheTailBeforeAnyProbe)
{
    const Technology tech = mcm_technology();
    const auto nets = nets_with_duplicates(55, 8, 8);
    const std::size_t cap = 5;

    PipelineOptions off;
    off.threads = 1;
    off.admit_cap = cap;
    const auto base = format_results(route_batch(nets, tech, off));

    for (const int threads : {1, 4}) {
        RouteCache cache;
        PipelineOptions fill;
        fill.threads = threads;
        fill.cache = &cache;
        route_batch(nets, tech, fill);  // warm: every net now hits
        const RouteCacheStats before = cache.stats();

        PipelineOptions on = off;
        on.threads = threads;
        on.cache = &cache;
        PipelineStats stats;
        const auto results = route_batch(nets, tech, on, &stats);
        EXPECT_EQ(format_results(results), base) << "threads=" << threads;
        for (std::size_t i = cap; i < results.size(); ++i)
            EXPECT_EQ(results[i].status, RouteStatus::rejected_overload) << i;
        EXPECT_EQ(stats.cache_hits, cap);
        EXPECT_EQ(stats.nets_rejected, nets.size() - cap);
        EXPECT_EQ(stats.nets_routed, 0u);
        // Only the admitted prefix was probed.
        EXPECT_EQ(cache.stats().hits - before.hits, cap);
        EXPECT_EQ(cache.stats().misses, before.misses);

        // Without a cache the admitted prefix routes and the tail does not.
        PipelineOptions uncached = off;
        uncached.threads = threads;
        PipelineStats plain;
        route_batch(nets, tech, uncached, &plain);
        EXPECT_EQ(plain.nets_routed, cap) << "threads=" << threads;
    }
}

TEST(PipelineCache, AnnotatedDuplicateGroupRoutesEveryMember)
{
    // Each copy carries a duplicate sink, so validate_net annotates every
    // member of the group: the leader is unclean, nothing is shared or
    // interned, and every member routes on its own.
    const Technology tech = mcm_technology();
    std::mt19937_64 rng(56);
    Net base_net = random_net(rng, 500, 6);
    base_net.sinks.push_back(base_net.sinks[1]);
    std::vector<Net> nets;
    for (Coord d = 0; d < 6; ++d) nets.push_back(translated(base_net, 7 * d, 3 * d));

    PipelineOptions off;
    off.threads = 1;
    const auto base = format_results(route_batch(nets, tech, off));

    for (const int threads : {1, 4}) {
        RouteCache cache;
        PipelineOptions on = off;
        on.threads = threads;
        on.cache = &cache;
        PipelineStats stats;
        const auto results = route_batch(nets, tech, on, &stats);
        EXPECT_EQ(format_results(results), base) << "threads=" << threads;
        for (const NetRouteResult& r : results) EXPECT_FALSE(r.diag.empty());
        EXPECT_EQ(stats.cache_misses, 1u);
        EXPECT_EQ(stats.cache_shared, 0u);
        EXPECT_EQ(stats.nets_routed, nets.size());
        EXPECT_EQ(cache.size(), 0u);
    }
}

// ---------------------------------------------------------------------------
// Session: ECO repair bit-identity
// ---------------------------------------------------------------------------

TEST(Session, MoveSinkRepairBitIdenticalToFromScratch)
{
    const Technology tech = mcm_technology();
    Session s(tech);
    Net net = interior_net(61, 24);
    const NetId id = s.add(net);
    expect_same_result(s.result(id), from_scratch(net, 0, tech, PipelineOptions{}));
    EXPECT_TRUE(s.captured(id));

    // A chain of small moves; each repair must match a from-scratch route
    // of the mutated net, and small moves stay on the incremental path.
    std::mt19937_64 rng(62);
    Technology t = tech;
    for (int step = 0; step < 6; ++step) {
        const std::size_t k = rng() % net.sinks.size();
        const Point to{static_cast<Coord>(rng() % 4000),
                       static_cast<Coord>(rng() % 4000)};
        const EcoDelta d = EcoDelta::make_move(k, to);
        apply_delta(net, t, d);
        const EcoOutcome o = s.apply(id, d);
        expect_same_result(o.result,
                           from_scratch(net, o.request, tech, PipelineOptions{}));
        expect_same_result(s.result(id), o.result);
    }
}

TEST(Session, SkewedMoveRepairsOneQuadrantIncrementally)
{
    // The ECO latency win comes from quadrant-local edits on skewed nets:
    // most sinks live in one quadrant, the edit happens in a small one, and
    // only the small quadrant's A-tree rebuilds.
    const Technology tech = mcm_technology();
    Net net;
    net.source = Point{2000, 2000};
    std::mt19937_64 rng(70);
    while (net.sinks.size() < 20) {  // bulk quadrant (+,+), strictly interior
        const Point p{static_cast<Coord>(2001 + rng() % 1999),
                      static_cast<Coord>(2001 + rng() % 1999)};
        if (std::find(net.sinks.begin(), net.sinks.end(), p) == net.sinks.end())
            net.sinks.push_back(p);
    }
    net.sinks.push_back(Point{1500, 2500});  // small quadrant (-,+)
    net.sinks.push_back(Point{1000, 3000});
    net.sinks.push_back(Point{500, 2200});

    Session s(tech);
    const NetId id = s.add(net);

    Technology t = tech;
    const EcoDelta mv = EcoDelta::make_move(21, Point{900, 3100});
    apply_delta(net, t, mv);
    const EcoOutcome o = s.apply(id, mv);
    EXPECT_TRUE(o.incremental);
    EXPECT_EQ(o.dirty_quadrants, 1u);
    expect_same_result(o.result,
                       from_scratch(net, o.request, tech, PipelineOptions{}));

    // Two larger shapes: 150 bulk sinks with 10 in each small quadrant, and
    // a uniform 30 per quadrant, where the dirty quadrant is a quarter of
    // the work.  Moving the first (-,+) sink between two (-,+) positions
    // repairs incrementally and matches a from-scratch route both times.
    for (const auto& [seed, bulk, small] :
         {std::tuple{77u, 150, 10}, std::tuple{78u, 30, 30}}) {
        Net shaped = skewed_net(seed, bulk, small);
        Session ss(tech);
        const NetId sid = ss.add(shaped);
        for (const Point to : {Point{700, 2900}, Point{1300, 3400}}) {
            const EcoDelta d =
                EcoDelta::make_move(static_cast<std::size_t>(bulk), to);
            apply_delta(shaped, t, d);
            const EcoOutcome so = ss.apply(sid, d);
            EXPECT_TRUE(so.incremental) << "bulk " << bulk;
            EXPECT_EQ(so.dirty_quadrants, 1u) << "bulk " << bulk;
            expect_same_result(
                so.result, from_scratch(shaped, so.request, tech, PipelineOptions{}));
        }
    }
}

TEST(Session, SkewedMoveRepairTenfoldFasterThanFullRoute)
{
    // Acceptance gate: on a quadrant-skewed net of >= 100 sinks, a
    // single-sink-move repair must beat a from-scratch route of the mutated
    // net by at least 10x.  The shape gives the bound lots of headroom
    // (A-tree construction is superlinear in per-quadrant sinks, so the
    // 200-sink bulk quadrant dominates the full route while the repair only
    // rebuilds the 10-sink edited quadrant).  Repair and full-route timings
    // are interleaved so that both sides see the same scheduler and
    // sanitizer noise, and the best of nine is taken on each side.
    const Technology tech = mcm_technology();
    Net net = skewed_net(91, 200, 10);  // edited quadrant (-,+): sinks 200..209

    Session s(tech);
    const NetId id = s.add(net);

    // Identity first (the latency claim is worthless without it).
    const Point pos_a{700, 2900}, pos_b{1300, 3400};
    Technology t = tech;
    apply_delta(net, t, EcoDelta::make_move(200, pos_a));
    const EcoOutcome o = s.apply(id, EcoDelta::make_move(200, pos_a));
    ASSERT_TRUE(o.incremental);
    // The deterministic witness behind the ratio: only the edited quadrant
    // was rebuilt.
    EXPECT_EQ(o.dirty_quadrants, 1u);
    expect_same_result(o.result,
                       from_scratch(net, o.request, tech, PipelineOptions{}));

    const auto seconds_of = [](auto fn) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
            .count();
    };
    double eco_best = 1e300;
    double full_best = 1e300;
    Workspace ws;
    NetRouteResult sink_result;
    bool flip = false;  // alternate targets so every apply really repairs
    for (int rep = 0; rep < 9; ++rep) {
        EcoOutcome timed;
        eco_best = std::min(eco_best, seconds_of([&] {
                                timed = s.apply(id, EcoDelta::make_move(
                                                        200, flip ? pos_a : pos_b));
                            }));
        flip = !flip;
        ASSERT_TRUE(timed.incremental);
        EXPECT_EQ(timed.dirty_quadrants, 1u);
        full_best = std::min(full_best, seconds_of([&] {
                                 sink_result = route_single(
                                     net, 0, 0, tech, PipelineOptions{}, ws);
                             }));
    }
    EXPECT_EQ(sink_result.status, RouteStatus::ok);
    EXPECT_GE(full_best / eco_best, 10.0)
        << "full " << full_best << "s vs eco " << eco_best << "s";
}

TEST(Session, AddAndRemoveSinkRepairBitIdentical)
{
    const Technology tech = mcm_technology();
    Session s(tech);
    Net net = interior_net(63, 20);
    const NetId id = s.add(net);
    Technology t = tech;

    // add_sink with an explicit cap exercises the sink_caps realignment.
    const EcoDelta add = EcoDelta::make_add(Point{3777, 123}, 2e-12);
    apply_delta(net, t, add);
    EcoOutcome o = s.apply(id, add);
    expect_same_result(o.result,
                       from_scratch(net, o.request, tech, PipelineOptions{}));
    EXPECT_EQ(s.net(id).sink_caps.size(), net.sinks.size());

    const EcoDelta rm = EcoDelta::make_remove(3);
    apply_delta(net, t, rm);
    o = s.apply(id, rm);
    expect_same_result(o.result,
                       from_scratch(net, o.request, tech, PipelineOptions{}));

    // Default-cap adds keep sink_caps aligned too.
    const EcoDelta add2 = EcoDelta::make_add(Point{100, 3900});
    apply_delta(net, t, add2);
    o = s.apply(id, add2);
    expect_same_result(o.result,
                       from_scratch(net, o.request, tech, PipelineOptions{}));
}

TEST(Session, RetechReusesTopologyAndMatchesFromScratch)
{
    const Technology tech = mcm_technology();
    Session s(tech);
    Net net = interior_net(64, 18);
    const NetId id = s.add(net);

    Technology hot = tech;
    hot.driver_resistance_ohm *= 2.0;
    const EcoOutcome o = s.apply(id, EcoDelta::make_retech(hot));
    EXPECT_TRUE(o.incremental);  // topology reuse, no quadrant rebuilds
    EXPECT_EQ(o.dirty_quadrants, 0u);
    expect_same_result(o.result,
                       from_scratch(net, o.request, hot, PipelineOptions{}));
    EXPECT_EQ(s.tech(id).driver_resistance_ohm, hot.driver_resistance_ohm);

    // Follow-up sink repair routes against the new technology.
    Net mutated = net;
    Technology t = hot;
    const EcoDelta mv = EcoDelta::make_move(2, Point{2500, 2500});
    apply_delta(mutated, t, mv);
    const EcoOutcome o2 = s.apply(id, mv);
    expect_same_result(o2.result,
                       from_scratch(mutated, o2.request, hot, PipelineOptions{}));
}

TEST(Session, LopsidedQuadrantEditRepairsIncrementally)
{
    // An edit inside the quadrant that holds most of the sinks rebuilds
    // that quadrant and replays the three small ones: still one route,
    // still a repair, and still the from-scratch result.
    const Technology tech = mcm_technology();
    Net net = skewed_net(65, 20, 2);  // (+,+) holds sinks 0..19 of 26
    Session s(tech);
    const NetId id = s.add(net);
    ASSERT_TRUE(s.captured(id));

    Technology t = tech;
    for (const Point to : {Point{2500, 2600}, Point{3900, 2001}}) {
        const EcoDelta mv = EcoDelta::make_move(0, to);
        apply_delta(net, t, mv);
        const EcoOutcome o = s.apply(id, mv);
        EXPECT_TRUE(o.incremental);
        EXPECT_EQ(o.dirty_quadrants, 1u);
        expect_same_result(o.result,
                           from_scratch(net, o.request, tech, PipelineOptions{}));
        EXPECT_TRUE(s.captured(id));
    }
}

TEST(Session, AnnotatedRepairRoutesOnceAndDropsRepairState)
{
    // Moving a sink onto another one makes validate_net collapse the pair
    // and note it.  The captured net's one route is lent its stored rows;
    // the annotated result equals route_single's and keeps no repair
    // state, so the next edit routes without rows and captures again.
    const Technology tech = mcm_technology();
    Net net = interior_net(71, 16);
    Session s(tech);
    const NetId id = s.add(net);
    ASSERT_TRUE(s.captured(id));

    Technology t = tech;
    const EcoDelta onto = EcoDelta::make_move(0, net.sinks[1]);
    apply_delta(net, t, onto);
    const std::uint64_t compiles = flat_tree_compiles();
    const EcoOutcome o = s.apply(id, onto);
    EXPECT_EQ(flat_tree_compiles() - compiles, 1u);  // one route, no retry
    EXPECT_FALSE(o.result.diag.empty());
    EXPECT_EQ(o.result.diag.events.front().stage, RouteStage::validate);
    EXPECT_FALSE(o.incremental);
    EXPECT_EQ(o.dirty_quadrants, 0u);
    expect_same_result(o.result,
                       from_scratch(net, o.request, tech, PipelineOptions{}));
    EXPECT_FALSE(s.captured(id));

    const EcoDelta away = EcoDelta::make_move(0, Point{1234, 3210});
    apply_delta(net, t, away);
    const EcoOutcome next = s.apply(id, away);
    EXPECT_FALSE(next.incremental);
    EXPECT_EQ(next.dirty_quadrants, 0u);
    expect_same_result(next.result,
                       from_scratch(net, next.request, tech, PipelineOptions{}));
    EXPECT_TRUE(s.captured(id));
}

TEST(Session, AddBatchCapturesLazilyAndServesDuplicates)
{
    const Technology tech = mcm_technology();
    Session s(tech);
    const auto nets = nets_with_duplicates(66, 5, 5);
    PipelineStats stats;
    const auto ids = s.add_batch(nets, &stats);
    ASSERT_EQ(ids.size(), nets.size());
    EXPECT_EQ(stats.cache_shared, 5u);
    for (const NetId id : ids) EXPECT_FALSE(s.captured(id));

    // Admission results are the batch results.
    PipelineOptions off;
    off.threads = 1;
    Workspace ws;
    for (std::size_t i = 0; i < nets.size(); ++i)
        EXPECT_EQ(fmt1(s.result(ids[i])),
                  fmt1(route_single(nets[i], i, 0, tech, off, ws)));

    // First apply materializes repair state and stays bit-identical.
    Net mutated = nets[2];
    Technology t = tech;
    const EcoDelta mv = EcoDelta::make_move(1, Point{50, 50});
    apply_delta(mutated, t, mv);
    const EcoOutcome o = s.apply(ids[2], mv);
    expect_same_result(o.result,
                       from_scratch(mutated, o.request, tech, PipelineOptions{}));
    EXPECT_TRUE(s.captured(ids[2]));
}

TEST(Session, FaultedRequestsMatchRouteSingle)
{
    // The second plan adds faults that fire without leaving a trace: a BRBC
    // fault on a net whose A-tree succeeded, and an arena cap above the
    // net's node count (about 25 here).  Such a request's result is clean,
    // yet it must keep no repair state.
    const struct {
        const char* spec;
        bool silent;  ///< the plan fires on some request with a clean result
    } plans[] = {
        {"seed=11,wiresize=0.4,nan=0.3,topology=0.3", false},
        {"seed=11,wiresize=0.4,nan=0.3,topology=0.3,fallback=0.4,moment=0.2,"
         "arena-cap=64@0.3",
         true},
    };
    for (const auto& plan : plans) {
        SCOPED_TRACE(plan.spec);
        const Technology tech = mcm_technology();
        SessionOptions opts;
        opts.pipeline.faults = FaultPlan::parse(plan.spec);
        Session s(tech, opts);

        Net net = interior_net(67, 12);
        const NetId id = s.add(net);  // request 0
        expect_same_result(s.result(id),
                           from_scratch(net, 0, tech, opts.pipeline));

        Technology t = tech;
        std::mt19937_64 rng(68);
        bool saw_fault = false;
        bool saw_silent = false;
        for (int step = 0; step < 8; ++step) {
            const EcoDelta d = EcoDelta::make_move(
                rng() % net.sinks.size(), Point{static_cast<Coord>(rng() % 4000),
                                                static_cast<Coord>(rng() % 4000)});
            apply_delta(net, t, d);
            const EcoOutcome o = s.apply(id, d);
            // Contract: the result is what the ordinary pipeline produces for
            // this request index under the same fault plan -- injected faults
            // and all.
            expect_same_result(
                o.result, from_scratch(net, o.request, tech, opts.pipeline));
            const bool clean =
                o.result.diag.empty() && o.result.status == RouteStatus::ok;
            saw_fault = saw_fault || !clean;
            bool fired = false;
            for (const RouteStage stage :
                 {RouteStage::topology, RouteStage::fallback, RouteStage::compile,
                  RouteStage::report, RouteStage::wiresize, RouteStage::moment_check})
                fired = fired || opts.pipeline.faults.fires(
                                     static_cast<std::size_t>(o.request), stage);
            if (fired) {
                EXPECT_FALSE(s.captured(id)) << "request " << o.request;
                saw_silent = saw_silent || clean;
            }
        }
        EXPECT_TRUE(saw_fault);  // the chosen rates make at least one fire
        EXPECT_EQ(saw_silent, plan.silent);
    }
}

TEST(Session, RemovingEveryUsableSinkDegradesLikeThePipeline)
{
    const Technology tech = mcm_technology();
    Session s(tech);
    Net net;
    net.source = Point{10, 10};
    net.sinks = {Point{100, 100}, Point{200, 50}};
    const NetId id = s.add(net);

    Technology t = tech;
    const EcoDelta rm0 = EcoDelta::make_remove(1);
    apply_delta(net, t, rm0);
    EcoOutcome o = s.apply(id, rm0);
    expect_same_result(o.result,
                       from_scratch(net, o.request, tech, PipelineOptions{}));

    // Removing the last sink leaves an invalid net; the session must report
    // exactly what the pipeline reports (a failed validation), not throw.
    const EcoDelta rm1 = EcoDelta::make_remove(0);
    apply_delta(net, t, rm1);
    o = s.apply(id, rm1);
    EXPECT_FALSE(o.incremental);
    expect_same_result(o.result,
                       from_scratch(net, o.request, tech, PipelineOptions{}));
}

TEST(Session, DeltaTypeCheckingAndBadIds)
{
    const Technology tech = mcm_technology();
    Session s(tech);
    const NetId id = s.add(interior_net(69, 6));

    EXPECT_THROW(s.apply(id, EcoDelta::make_move(99, Point{1, 1})),
                 std::invalid_argument);
    EXPECT_THROW(s.apply(id, EcoDelta::make_remove(6)),
                 std::invalid_argument);
    EXPECT_THROW(s.apply(id + 1, EcoDelta::make_retech(tech)),
                 std::out_of_range);
    EXPECT_THROW(s.result(id + 1), std::out_of_range);

    // A failed type-check mutates nothing: the stored result still matches
    // the unmutated net.
    expect_same_result(s.result(id),
                       from_scratch(s.net(id), 0, tech, PipelineOptions{}));
}

}  // namespace
}  // namespace cong93
