// Tests for the incremental delay-evaluation engine (wiresize/incremental.h)
// and the parallel batch driver (batch/batch.h):
//   * randomized equivalence of the incrementally maintained delay and
//     theta/phi against the from-scratch reference paths (delay_bruteforce)
//     over random width-update sequences;
//   * bit-identical GREWSA fixpoints between the incremental and the
//     reference implementation, and preservation of the Theorem 7 dominance
//     bracket;
//   * exact equality of theta_phi_fast against theta_phi's theta/phi;
//   * determinism and ordering of the thread-pool batch driver.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <random>
#include <utility>

#include "atree/generalized.h"
#include "batch/batch.h"
#include "netgen/netgen.h"
#include "wiresize/combined.h"
#include "wiresize/grewsa.h"
#include "wiresize/incremental.h"
#include "wiresize/owsa.h"

namespace cong93 {
namespace {

struct NetFixture {
    Technology tech = mcm_technology();  // WiresizeContext keeps a pointer
    RoutingTree tree{Point{0, 0}};
    std::unique_ptr<FlatTree> ft;
    std::unique_ptr<WiresizeContext> ctx;

    NetFixture(std::uint64_t seed, int sinks, WidthSet widths)
    {
        std::mt19937_64 rng(seed);
        const Net net = random_net(rng, kMcmGrid, sinks);
        tree = build_atree_general(net).tree;
        ft = std::make_unique<FlatTree>(tree);
        ctx = std::make_unique<WiresizeContext>(*ft, tech, std::move(widths));
    }
};

TEST(IncrementalEngine, RandomUpdateSequenceMatchesBruteforce)
{
    for (const int sinks : {4, 8, 16, 32}) {
        NetFixture f(100 + static_cast<std::uint64_t>(sinks), sinks,
                     WidthSet::uniform_steps(4));
        const std::size_t n = f.ctx->segment_count();
        IncrementalDelayEngine eng(*f.ctx, min_assignment(n));
        std::mt19937_64 rng(2024);
        std::uniform_int_distribution<std::size_t> pick_seg(0, n - 1);
        std::uniform_int_distribution<int> pick_w(0, 3);
        for (int step = 0; step < 300; ++step) {
            eng.apply_width(pick_seg(rng), pick_w(rng));
            if (step % 25 == 0 || step == 299) {
                const double brute = f.ctx->delay_bruteforce(eng.assignment());
                EXPECT_NEAR(eng.delay(), brute, 1e-9 * brute);
            }
        }
        // Every segment's theta/phi/psi against the from-scratch reference.
        for (std::size_t i = 0; i < n; ++i) {
            const auto ref = f.ctx->theta_phi(eng.assignment(), i);
            const auto inc = eng.theta_phi(i);
            // theta shares the exact ancestor-walk arithmetic; phi's
            // aggregate is exact for integer width multipliers.
            EXPECT_EQ(inc.theta, ref.theta) << "segment " << i;
            EXPECT_EQ(inc.phi, ref.phi) << "segment " << i;
            EXPECT_NEAR(inc.psi, ref.psi, 1e-9 * std::abs(ref.psi));
            EXPECT_EQ(eng.locally_optimal_width(i, 3),
                      f.ctx->locally_optimal_width(eng.assignment(), i, 3));
        }
    }
}

TEST(IncrementalEngine, FractionalWidthsStayWithinTolerance)
{
    // Non-integer multipliers lose the exact-summation property; the engine
    // must still track the reference to ~1e-9 relative.
    NetFixture f(7, 12, WidthSet({1.0, 1.4142135623730951, 2.718281828459045,
                                  3.141592653589793}));
    const std::size_t n = f.ctx->segment_count();
    IncrementalDelayEngine eng(*f.ctx, min_assignment(n));
    std::mt19937_64 rng(5);
    std::uniform_int_distribution<std::size_t> pick_seg(0, n - 1);
    std::uniform_int_distribution<int> pick_w(0, 3);
    for (int step = 0; step < 500; ++step) eng.apply_width(pick_seg(rng), pick_w(rng));
    const double brute = f.ctx->delay_bruteforce(eng.assignment());
    EXPECT_NEAR(eng.delay(), brute, 1e-9 * brute);
    for (std::size_t i = 0; i < n; ++i) {
        const auto ref = f.ctx->theta_phi(eng.assignment(), i);
        const auto inc = eng.theta_phi(i);
        EXPECT_NEAR(inc.theta, ref.theta, 1e-12 * ref.theta);
        EXPECT_NEAR(inc.phi, ref.phi, 1e-12 * ref.phi);
    }
}

TEST(IncrementalEngine, ResetRebuildsCaches)
{
    NetFixture f(11, 8, WidthSet::uniform_steps(3));
    const std::size_t n = f.ctx->segment_count();
    IncrementalDelayEngine eng(*f.ctx, min_assignment(n));
    eng.apply_width(0, 2);
    eng.reset(max_assignment(n, 3));
    EXPECT_EQ(eng.assignment(), max_assignment(n, 3));
    const double expect = f.ctx->delay(max_assignment(n, 3));
    EXPECT_EQ(eng.delay(), expect);
    // apply_width with the current width is a no-op.
    const double before = eng.delay();
    eng.apply_width(1, eng.width_index(1));
    EXPECT_EQ(eng.delay(), before);
}

TEST(ThetaPhiFast, ExactlyMatchesThetaPhi)
{
    NetFixture f(3, 10, WidthSet::uniform_steps(5));
    std::mt19937_64 rng(9);
    const std::size_t n = f.ctx->segment_count();
    Assignment a(n, 0);
    for (std::size_t i = 0; i < n; ++i)
        a[i] = static_cast<int>(rng() % 5);
    for (std::size_t i = 0; i < n; ++i) {
        const auto slow = f.ctx->theta_phi(a, i);
        const auto fast = f.ctx->theta_phi_fast(a, i);
        EXPECT_EQ(fast.theta, slow.theta);
        EXPECT_EQ(fast.phi, slow.phi);
        EXPECT_EQ(fast.psi, 0.0);  // fast path leaves psi unfilled
        EXPECT_NE(slow.psi, 0.0);
    }
}

#ifdef CONG93_HAVE_ORACLES
TEST(Grewsa, BitIdenticalToReference)
{
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        for (const int r : {2, 3, 4, 6}) {
            NetFixture f(seed, 16, WidthSet::uniform_steps(r));
            const std::size_t n = f.ctx->segment_count();
            for (const Assignment& start :
                 {min_assignment(n), max_assignment(n, r)}) {
                const GrewsaResult fast = grewsa(*f.ctx, start);
                const GrewsaResult ref = grewsa_reference(*f.ctx, start);
                EXPECT_EQ(fast.assignment, ref.assignment);
                EXPECT_EQ(fast.delay, ref.delay);
                EXPECT_EQ(fast.sweeps, ref.sweeps);
                EXPECT_EQ(fast.refinements, ref.refinements);
            }
        }
    }
}
#endif  // CONG93_HAVE_ORACLES

TEST(Grewsa, DominanceBracketPreserved)
{
    // Theorem 7 must survive the incremental rewrite: the min/max fixpoints
    // still bracket the OWSA optimum.
    for (const std::uint64_t seed : {21u, 22u, 23u}) {
        NetFixture f(seed, 10, WidthSet::uniform_steps(4));
        const GrewsaResult lo = grewsa_from_min(*f.ctx);
        const GrewsaResult hi = grewsa_from_max(*f.ctx);
        const OwsaResult o = owsa(*f.ctx);
        EXPECT_TRUE(dominates(o.assignment, lo.assignment));
        EXPECT_TRUE(dominates(hi.assignment, o.assignment));
        EXPECT_GE(lo.delay, o.delay * (1.0 - 1e-9));
        EXPECT_GE(hi.delay, o.delay * (1.0 - 1e-9));
    }
}

TEST(Batch, MapIsOrderedAndDeterministic)
{
    const auto job = [](std::size_t i) {
        // Nontrivial per-item value seeded deterministically by index.
        double acc = 0.0;
        std::mt19937_64 rng(net_seed(42, i));
        for (int k = 0; k < 100; ++k)
            acc += static_cast<double>(rng() % 1000) * 1e-3;
        return acc;
    };
    const auto serial = batch_map<double>(64, job, 1);
    const auto parallel = batch_map<double>(64, job, 4);
    EXPECT_EQ(serial, parallel);  // byte-identical, index-ordered
}

TEST(Batch, FullWiresizeFlowIdenticalSerialVsParallel)
{
    const auto nets = random_nets(77, 12, kMcmGrid, 8);
    std::vector<FlatTree> trees;
    trees.reserve(nets.size());
    for (const Net& net : nets) trees.emplace_back(build_atree_general(net).tree);
    const Technology tech = mcm_technology();
    const auto run = [&](int threads) {
        return batch_map<std::pair<double, Assignment>>(
            trees.size(),
            [&](std::size_t i) {
                const WiresizeContext ctx(trees[i], tech,
                                          WidthSet::uniform_steps(4));
                const CombinedResult c = grewsa_owsa(ctx);
                return std::make_pair(c.delay, c.assignment);
            },
            threads);
    };
    EXPECT_EQ(run(1), run(3));
}

TEST(Batch, ThreadPoolRunsEveryJobOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.thread_count(), 4);
    std::atomic<int> count{0};
    parallel_for_index(pool, 1000, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 1000);
    // The pool is reusable once a parallel_for has returned.
    parallel_for_index(pool, 10, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 1010);
}

TEST(Batch, NetSeedIsStableAndDecorrelated)
{
    EXPECT_EQ(net_seed(1, 0), net_seed(1, 0));
    EXPECT_NE(net_seed(1, 0), net_seed(1, 1));
    EXPECT_NE(net_seed(1, 0), net_seed(2, 0));
}

TEST(Batch, ThreadCountEnvOverride)
{
    ::setenv("CONG93_THREADS", "3", 1);
    EXPECT_EQ(default_thread_count(), 3);
    ::setenv("CONG93_THREADS", "0", 1);
    EXPECT_EQ(default_thread_count(), 1);
    ::unsetenv("CONG93_THREADS");
    EXPECT_GE(default_thread_count(), 1);
}

}  // namespace
}  // namespace cong93
