// Heap allocations per net of a warmed-up batch.
//
// This executable replaces the global operator new/delete with counting
// versions (the way e2ebench's traced binary does), so it stands alone:
// no other test shares its allocator.  It routes a mixed 2-16-sink batch
// twice on one Workspace at one thread and bounds the second batch's
// allocations per net.  The slot arenas (FlatTree, A-tree scratch, moment
// scratch, wiresize scratch) allocate nothing once warm.  What is left is
// 12.0 per net: 3 in validation and the batch's own bookkeeping, 2 for the
// result's shared assignment (it outlives the slot) and 7 for the moment
// check's RcTree.  Before the wiresize scratch the same batch made 70.2.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "batch/pipeline.h"
#include "batch/workspace.h"
#include "netgen/netgen.h"
#include "tech/technology.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(al);
    return std::aligned_alloc(a, ((n == 0 ? 1 : n) + a - 1) / a * a);
}

}  // namespace

void* operator new(std::size_t n)
{
    if (void* p = counted_alloc(n)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n)
{
    if (void* p = counted_alloc(n)) return p;
    throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al)
{
    if (void* p = counted_aligned_alloc(n, al)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al)
{
    if (void* p = counted_aligned_alloc(n, al)) return p;
    throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept
{
    return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept
{
    return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace cong93 {
namespace {

TEST(AllocCount, WarmBatchAllocationsPerNet)
{
    const Technology tech = mcm_technology();
    std::vector<Net> nets;
    for (int sinks = 2; sinks <= 16; ++sinks)
        for (const Net& n : random_nets(900 + static_cast<std::uint64_t>(sinks), 8,
                                        kMcmGrid, sinks))
            nets.push_back(n);

    PipelineOptions opts;
    opts.threads = 1;  // one slot, routed on this thread
    std::vector<Workspace> ws;
    PipelineStats stats;
    route_batch(nets, tech, opts, &stats, &ws);  // warm-up

    g_counting = true;
    const std::uint64_t before = g_allocs.load();
    const std::vector<NetRouteResult> results = route_batch(nets, tech, opts, &stats, &ws);
    const std::uint64_t allocs = g_allocs.load() - before;
    g_counting = false;

    for (const NetRouteResult& r : results) ASSERT_EQ(r.status, RouteStatus::ok);
    EXPECT_EQ(stats.counters.wiresize_growths, 0u);
    const double per_net = static_cast<double>(allocs) / static_cast<double>(nets.size());
    RecordProperty("allocs_per_net", std::to_string(per_net));
    EXPECT_LE(per_net, 12.5);
}

}  // namespace
}  // namespace cong93
