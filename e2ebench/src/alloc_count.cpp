// Replaced global allocation functions with per-thread counters.  Linked
// only into e2e_bench_traced.
#include <atomic>
#include <cstdlib>
#include <new>

#include "alloc.h"

namespace {

std::atomic<bool> g_counting{false};
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed)) ++t_allocs;
    return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al)
{
    if (g_counting.load(std::memory_order_relaxed)) ++t_allocs;
    const auto a = static_cast<std::size_t>(al);
    const std::size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
    return std::aligned_alloc(a, rounded);
}

}  // namespace

namespace e2e {

bool alloc_counting_linked() { return true; }

void set_alloc_counting(bool on)
{
    g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t thread_allocs() { return t_allocs; }

}  // namespace e2e

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

void* operator new(std::size_t n, const std::nothrow_t&) noexcept
{
    return counted_alloc(n);
}

void* operator new[](std::size_t n, const std::nothrow_t&) noexcept
{
    return counted_alloc(n);
}

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
