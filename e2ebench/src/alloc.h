// Heap-allocation counting for the traced run.
//
// e2e_bench_traced links alloc_count.cpp, which replaces the global
// operator new/delete and counts allocations per thread while counting is
// enabled.  e2e_bench (the timed, untraced binary) links alloc_off.cpp
// instead, so its allocator is the untouched default.
#ifndef E2E_ALLOC_H
#define E2E_ALLOC_H

#include <cstdint>

namespace e2e {

/// True in the binary that replaces operator new.
bool alloc_counting_linked();

/// Turns counting on or off for every thread (a relaxed flag; the counters
/// themselves are thread-local, so counting threads never share a line).
void set_alloc_counting(bool on);

/// Allocations made by the calling thread while counting was on.
std::uint64_t thread_allocs();

}  // namespace e2e

#endif  // E2E_ALLOC_H
