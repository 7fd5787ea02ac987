// Counting disabled: the untraced binary keeps the default allocator.
#include "alloc.h"

namespace e2e {

bool alloc_counting_linked() { return false; }
void set_alloc_counting(bool) {}
std::uint64_t thread_allocs() { return 0; }

}  // namespace e2e
