// Per-thread heap allocation counter for the allocs_per_* metrics.
//
// alloc_count.cc replaces every replaceable global operator new/delete
// (plain, array, nothrow, aligned, sized) so no allocation path escapes the
// count. Counters are thread-local: a span reads the delta on the thread
// that runs it, so cells running concurrently on a worker pool do not mix.
#pragma once

#include <cstdint>

namespace lgbench {

struct AllocCounts {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
};

/// Allocations and frees made by the calling thread so far.
AllocCounts thread_alloc_counts();

/// Calls each replaced overload once and checks that each is counted.
/// Returns the number of overloads that were not; prints each one.
int alloc_counter_selftest();

}  // namespace lgbench
