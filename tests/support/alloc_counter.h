// Global heap-allocation counter for the "0 allocs" guards.
//
// alloc_counter.cc replaces every replaceable global operator new and
// delete: plain, array, aligned and nothrow news, and every matching delete.
// Replacing the global allocator is the one observer heap traffic cannot hide
// from: std::function, a growing container, an allocator behind a move or a
// library temporary buffer all land here. Replacing only some overloads is
// not enough: a nothrow new left to the runtime (std::stable_sort's buffer)
// would escape the count, and under AddressSanitizer its block would be freed
// by a replaced delete that never allocated it.
//
// Compile alloc_counter.cc into a binary to install the counter; a binary
// holds one global allocator, so at most one such file per binary.
#pragma once

#include <cstdint>

namespace lgsim {

/// Allocations made through any replaced operator new since program start,
/// on any thread (relaxed: callers read deltas around single-threaded code).
std::uint64_t heap_allocs();

}  // namespace lgsim
