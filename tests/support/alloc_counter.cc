#include "support/alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_heap_allocs{0};

void* counted_alloc(std::size_t n) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  std::size_t a = static_cast<std::size_t>(al);
  if (a < sizeof(void*)) a = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, a, n ? n : 1) != 0) return nullptr;
  return p;
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace lgsim {

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

}  // namespace lgsim

// Every new is malloc/posix_memalign-backed and every delete is free — an
// internally consistent pair, but GCC's heuristic flags free() on a pointer
// it watched come out of operator new.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t n) { return or_throw(counted_alloc(n)); }
void* operator new[](std::size_t n) { return or_throw(counted_alloc(n)); }
void* operator new(std::size_t n, std::align_val_t al) {
  return or_throw(counted_aligned_alloc(n, al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return or_throw(counted_aligned_alloc(n, al));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
