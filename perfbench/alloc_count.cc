#include "alloc_count.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

namespace {

thread_local std::uint64_t t_allocs = 0;
thread_local std::uint64_t t_frees = 0;

void* counted_alloc(std::size_t n) noexcept {
  ++t_allocs;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) noexcept {
  ++t_allocs;
  std::size_t a = static_cast<std::size_t>(al);
  if (a < sizeof(void*)) a = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, a, n == 0 ? 1 : n) != 0) return nullptr;
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  ++t_frees;
  std::free(p);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return or_throw(counted_alloc(n)); }
void* operator new[](std::size_t n) { return or_throw(counted_alloc(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return or_throw(counted_aligned_alloc(n, al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return or_throw(counted_aligned_alloc(n, al));
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace lgbench {

AllocCounts thread_alloc_counts() { return {t_allocs, t_frees}; }

namespace {

// Escapes each pointer so the optimizer cannot pair and drop the calls.
void* volatile g_sink = nullptr;

}  // namespace

int alloc_counter_selftest() {
  constexpr std::size_t kN = 24;
  constexpr auto kAl = std::align_val_t{64};
  struct Case {
    const char* name;
    void* (*alloc)();
    void (*free)(void*);
  };
  // Each case allocates with one new overload and frees with one delete
  // overload; together the table covers all 8 + 12 replaced functions.
  const Case cases[] = {
      {"new / delete", [] { return ::operator new(kN); },
       [](void* p) { ::operator delete(p); }},
      {"new[] / delete[]", [] { return ::operator new[](kN); },
       [](void* p) { ::operator delete[](p); }},
      {"new nothrow / delete nothrow",
       [] { return ::operator new(kN, std::nothrow); },
       [](void* p) { ::operator delete(p, std::nothrow); }},
      {"new[] nothrow / delete[] nothrow",
       [] { return ::operator new[](kN, std::nothrow); },
       [](void* p) { ::operator delete[](p, std::nothrow); }},
      {"new aligned / delete sized", [] { return ::operator new(kN, kAl); },
       [](void* p) { ::operator delete(p, kN); }},
      {"new[] aligned / delete[] sized",
       [] { return ::operator new[](kN, kAl); },
       [](void* p) { ::operator delete[](p, kN); }},
      {"new aligned nothrow / delete aligned",
       [] { return ::operator new(kN, kAl, std::nothrow); },
       [](void* p) { ::operator delete(p, kAl); }},
      {"new[] aligned nothrow / delete[] aligned",
       [] { return ::operator new[](kN, kAl, std::nothrow); },
       [](void* p) { ::operator delete[](p, kAl); }},
      {"new / delete sized aligned", [] { return ::operator new(kN, kAl); },
       [](void* p) { ::operator delete(p, kN, kAl); }},
      {"new[] / delete[] sized aligned",
       [] { return ::operator new[](kN, kAl); },
       [](void* p) { ::operator delete[](p, kN, kAl); }},
      {"new / delete aligned nothrow", [] { return ::operator new(kN, kAl); },
       [](void* p) { ::operator delete(p, kAl, std::nothrow); }},
      {"new[] / delete[] aligned nothrow",
       [] { return ::operator new[](kN, kAl); },
       [](void* p) { ::operator delete[](p, kAl, std::nothrow); }},
  };
  int bad = 0;
  for (const Case& c : cases) {
    const AllocCounts before = thread_alloc_counts();
    void* p = c.alloc();
    g_sink = p;
    const AllocCounts mid = thread_alloc_counts();
    c.free(g_sink);
    const AllocCounts after = thread_alloc_counts();
    const bool ok = p != nullptr && mid.allocs == before.allocs + 1 &&
                    after.frees == mid.frees + 1;
    std::printf("alloc-counter %-42s %s\n", c.name, ok ? "counted" : "MISSED");
    if (!ok) ++bad;
  }
  // A new-expression, std::allocator and an over-aligned type must route
  // through the replaced functions as well.
  {
    struct alignas(128) Wide {
      char b[128];
    };
    const AllocCounts before = thread_alloc_counts();
    auto* w = new Wide;
    g_sink = w;
    delete static_cast<Wide*>(g_sink);
    int* v = std::allocator<int>().allocate(4);
    g_sink = v;
    std::allocator<int>().deallocate(static_cast<int*>(g_sink), 4);
    const AllocCounts after = thread_alloc_counts();
    const bool ok = after.allocs == before.allocs + 2 &&
                    after.frees == before.frees + 2;
    std::printf("alloc-counter %-42s %s\n", "new-expression / std::allocator",
                ok ? "counted" : "MISSED");
    if (!ok) ++bad;
  }
  return bad;
}

}  // namespace lgbench
