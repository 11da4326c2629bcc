#include "reference.h"

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "spans.h"

namespace lgbench {

namespace {

// Random reads over a 32 MiB table, well past the L2 cache and a fair share
// of a shared L3: the access pattern of the fabric's link table. The table
// is mapped for each call and unmapped after it, so it never counts in
// peak_rss_mb.
constexpr std::size_t kTableWords = std::size_t{1} << 22;  // 8-byte words
constexpr int kTableReads = 4'000'000;
constexpr std::uint32_t kHeapEvents = 4096;
constexpr int kHeapOps = 1'200'000;
constexpr int kArithSteps = 12'000'000;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

volatile std::uint64_t g_sink;

}  // namespace

double reference_seconds() {
  const std::int64_t t0 = now_ns();

  // Event queue: pop the earliest event and schedule its successor, as the
  // simulator kernel does.
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  std::vector<Event> storage;
  storage.reserve(kHeapEvents);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap(
      std::greater<>{}, std::move(storage));
  std::uint64_t x = 88172645463325252ULL;
  for (std::uint32_t i = 0; i < kHeapEvents; ++i) heap.push({xorshift(x) % 100'000, i});
  for (int i = 0; i < kHeapOps; ++i) {
    const Event e = heap.top();
    heap.pop();
    heap.push({e.first + 1 + xorshift(x) % 1'000, e.second});
  }

  // Table reads.
  const std::size_t bytes = kTableWords * sizeof(std::uint64_t);
  void* map = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  std::uint64_t sum = 0;
  if (map != MAP_FAILED) {
    auto* table = static_cast<std::uint64_t*>(map);
    for (std::size_t i = 0; i < kTableWords; ++i) table[i] = i * 0x9E3779B97F4A7C15ULL;
    for (int i = 0; i < kTableReads; ++i) sum += table[xorshift(x) & (kTableWords - 1)];
    munmap(map, bytes);
  }

  // Integer and floating-point arithmetic.
  double f = 1.0;
  for (int i = 0; i < kArithSteps; ++i) {
    const std::uint64_t r = xorshift(x);
    f = f * 1.0000001 + static_cast<double>(r & 1023) * 1e-9;
    if (r & 1) f -= 1e-10;
  }

  const double s = seconds_since(t0);
  g_sink = heap.top().first + sum + static_cast<std::uint64_t>(f);
  return s;
}

}  // namespace lgbench
