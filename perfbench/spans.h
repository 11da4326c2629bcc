// Spans recorded by the benchmark around its own calls into simulator
// layers (nothing inside src/ is probed). One SpanLog per cell, owned by the
// single thread that runs the cell; logs are created up front on the main
// thread, kept in memory, and written out once when the run ends.
//
// Hot loops (one call per flow or per corruption event) are recorded as
// aggregates — call count, summed duration and allocations per layer under
// the enclosing span — plus full per-call spans for the first
// kDetailedCalls calls of each layer, so the trace stays bounded. Self time
// and the unaccounted share are computed from the aggregates.
//
// Span names are string literals, so recording a span allocates nothing of
// its own; the log's own vector growth is counted apart and kept out of
// every span's allocation count, which is the program's alone.
#pragma once

#include <chrono>
#include <cstdint>
#include <utility>
#include <string>
#include <vector>

#include "alloc_count.h"

namespace lgbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0_ns) {
  return 1e-9 * static_cast<double>(now_ns() - t0_ns);
}

struct Span {
  const char* name = "";  // a string literal
  std::int32_t parent = -1;  // index into the same log, -1 for the root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t allocs = 0;
  /// 0: an ordinary span. 1: a per-call sample of a hot-loop layer whose
  /// time is also counted in that layer's aggregate.
  std::int32_t sample = 0;
  std::int64_t dur() const { return end_ns - start_ns; }
};

struct Aggregate {
  std::int32_t parent = -1;
  std::int64_t calls = 0;
  std::int64_t ns = 0;
  std::int64_t allocs = 0;
};

class SpanLog {
 public:
  static constexpr std::int64_t kDetailedCalls = 2000;

  SpanLog(std::int32_t cell, std::string label);

  std::int32_t open(const char* name);
  void close(std::int32_t idx);

  /// Allocations the calling thread has made so far, less the log's own.
  std::int64_t program_allocs() const {
    return static_cast<std::int64_t>(thread_alloc_counts().allocs) - own_allocs_;
  }

  /// Times fn() as one call of the hot-loop layer `name`, under the
  /// innermost open span.
  template <typename Fn>
  decltype(auto) call(const char* name, Fn&& fn) {
    const std::int64_t a0 = program_allocs();
    const std::int64_t t0 = now_ns();
    struct Done {
      SpanLog* log;
      const char* name;
      std::int64_t t0, a0;
      ~Done() { log->record_call(name, t0, now_ns(), log->program_allocs() - a0); }
    } done{this, name, t0, a0};
    return fn();
  }

  std::int32_t cell() const { return cell_; }
  const std::string& label() const { return label_; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::pair<const char*, Aggregate>>& aggregates() const {
    return aggs_;
  }

  /// Summed duration / calls / allocations of every span or aggregate named
  /// `name` (per-call samples excluded: their time is in the aggregate).
  std::int64_t total_ns(const std::string& name) const;
  std::int64_t total_calls(const std::string& name) const;
  std::int64_t total_allocs(const std::string& name) const;
  /// Root span duration minus everything recorded beneath it.
  std::int64_t unaccounted_ns() const;
  std::int64_t root_ns() const { return spans_.empty() ? 0 : spans_[0].dur(); }

 private:
  void record_call(const char* name, std::int64_t t0, std::int64_t t1,
                   std::int64_t allocs);

  std::int32_t cell_;
  std::string label_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::vector<std::int64_t> open_allocs_;
  std::int64_t own_allocs_ = 0;  // made by this log's own bookkeeping
  // Keyed by the name literal's address: a hot-loop lookup must stay cheap.
  std::vector<std::pair<const char*, Aggregate>> aggs_;
  const Aggregate* find_aggregate(const std::string& name) const;
};

/// RAII span on a log.
class Scoped {
 public:
  Scoped(SpanLog& log, const char* name) : log_(log), idx_(log.open(name)) {}
  ~Scoped() { log_.close(idx_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  std::int32_t idx_;
};

/// Checks that a log keeps its own allocations out of its spans' counts;
/// returns 0 if it does, 1 (and prints why) if not.
int span_log_selftest();

/// Writes every log as one JSON document (spans, aggregates, self times).
bool write_trace(const std::string& path, const std::string& workload,
                 const std::vector<const SpanLog*>& logs);

}  // namespace lgbench
