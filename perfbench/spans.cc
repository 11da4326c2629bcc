#include "spans.h"

#include <algorithm>
#include <cstdio>

namespace lgbench {

SpanLog::SpanLog(std::int32_t cell, std::string label)
    : cell_(cell), label_(std::move(label)) {
  // Room for every layer's detailed calls, so recording rarely grows a vector.
  spans_.reserve(8 * kDetailedCalls);
  aggs_.reserve(16);
  stack_.reserve(16);
  open_allocs_.reserve(16);
}

std::int32_t SpanLog::open(const char* name) {
  const std::int64_t a0 = static_cast<std::int64_t>(thread_alloc_counts().allocs);
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, parent, now_ns(), 0, 0, 0});
  const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(idx);
  open_allocs_.push_back(0);
  own_allocs_ += static_cast<std::int64_t>(thread_alloc_counts().allocs) - a0;
  open_allocs_.back() = program_allocs();
  return idx;
}

void SpanLog::close(std::int32_t idx) {
  Span& s = spans_[static_cast<std::size_t>(idx)];
  s.end_ns = now_ns();
  s.allocs = program_allocs() - open_allocs_.back();
  stack_.pop_back();
  open_allocs_.pop_back();
}

void SpanLog::record_call(const char* name, std::int64_t t0, std::int64_t t1,
                          std::int64_t allocs) {
  const std::int64_t a0 = static_cast<std::int64_t>(thread_alloc_counts().allocs);
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  auto it = std::find_if(aggs_.begin(), aggs_.end(),
                         [&](const auto& e) { return e.first == name; });
  if (it == aggs_.end()) {
    aggs_.push_back({name, Aggregate{parent, 0, 0, 0}});
    it = aggs_.end() - 1;
  }
  Aggregate& a = it->second;
  ++a.calls;
  a.ns += t1 - t0;
  a.allocs += allocs;
  if (a.calls <= kDetailedCalls) spans_.push_back(Span{name, parent, t0, t1, allocs, 1});
  own_allocs_ += static_cast<std::int64_t>(thread_alloc_counts().allocs) - a0;
}

const Aggregate* SpanLog::find_aggregate(const std::string& name) const {
  for (const auto& [n, a] : aggs_)
    if (name == n) return &a;
  return nullptr;
}

std::int64_t SpanLog::total_ns(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_)
    if (s.sample == 0 && s.name == name) ns += s.dur();
  if (const Aggregate* a = find_aggregate(name)) ns += a->ns;
  return ns;
}

std::int64_t SpanLog::total_calls(const std::string& name) const {
  std::int64_t n = 0;
  for (const Span& s : spans_)
    if (s.sample == 0 && s.name == name) ++n;
  if (const Aggregate* a = find_aggregate(name)) n += a->calls;
  return n;
}

std::int64_t SpanLog::total_allocs(const std::string& name) const {
  std::int64_t n = 0;
  for (const Span& s : spans_)
    if (s.sample == 0 && s.name == name) n += s.allocs;
  if (const Aggregate* a = find_aggregate(name)) n += a->allocs;
  return n;
}

std::int64_t SpanLog::unaccounted_ns() const {
  if (spans_.empty()) return 0;
  std::int64_t covered = 0;
  for (const Span& s : spans_)
    if (s.sample == 0 && s.parent == 0) covered += s.dur();
  for (const auto& [name, a] : aggs_)
    if (a.parent == 0) covered += a.ns;
  return spans_[0].dur() - covered;
}

int span_log_selftest() {
  // More spans than the log reserved room for, so its vectors grow, and
  // one call that allocates exactly once.
  SpanLog log(0, "selftest");
  {
    Scoped root(log, "bench.root");
    for (std::int64_t i = 0; i < 10 * SpanLog::kDetailedCalls; ++i) {
      Scoped s(log, "bench.empty");
    }
    log.call("bench.alloc_once", [] { ::operator delete(::operator new(16)); });
  }
  const bool ok = log.spans()[0].allocs == 1 && log.total_allocs("bench.empty") == 0 &&
                  log.total_allocs("bench.alloc_once") == 1;
  std::printf("span-log own allocations %s (root span counted %lld)\n",
              ok ? "excluded" : "COUNTED", static_cast<long long>(log.spans()[0].allocs));
  return ok ? 0 : 1;
}

namespace {

std::vector<std::int64_t> self_times(const SpanLog& log) {
  const auto& spans = log.spans();
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].dur();
  for (const Span& s : spans)
    if (s.sample == 0 && s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.dur();
  for (const auto& [name, a] : log.aggregates())
    if (a.parent >= 0) self[static_cast<std::size_t>(a.parent)] -= a.ns;
  return self;
}

}  // namespace

bool write_trace(const std::string& path, const std::string& workload,
                 const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": \"%s\", \"cells\": [\n", workload.c_str());
  for (std::size_t c = 0; c < logs.size(); ++c) {
    const SpanLog& log = *logs[c];
    const std::vector<std::int64_t> self = self_times(log);
    const std::int64_t t0 = log.spans().empty() ? 0 : log.spans()[0].start_ns;
    std::fprintf(f,
                 "{\"cell\": %d, \"label\": \"%s\", \"root_ns\": %lld, "
                 "\"unaccounted_ns\": %lld,\n \"spans\": [",
                 log.cell(), log.label().c_str(),
                 static_cast<long long>(log.root_ns()),
                 static_cast<long long>(log.unaccounted_ns()));
    const auto& spans = log.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s\n  {\"name\": \"%s\", \"parent\": %d, \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"self_ns\": %lld, \"allocs\": %lld, "
                   "\"sample\": %d}",
                   i ? "," : "", s.name, s.parent,
                   static_cast<long long>(s.start_ns - t0),
                   static_cast<long long>(s.end_ns - t0),
                   static_cast<long long>(self[i]),
                   static_cast<long long>(s.allocs), s.sample);
    }
    std::fprintf(f, "],\n \"aggregates\": [");
    bool first = true;
    for (const auto& [name, a] : log.aggregates()) {
      std::fprintf(f,
                   "%s\n  {\"name\": \"%s\", \"parent\": %d, \"calls\": %lld, "
                   "\"ns\": %lld, \"allocs\": %lld}",
                   first ? "" : ",", name, a.parent,
                   static_cast<long long>(a.calls), static_cast<long long>(a.ns),
                   static_cast<long long>(a.allocs));
      first = false;
    }
    std::fprintf(f, "]}%s\n", c + 1 < logs.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace lgbench
