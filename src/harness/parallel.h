// Thread-pool replication runner for sweep-style experiments.
//
// Every figure/table of the paper is reproduced by running many independent
// simulations — seeds x loss rates x configs. The Simulator itself is
// single-threaded by design (see DESIGN.md); the parallelism lives one layer
// up, at the replication grid: each {seed, config} cell constructs its own
// Simulator/Rng inside the run function, so workers share no mutable state.
//
// One pool, parallel_map, spawns every worker thread; ParallelRunner is the
// {seed, config} grid front end over it. Determinism contract: results are
// byte-identical for any worker count (LGSIM_BENCH_JOBS=1 vs =8), because
//   1. each replication's result depends only on its config (no ambient
//      state, no shared RNG draws, no time-of-day), and
//   2. each item's result lands in its own input-indexed slot, so results
//      come back in submission order whatever the scheduling.
// tests/parallel_runner_test.cc enforces this differentially, and a
// ThreadSanitizer build of the same test runs in the tier-1 ctest pass.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/env.h"

namespace lgsim::harness {

/// Worker count for replication sweeps: LGSIM_BENCH_JOBS if set (strictly
/// positive integer; garbage falls back), else hardware_concurrency.
inline unsigned bench_jobs() {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return parse_positive_count(std::getenv("LGSIM_BENCH_JOBS"), hw);
}

/// Runs `fn(items[i], i)` for every item on up to `jobs` worker threads and
/// returns the results in input order. Items are claimed from a shared atomic
/// cursor (dynamic load balancing: replication run times vary by orders of
/// magnitude across loss rates); each worker writes only to its own slice of
/// per-index slots, so no locking is needed and the output order is fixed by
/// construction. The first exception thrown by any item is rethrown after
/// all workers join.
template <typename Item, typename Fn>
auto parallel_map(const std::vector<Item>& items, Fn&& fn,
                  unsigned jobs = bench_jobs())
    -> std::vector<decltype(fn(items[0], std::size_t{0}))> {
  using Result = decltype(fn(items[0], std::size_t{0}));

  std::vector<std::optional<Result>> slots(items.size());
  if (jobs < 1) jobs = 1;
  const unsigned workers = static_cast<unsigned>(
      std::min<std::size_t>(jobs, items.size()));

  if (workers <= 1) {
    // Serial reference path: identical work, identical order.
    for (std::size_t i = 0; i < items.size(); ++i) slots[i] = fn(items[i], i);
  } else {
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(workers);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        try {
          for (;;) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= items.size()) return;
            slots[i] = fn(items[i], i);
          }
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    }
    for (auto& t : pool) t.join();
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  std::vector<Result> out;
  out.reserve(items.size());
  for (auto& s : slots) {
    if (s.has_value()) out.push_back(std::move(*s));
  }
  return out;
}

/// Fans a grid of {seed, config} replications out over parallel_map and
/// returns the results in submission order.
///
/// Usage:
///   ParallelRunner<StressConfig, StressResult> runner(
///       [](const StressConfig& c) { return run_stress(c); });
///   for (...) runner.add(cfg.seed, cfg);
///   auto rows = runner.run_in_grid_order();
template <typename Config, typename Value>
class ParallelRunner {
 public:
  using RunFn = std::function<Value(const Config&)>;

  explicit ParallelRunner(RunFn fn, unsigned jobs = bench_jobs())
      : fn_(std::move(fn)), jobs_(jobs) {}

  /// Adds one replication at the next grid position. The seed only labels
  /// the cell's trace sink.
  void add(std::uint64_t seed, Config cfg) {
    grid_.push_back(Cell{seed, std::move(cfg)});
  }

  /// Runs every cell and returns results in submission order — what a serial
  /// `for` loop over the same grid would have produced, for any worker count.
  std::vector<Value> run_in_grid_order() {
    // Per-cell trace sinks, when a bench installed a TraceCollector. All
    // sinks are allocated here on the main thread, before any worker spawns
    // and in grid-submission order, so the exported trace is byte-identical
    // for any worker count: a cell's ring depends only on its deterministic
    // simulation, and sink order depends only on submission order. Each cell
    // runs under a SinkScope for its own sink (one thread at a time — no
    // synchronization needed); worker threads start with a null thread-local
    // sink, so untraced runs are unaffected.
    std::vector<obs::TraceSink*> sinks;
    if (obs::TraceCollector* col = obs::TraceCollector::active()) {
      sinks.reserve(grid_.size());
      for (std::size_t i = 0; i < grid_.size(); ++i) {
        sinks.push_back(col->make_sink("cell " + std::to_string(i) +
                                       " seed=" +
                                       std::to_string(grid_[i].seed)));
      }
    }
    return parallel_map(
        grid_,
        [&](const Cell& c, std::size_t i) {
          if (sinks.empty()) return fn_(c.cfg);
          obs::SinkScope scope(sinks[i]);
          return fn_(c.cfg);
        },
        jobs_);
  }

 private:
  struct Cell {
    std::uint64_t seed;
    Config cfg;
  };

  RunFn fn_;
  unsigned jobs_;
  std::vector<Cell> grid_;
};

}  // namespace lgsim::harness
