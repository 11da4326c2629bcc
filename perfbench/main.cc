// lgbench: the repository's benchmark program (see README.md beside it).
//
//   lgbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   lgbench --workload <name> --seed <n> --setup-only
//   lgbench --workload <name> --seed <n> --digest-only
//   lgbench --selftest
//
// Run from the repository root: trace files go to kResultsDir below it. The
// threaded workloads run LGSIM_BENCH_JOBS workers, the count the grid entry
// points themselves read. The last stdout line is one JSON object with the
// run's metrics, checks and provenance; perfbench/run.py turns it into the
// benchmark's result line.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "alloc_count.h"
#include "harness/parallel.h"
#include "layers.h"
#include "reference.h"
#include "spans.h"
#include "workloads.h"

namespace {

using namespace lgbench;

#if defined(__OPTIMIZE__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

#ifndef LGBENCH_BUILD_TYPE
#define LGBENCH_BUILD_TYPE "unknown"
#endif

constexpr const char* kResultsDir = ".bench_build/perfbench/results";

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Resets the kernel's peak-RSS mark (VmHWM), so that one pass's own peak
// can be read back; false where /proc does not allow it.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

// VmHWM in MB: the peak since the last reset_peak_rss().
double peak_rss_since_reset_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return peak_rss_mb();
  char line[256];
  double kb = -1.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb >= 0.0 ? kb / 1024.0 : peak_rss_mb();
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool setup_only = false;
  bool digest_only = false;
  bool selftest = false;
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (k == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (k == "--digest-only") {
      a.digest_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "lgbench: %s needs a value\n", k.c_str());
      return false;
    }
    const char* v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v);
    } else if (k == "--trace") {
      a.trace = std::atoi(v);
    } else {
      std::fprintf(stderr, "lgbench: unknown argument %s\n", k.c_str());
      return false;
    }
  }
  return true;
}

struct Totals {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  void add(const PassResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
  }
};

void print_result(const Args& a, const Workload& w, const Params& p,
                  const Totals& t, const std::string& dig, std::int64_t setup_end_ns,
                  const std::vector<std::pair<std::string, double>>& metrics) {
  std::string fails;
  for (std::size_t i = 0; i < t.failures.size() && i < 20; ++i)
    fails += (i ? ", \"" : "\"") + json_escape(t.failures[i]) + "\"";
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"jobs\": %u, "
      "\"nproc\": %u, \"work_unit\": \"%s\", \"rate_name\": \"%s\", "
      "\"build_type\": \"%s\", \"compiler\": \"%s\", \"optimized\": %s, "
      "\"digest\": \"%s\", \"setup_end_ns\": %lld, \"attempted\": %lld, "
      "\"failed\": %lld, \"failures\": [%s], \"metrics\": {",
      w.name, static_cast<unsigned long long>(a.seed), a.trace, p.jobs,
      std::thread::hardware_concurrency(), w.work_unit, w.rate_name,
      LGBENCH_BUILD_TYPE, json_escape(__VERSION__).c_str(),
      kOptimizedBuild ? "true" : "false", dig.c_str(),
      static_cast<long long>(setup_end_ns), static_cast<long long>(t.attempted), static_cast<long long>(t.failed),
      fails.c_str());
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": %.17g", i ? ", " : "", metrics[i].first.c_str(),
                metrics[i].second);
  std::printf("}}\n");
}

// Set-up ends where main() has built the inputs: process start to that
// point is setup_s, which run.py times from its side of the spawn. The
// warm-up pass comes after it and is not part of it.
int run_untraced(const Args& a, const Workload& w, const Inputs& in,
                 std::int64_t setup_end_ns) {
  Totals t;
  // Warm caches and the allocator with a reduced pass (checked like any
  // other).
  Params warm = in.params;
  warm.size = kWarmSize;
  t.add(w.pass(w.setup(warm)));

  // Timed phase: closed loop over the full grid while another pass fits
  // in the time (at least three passes), with the reference kernel timed
  // between passes. A pass's wall and CPU time are scaled by
  // kReferenceSeconds over the mean of the reference times just before and
  // just after it (reference.h), and the medians over passes are reported.
  // Peak memory per pass where the kernel lets the mark be reset (the
  // median over passes is steadier than the process-lifetime peak, which
  // depends on how worker threads' allocations happened to interleave);
  // otherwise the lifetime peak.
  reference_seconds();  // warm-up, like the reduced pass above
  double ref_before = reference_seconds();
  std::vector<double> rate, cpu, rss, refs{ref_before};
  std::string first_outputs;
  const std::int64_t start = now_ns();
  double last_pass_s = 0.0;
  while (rate.size() < 3 || seconds_since(start) + last_pass_s <= a.seconds) {
    const std::int64_t pass_start = now_ns();
    const bool per_pass_rss = reset_peak_rss();
    PassResult r = w.pass(in);
    rss.push_back(per_pass_rss ? peak_rss_since_reset_mb() : peak_rss_mb());
    const double ref_after = reference_seconds();
    refs.push_back(ref_after);
    const double scale = kReferenceSeconds / (0.5 * (ref_before + ref_after));
    ref_before = ref_after;
    cpu.push_back(r.cpu_s * scale);
    rate.push_back(r.wall_s > 0.0 ? r.work / (r.wall_s * scale) : 0.0);
    std::fprintf(stderr,
                 "pass %zu: %.3f s wall, %.3f s cpu, reference %.4f s, "
                 "normalised %.6g %s/s, %.3f s cpu, peak %.1f MB\n",
                 rate.size(), r.wall_s, r.cpu_s, ref_after, rate.back(), w.work_unit,
                 cpu.back(), rss.back());
    if (first_outputs.empty()) {
      first_outputs = r.outputs;
    } else if (r.outputs != first_outputs) {
      r.failures.push_back("outputs differ between repetitions");
      r.failed = r.attempted;
    }
    t.add(r);
    last_pass_s = seconds_since(pass_start);
  }
  print_result(a, w, in.params, t, digest(first_outputs), setup_end_ns,
               {{"work_per_s", median(rate)},
                {"cpu_s", median(cpu)},
                {"reference_s", median(refs)},
                {"reference_scale", kReferenceSeconds / median(refs)},
                {"peak_rss_mb", median(rss)},
                {"fail_frac", t.attempted ? static_cast<double>(t.failed) /
                                                static_cast<double>(t.attempted)
                                          : 1.0},
                {"reps", static_cast<double>(rate.size())}});
  return 0;
}

int run_traced(const Args& a, const Workload& w, const Inputs& in) {
  Totals t;
  // The untraced reference for the overhead and the output identity check.
  std::vector<double> walls;
  std::string outputs;
  for (int k = 0; k < 2; ++k) {
    const std::int64_t t0 = now_ns();
    const PassResult r = w.pass(in);
    walls.push_back(seconds_since(t0));
    outputs = r.outputs;
    t.add(r);
  }
  LayerResult own = trace_layers(w, in, outputs);
  t.add(own.checks);

  // Layers this workload bypasses are reported from a reduced traced pass
  // of the workload that loads them, so every run carries every metric.
  std::map<std::string, double> metrics;
  for (const Workload& o : workloads()) {
    if (&o == &w) continue;
    Params probe = in.params;
    probe.size = kWarmSize;
    probe.jobs = o.threaded ? harness::bench_jobs() : 1;
    const Inputs probe_in = o.setup(probe);
    const PassResult ref = o.pass(probe_in);
    t.add(ref);
    LayerResult lr = trace_layers(o, probe_in, ref.outputs);
    t.add(lr.checks);
    for (const auto& [k, v] : lr.metrics) metrics[k] = v;
  }
  for (const auto& [k, v] : own.metrics) metrics[k] = v;

  std::int64_t root = 0, unaccounted = 0;
  std::vector<const SpanLog*> logs;
  for (const auto& l : own.logs) {
    root += l->root_ns();
    unaccounted += l->unaccounted_ns();
    logs.push_back(l.get());
  }
  metrics["trace.overhead_frac"] =
      own.traced_wall_s / *std::min_element(walls.begin(), walls.end()) - 1.0;
  metrics["trace.unaccounted_frac"] =
      root > 0 ? static_cast<double>(unaccounted) / static_cast<double>(root) : 0.0;

  const std::string path = std::string(kResultsDir) + "/trace_" + w.name + "_seed" +
                           std::to_string(a.seed) + ".json";
  std::error_code ec;
  std::filesystem::create_directories(kResultsDir, ec);
  if (ec || !write_trace(path, w.name, logs)) {
    std::fprintf(stderr, "lgbench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("trace written to %s\n", path.c_str());
  std::vector<std::pair<std::string, double>> list(metrics.begin(), metrics.end());
  print_result(a, w, in.params, t, digest(outputs), 0, list);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) return 2;
  if (a.selftest) {
    const int missed = alloc_counter_selftest();
    std::printf("alloc-counter selftest: %s\n", missed ? "FAILED" : "ok");
    const int span_bad = span_log_selftest();
    return missed != 0 || span_bad != 0 ? 1 : 0;
  }
  const Workload* w = find_workload(a.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "lgbench: unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  Params p;
  p.seed = a.seed;
  p.jobs = w->threaded ? harness::bench_jobs() : 1;
  const Inputs in = w->setup(p);
  const std::int64_t setup_end_ns = now_ns();
  if (a.setup_only) {
    std::printf("{\"setup_end_ns\": %lld}\n", static_cast<long long>(setup_end_ns));
    return 0;
  }
  if (a.digest_only) {
    const PassResult r = w->pass(in);
    std::fputs(r.outputs.c_str(), stdout);
    std::printf("%s %s jobs=%u digest=%s failed=%lld\n", w->name,
                std::to_string(a.seed).c_str(), p.jobs, digest(r.outputs).c_str(),
                static_cast<long long>(r.failed));
    for (const auto& f : r.failures) std::printf("  check failed: %s\n", f.c_str());
    return r.failed ? 1 : 0;
  }
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "lgbench: refusing to time an unoptimized or sanitizer build\n");
    return 3;
  }
  return a.trace ? run_traced(a, *w, in) : run_untraced(a, *w, in, setup_end_ns);
}
