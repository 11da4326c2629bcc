#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <exception>

#include "spans.h"
#include "workload/arrivals.h"

namespace lgbench {

namespace {

using harness::Protection;
using harness::Transport;

// Domain tags separating each workload's seed streams.
constexpr std::uint64_t kStressTag = 0x5354524553530000ULL;
constexpr std::uint64_t kTestbedTag = 0x5445535442454400ULL;
constexpr std::uint64_t kFabricTag = 0x4641425249430000ULL;
constexpr std::uint64_t kDeployTag = 0x4445504c4f590000ULL;

// Fig. 8's per-cell frame count max(300K, 100 / loss) capped at 10M, scaled
// down uniformly: the 1e-5 cells keep their ~30x larger share of the grid.
constexpr double kStressScale = 0.1;
// Testbed trials per cell (Figs. 11/12 sizes at 1e-3 loss on 100G).
constexpr std::int64_t kTrials24k = 10000;
constexpr std::int64_t kTrials2m = 200;
constexpr std::int64_t kFig11Bytes = 24'387;
constexpr std::int64_t kFig12Bytes = 2'000'000;
// Fabric horizon per arm: twice bench_traffic's 5 ms.
constexpr double kFabricSeconds = 0.010;
constexpr std::int64_t kMinVictimsForTail = 4000;
// Deployment horizon: one year of hourly samples.
constexpr double kDeployWeeks = 52.0;

std::uint64_t cell_seed(std::uint64_t seed, std::uint64_t tag, std::size_t i) {
  return workload::mix_stream(seed, tag, static_cast<std::uint64_t>(i));
}

void fail(PassResult& out, const std::string& what) {
  out.failures.push_back(what);
}

void append(std::string& s, const char* f, ...) __attribute__((format(printf, 2, 3)));
void append(std::string& s, const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof(buf), f, ap);
  va_end(ap);
  s += buf;
}

PassResult guarded(const Inputs& in, PassResult (*body)(const Inputs&),
                   std::int64_t cells) {
  try {
    return body(in);
  } catch (const std::exception& e) {
    PassResult r;
    r.attempted = cells;
    r.failed = cells;
    fail(r, std::string("threw: ") + e.what());
    return r;
  }
}

/// Adds the wall and CPU time of its scope to a PassResult.
class EntryTimer {
 public:
  explicit EntryTimer(PassResult& r) : r_(r) {}
  ~EntryTimer() {
    r_.wall_s += seconds_since(t0_);
    r_.cpu_s += cpu_seconds() - c0_;
  }
  EntryTimer(const EntryTimer&) = delete;
  EntryTimer& operator=(const EntryTimer&) = delete;

 private:
  PassResult& r_;
  std::int64_t t0_ = now_ns();
  double c0_ = cpu_seconds();
};

Inputs stress_setup(const Params& p) {
  Inputs in;
  in.params = p;
  in.stress = stress_cells(p);
  return in;
}

Inputs testbed_setup(const Params& p) {
  Inputs in;
  in.params = p;
  in.testbed = testbed_cells(p);
  return in;
}

Inputs fabric_setup(const Params& p) {
  Inputs in;
  in.params = p;
  in.arms = {fabric_arm(p, traffic::Scheme::kCorrOptOnly),
             fabric_arm(p, traffic::Scheme::kCorrOptLg)};
  in.fabric = std::make_shared<const fabric::FabricTopology>(in.arms[0].topo);
  return in;
}

Inputs deploy_setup(const Params& p) {
  Inputs in;
  in.params = p;
  in.deploy = deploy_config(p);
  in.fabric = std::make_shared<const fabric::FabricTopology>(in.deploy.topo);
  return in;
}

PassResult stress_body(const Inputs& in) {
  PassResult out;
  std::vector<harness::StressResult> res;
  {
    EntryTimer t(out);
    res = harness::run_stress_grid(in.stress);
  }
  for (const auto& c : in.stress) out.work += static_cast<double>(c.packets);
  check_stress(in.stress, res, out);
  return out;
}

PassResult testbed_body(const Inputs& in) {
  PassResult out;
  std::vector<harness::FctResult> res;
  {
    EntryTimer t(out);
    res = harness::run_fct_grid(in.testbed);
  }
  for (const auto& r : res) out.work += static_cast<double>(r.fct_us.count());
  check_testbed(in.testbed, res, out);
  return out;
}

PassResult fabric_body(const Inputs& in) {
  PassResult out;
  traffic::TrafficResult co, lg;
  {
    EntryTimer t(out);
    co = traffic::run_traffic(in.arms[0], in.params.jobs);
    lg = traffic::run_traffic(in.arms[1], in.params.jobs);
  }
  out.work = static_cast<double>(co.generated + lg.generated);
  check_fabric(co, lg, *in.fabric, out);
  return out;
}

PassResult deploy_body(const Inputs& in) {
  PassResult out;
  corropt::DeploymentResult r;
  {
    EntryTimer t(out);
    r = corropt::run_deployment(in.deploy);
  }
  out.work = static_cast<double>(in.fabric->n_links()) * in.deploy.duration_hours;
  check_deploy(r, out);
  return out;
}

PassResult stress_pass(const Inputs& in) { return guarded(in, stress_body, 12); }
PassResult testbed_pass(const Inputs& in) { return guarded(in, testbed_body, 9); }
PassResult fabric_pass(const Inputs& in) { return guarded(in, fabric_body, 2); }
PassResult deploy_pass(const Inputs& in) { return guarded(in, deploy_body, 1); }

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = {
      {"stress_grid", "frames", "frames_per_s", true, stress_setup, stress_pass},
      {"fabric_fct", "flows", "flows_per_s", true, fabric_setup, fabric_pass},
      {"testbed_fct", "trials", "trials_per_s", true, testbed_setup, testbed_pass},
      {"deploy_year", "link-hours", "link_hours_per_s", false, deploy_setup,
       deploy_pass},
  };
  return w;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

std::vector<harness::StressConfig> stress_cells(const Params& p) {
  std::vector<harness::StressConfig> grid;
  for (BitRate rate : {gbps(25), gbps(100)}) {
    for (double loss : {1e-5, 1e-4, 1e-3}) {
      for (bool nb : {false, true}) {
        harness::StressConfig c;
        c.rate = rate;
        c.loss_rate = loss;
        c.lg.preserve_order = !nb;
        const double fig8 =
            std::min(1e7, std::max(3e5, 100.0 / loss));
        c.packets = std::max<std::int64_t>(
            1000, std::llround(fig8 * kStressScale * p.size));
        c.seed = cell_seed(p.seed, kStressTag, grid.size());
        grid.push_back(c);
      }
    }
  }
  return grid;
}

std::vector<harness::FctConfig> testbed_cells(const Params& p) {
  struct Kind {
    Transport t;
    std::int64_t bytes;
    std::int64_t trials;
  };
  const Kind kinds[] = {{Transport::kDctcp, kFig11Bytes, kTrials24k},
                        {Transport::kDctcp, kFig12Bytes, kTrials2m},
                        {Transport::kRdmaWrite, kFig11Bytes, kTrials24k}};
  std::vector<harness::FctConfig> grid;
  for (const Kind& k : kinds) {
    for (Protection pr : {Protection::kLossOnly, Protection::kLg, Protection::kLgNb}) {
      harness::FctConfig c;
      c.transport = k.t;
      c.protection = pr;
      c.flow_bytes = k.bytes;
      c.trials = std::max<std::int64_t>(
          20, std::llround(static_cast<double>(k.trials) * p.size));
      c.loss_rate = 1e-3;
      c.rate = gbps(100);
      c.seed = cell_seed(p.seed, kTestbedTag, grid.size());
      grid.push_back(c);
    }
  }
  return grid;
}

traffic::EngineConfig fabric_arm(const Params& p, traffic::Scheme scheme) {
  // bench_traffic's paper-scale arm: 260 pods, 99,840 links, 64 corrupting
  // links at constraint 0.9. The scenario (which links corrupt) is fixed so
  // every seed sees the same fabric; the seed drives the flows.
  traffic::EngineConfig c;
  c.topo = {.pods = 260, .tors_per_pod = 48, .fabrics_per_pod = 4,
            .spines_per_plane = 48};
  c.hosts_per_tor = 4;
  c.duration_sec = kFabricSeconds * p.size;
  c.slices = 8;
  c.seeds = {cell_seed(p.seed, kFabricTag, 0)};
  c.scheme = scheme;
  c.fidelity = traffic::Fidelity::kHybrid;
  c.corrupting_links = 64;
  c.capacity_constraint = 0.9;
  c.scenario_seed = 17;
  c.arrivals.load_fraction = 0.1;
  c.transport = Transport::kDctcp;
  c.link_rate = gbps(100);
  return c;
}

corropt::DeploymentConfig deploy_config(const Params& p) {
  corropt::DeploymentConfig c;
  c.topo = {.pods = 260, .tors_per_pod = 48, .fabrics_per_pod = 4,
            .spines_per_plane = 48};
  c.duration_hours = 24.0 * 7.0 * kDeployWeeks * p.size;
  c.mttf_hours = 10'000;
  c.capacity_constraint = 0.75;
  c.use_linkguardian = true;
  c.sample_period_hours = 1.0;
  c.seed = cell_seed(p.seed, kDeployTag, 0);
  return c;
}

std::string stress_label(const harness::StressConfig& c) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%lldG %.0e %s",
                static_cast<long long>(c.rate / gbps(1)), c.loss_rate,
                c.lg.preserve_order ? "LG" : "LG_NB");
  return buf;
}

std::string testbed_label(const harness::FctConfig& c) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s %lldB %s", harness::transport_name(c.transport),
                static_cast<long long>(c.flow_bytes),
                harness::protection_name(c.protection));
  return buf;
}

void check_stress(const std::vector<harness::StressConfig>& cells,
                  const std::vector<harness::StressResult>& res, PassResult& out) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    const auto& r = res[i];
    const std::string label = stress_label(c);
    append(out.outputs,
           "%s offered=%lld fwd=%lld wire_lost=%lld eff_lost=%lld retx=%lld "
           "timeouts=%lld pauses=%lld elapsed=%lld wire_loss=%.17g "
           "eff_loss=%.17g speed=%.17g txbuf99=%.17g rxbuf99=%.17g\n",
           label.c_str(), static_cast<long long>(r.offered_pkts),
           static_cast<long long>(r.forwarded),
           static_cast<long long>(r.data_frames_lost),
           static_cast<long long>(r.effectively_lost),
           static_cast<long long>(r.retx_copies_sent),
           static_cast<long long>(r.timeouts), static_cast<long long>(r.pauses),
           static_cast<long long>(r.elapsed), r.actual_loss_rate,
           r.effective_loss_rate, r.effective_speed_frac,
           r.tx_buffer_bytes.percentile(99), r.rx_buffer_bytes.percentile(99));
    ++out.attempted;
    bool ok = true;
    // LinkGuardian never loses more than the wire does.
    if (!(r.effective_loss_rate <= r.actual_loss_rate)) {
      fail(out, label + ": effective loss above measured wire loss");
      ok = false;
    }
    // No frame is both forwarded and lost, nor forwarded twice. (Frames
    // still queued behind LinkGuardian's overhead at the horizon are neither.)
    if (r.forwarded + r.effectively_lost > r.offered_pkts) {
      fail(out, label + ": forwarded + lost exceeds offered");
      ok = false;
    }
    if (!(r.effective_speed_frac > 0.0 && r.effective_speed_frac <= 1.0 + 1e-9)) {
      fail(out, label + ": effective speed outside (0, 1]");
      ok = false;
    }
    if (!ok) ++out.failed;
  }
}

void check_testbed(const std::vector<harness::FctConfig>& cells,
                   const std::vector<harness::FctResult>& res, PassResult& out) {
  std::vector<bool> ok(cells.size(), true);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& r = res[i];
    append(out.outputs,
           "%s trials=%lld p50=%.17g p99=%.17g p999=%.17g max=%.17g wire=%lld "
           "e2e_retx=%lld rto=%lld capped=%lld\n",
           testbed_label(cells[i]).c_str(), static_cast<long long>(r.fct_us.count()),
           r.p(50), r.p(99), r.p(99.9), r.fct_us.max(),
           static_cast<long long>(r.trials_with_wire_loss),
           static_cast<long long>(r.trials_with_e2e_retx),
           static_cast<long long>(r.trials_with_rto),
           static_cast<long long>(r.trials_capped));
    if (r.fct_us.count() != cells[i].trials || r.trials_capped != 0) {
      fail(out, testbed_label(cells[i]) + ": trial count or cap");
      ok[i] = false;
    }
  }
  // Cells come in {LossOnly, LG, LG_NB} triples. Ordered LG must hide every
  // corruption loss from the transport (no end-to-end retransmission or
  // RTO), which also brings the mean FCT below the loss-only cell's.
  for (std::size_t i = 0; i + 2 < cells.size(); i += 3) {
    const auto& lg = res[i + 1];
    if (lg.trials_with_e2e_retx != 0 || lg.trials_with_rto != 0 ||
        !(lg.fct_us.mean() < res[i].fct_us.mean())) {
      fail(out, testbed_label(cells[i + 1]) + ": corruption loss not masked");
      ok[i + 1] = false;
    }
  }
  for (bool b : ok) {
    ++out.attempted;
    if (!b) ++out.failed;
  }
}

void check_fabric(const traffic::TrafficResult& co, const traffic::TrafficResult& lg,
                  const fabric::FabricTopology& fabric, PassResult& out) {
  for (const auto* r : {&co, &lg}) {
    const char* name = r == &co ? "CorrOpt" : "CorrOpt+LG";
    append(out.outputs,
           "%s generated=%lld completed=%lld stranded=%lld victims=%lld "
           "packet=%lld fluid=%lld fallback=%lld hot=%zu disabled=%lld "
           "victim_p50=%.17g victim_p99=%.17g victim_p999=%.17g bg_p50=%.17g "
           "bg_p99=%.17g\n",
           name, static_cast<long long>(r->generated),
           static_cast<long long>(r->completed), static_cast<long long>(r->stranded),
           static_cast<long long>(r->victims), static_cast<long long>(r->packet_flows),
           static_cast<long long>(r->fluid_flows),
           static_cast<long long>(r->victim_fluid_fallback), r->hot_links.size(),
           static_cast<long long>(r->disabled_links), r->p_victim(50),
           r->p_victim(99), r->p_victim(99.9), r->p_bg(50), r->p_bg(99));
    ++out.attempted;
    bool ok = true;
    if (r->generated != r->completed + r->stranded ||
        r->completed != r->packet_flows + r->fluid_flows) {
      fail(out, std::string(name) + ": flow accounting does not balance");
      ok = false;
    }
    if (r->victims == 0 || r->hot_links.empty()) {
      fail(out, std::string(name) + ": no victim flows");
      ok = false;
    }
    for (const traffic::HotLink& h : r->hot_links) {
      if (h.id < 0 || h.id >= fabric.n_links()) {
        fail(out, std::string(name) + ": hot link outside the fabric");
        ok = false;
        break;
      }
    }
    // The tail comparison needs enough victims for a p99 past the ~1% of
    // them whose hot link actually loses a packet: the full grid has ~7,600
    // per arm, a 1/4-size warm-up pass ~1,900, too few to test it.
    if (r == &lg && co.victims >= kMinVictimsForTail &&
        !(lg.p_victim(99) < co.p_victim(99))) {
      fail(out, "CorrOpt+LG victim p99 not below CorrOpt-only");
      ok = false;
    }
    if (!ok) ++out.failed;
  }
}

void check_deploy(const corropt::DeploymentResult& r, PassResult& out) {
  const auto& c = r.cfg;
  append(out.outputs,
         "events=%lld disabled_now=%lld kept=%lld by_optimizer=%lld "
         "max_lg_per_switch=%d samples=%zu\n",
         static_cast<long long>(r.corruption_events),
         static_cast<long long>(r.disabled_immediately),
         static_cast<long long>(r.kept_active),
         static_cast<long long>(r.disabled_by_optimizer), r.max_lg_per_switch,
         r.samples.size());
  double penalty = 0.0, least_paths = 1.0, least_cap = 1.0;
  bool ok = true;
  for (const auto& s : r.samples) {
    append(out.outputs, "%.17g %.17g %.17g %.17g %d %d %d\n", s.time_hours,
           s.total_penalty, s.least_paths_frac, s.least_capacity_frac,
           s.corrupting_links, s.disabled_links, s.lg_links);
    penalty += s.total_penalty;
    least_paths = std::min(least_paths, s.least_paths_frac);
    least_cap = std::min(least_cap, s.least_capacity_frac);
    // CorrOpt never disables below the capacity constraint, and with
    // LinkGuardian on every active corrupting link is protected.
    if (s.least_paths_frac < c.capacity_constraint || s.lg_links != s.corrupting_links ||
        s.total_penalty < 0.0)
      ok = false;
  }
  const auto expect = static_cast<std::size_t>(
      std::ceil(c.duration_hours / c.sample_period_hours) - 1);
  if (r.samples.size() != expect) {
    fail(out, "sample count");
    ok = false;
  }
  if (!ok) fail(out, "a sample breaks the capacity or LG invariant");
  append(out.outputs, "mean_penalty=%.17g least_paths=%.17g least_capacity=%.17g\n",
         r.samples.empty() ? 0.0 : penalty / static_cast<double>(r.samples.size()),
         least_paths, least_cap);
  ++out.attempted;
  if (!ok) ++out.failed;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char ch : text) {
    h ^= ch;
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace lgbench
