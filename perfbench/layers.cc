#include "layers.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <utility>

#include "fabric/topology.h"
#include "harness/parallel.h"
#include "lg/config.h"
#include "net/loss_model.h"
#include "obs/trace.h"
#include "traffic/fluid.h"
#include "traffic/path.h"
#include "transport/path.h"
#include "transport/rdma.h"
#include "transport/tcp.h"
#include "workload/arrivals.h"
#include "workload/flow_sizes.h"

namespace lgbench {

namespace {

using harness::Protection;
using harness::Transport;

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

/// Sum of every counter in `m` whose name ends with `suffix`.
double sum_counters(const obs::MetricsRegistry& m, const std::string& suffix) {
  double s = 0.0;
  for (const auto& [name, v] : m.snapshot()) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
      s += v;
  }
  return s;
}

double counter(const obs::MetricsRegistry& m, const std::string& name) {
  for (const auto& [n, v] : m.snapshot())
    if (n == name) return v;
  return 0.0;
}

/// harness.* from the cells' root spans: busy time per cell and the share
/// of (wall x jobs) the cells kept busy.
void harness_metrics(const LayerResult& lr, std::size_t first, std::size_t n,
                     double wall_s, unsigned jobs, std::map<std::string, double>& m) {
  std::vector<double> cell_s;
  double busy = 0.0;
  for (std::size_t i = first; i < first + n; ++i) {
    cell_s.push_back(1e-9 * static_cast<double>(lr.logs[i]->root_ns()));
    busy += cell_s.back();
  }
  m["harness.cell_s.p50"] = median(cell_s);
  m["harness.cell_s.max"] = *std::max_element(cell_s.begin(), cell_s.end());
  m["harness.parallel_eff"] = ratio(busy, wall_s * jobs);
}

void require_identical(const std::string& traced, const std::string& untraced,
                       const char* what, PassResult& checks) {
  if (traced != untraced) {
    checks.failures.push_back(std::string(what) +
                              ": traced outputs differ from the untraced run");
    checks.failed = checks.attempted;
  }
}

// ---------------------------------------------------------------- stress --

LayerResult trace_stress(const Inputs& in, const std::string& untraced) {
  LayerResult lr;
  const Params& p = in.params;
  const auto& cells = in.stress;
  obs::TraceCollector col;
  col.install();
  std::vector<obs::TraceSink*> sinks;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    sinks.push_back(col.make_sink(stress_label(cells[i])));
    lr.logs.push_back(std::make_unique<SpanLog>(static_cast<std::int32_t>(i),
                                                stress_label(cells[i])));
  }
  const std::int64_t t0 = now_ns();
  const auto res = harness::parallel_map(
      cells,
      [&](const harness::StressConfig& c, std::size_t i) {
        obs::SinkScope scope(sinks[i]);
        Scoped cell(*lr.logs[i], "harness.cell");
        Scoped call(*lr.logs[i], "harness.run_stress");
        return harness::run_stress(c);
      },
      p.jobs);
  col.uninstall();
  check_stress(cells, res, lr.checks);
  lr.traced_wall_s = seconds_since(t0);  // like the untraced pass: run + check
  require_identical(lr.checks.outputs, untraced, "stress_grid", lr.checks);

  auto& m = lr.metrics;
  harness_metrics(lr, 0, cells.size(), lr.traced_wall_s, p.jobs, m);
  double frames = 0, events = 0, peak_heap = 0, drops = 0, wire = 0, fwd = 0,
         retx = 0, lost = 0, timeouts = 0, pauses = 0, tx99 = 0, rx99 = 0,
         busy_ns = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const obs::MetricsRegistry& reg = sinks[i]->metrics();
    const auto& r = res[i];
    frames += static_cast<double>(r.offered_pkts);
    events += counter(reg, "sim.events_executed");
    peak_heap = std::max(peak_heap, counter(reg, "sim.peak_heap_depth"));
    drops += sum_counters(reg, ".drop_frames");
    wire += counter(reg, "port.stress.fwd.tx_frames");
    fwd += static_cast<double>(r.forwarded);
    retx += static_cast<double>(r.retx_copies_sent);
    lost += static_cast<double>(r.data_frames_lost);
    timeouts += static_cast<double>(r.timeouts);
    pauses += static_cast<double>(r.pauses);
    tx99 = std::max(tx99, r.tx_buffer_bytes.percentile(99));
    rx99 = std::max(rx99, r.rx_buffer_bytes.percentile(99));
    busy_ns += static_cast<double>(lr.logs[i]->root_ns());
  }
  m["sim.events_per_frame"] = ratio(events, frames);
  m["sim.ns_per_event"] = ratio(busy_ns, events);
  m["sim.peak_heap_depth"] = peak_heap;
  m["net.drop_frames"] = drops;
  m["lg.retx_per_loss"] = ratio(retx, lost);
  m["lg.useful_frac"] = ratio(fwd, wire);
  m["lg.timeouts"] = timeouts;
  m["lg.pauses"] = pauses;
  m["lg.tx_buffer_p99_bytes"] = tx99;
  m["lg.rx_buffer_p99_bytes"] = rx99;

  // Layer differentials on the 100G 1e-4 cell, serial on this thread so the
  // allocation counts are the cell's own: LG off (port, fiber and loss roll
  // only), then ordered LG and LG_NB. Median of three runs each.
  const std::size_t ref = 8;  // 100G 1e-4 LG
  struct Arm {
    const char* name;
    harness::StressConfig cfg;
    double ns = 0, allocs = 0;
  };
  Arm arms[] = {{"net.lg_off", cells[ref]}, {"lg.ordered", cells[ref]},
                {"lg.nb", cells[ref + 1]}};
  arms[0].cfg.enable_lg = false;
  auto& dlog = *lr.logs.emplace_back(
      std::make_unique<SpanLog>(static_cast<std::int32_t>(cells.size()),
                                "layer differential " + stress_label(cells[ref])));
  Scoped droot(dlog, "bench.layer_differential");
  for (Arm& a : arms) {
    std::vector<double> ns, allocs;
    for (int k = 0; k < 3; ++k) {
      const std::int64_t a0 = dlog.program_allocs();
      const std::int64_t s0 = now_ns();
      {
        Scoped s(dlog, a.name);
        harness::run_stress(a.cfg);
      }
      ns.push_back(static_cast<double>(now_ns() - s0));
      allocs.push_back(static_cast<double>(dlog.program_allocs() - a0));
    }
    a.ns = median(ns) / static_cast<double>(a.cfg.packets);
    a.allocs = median(allocs) / static_cast<double>(a.cfg.packets);
  }
  m["net.ns_per_frame"] = arms[0].ns;
  m["net.allocs_per_frame"] = arms[0].allocs;
  m["lg.ns_per_frame.ordered"] = arms[1].ns - arms[0].ns;
  m["lg.ns_per_frame.nb"] = arms[2].ns - arms[0].ns;
  m["lg.allocs_per_frame.ordered"] = arms[1].allocs - arms[0].allocs;
  m["lg.allocs_per_frame.nb"] = arms[2].allocs - arms[0].allocs;
  return lr;
}

// --------------------------------------------------------------- testbed --

struct Redriven {
  std::vector<double> fct_us;
  std::uint64_t events = 0;
};

/// harness::run_fct's trial loop rebuilt from the public transport, lg and
/// net types, one span per trial, so the cell's Simulator counters can be
/// read. Its FCTs must equal run_fct's for the same config.
Redriven redrive_fct(const harness::FctConfig& cfg, SpanLog& log) {
  Simulator sim;
  const bool is_rdma = cfg.transport == Transport::kRdmaWrite;
  transport::PathConfig pc = cfg.path;
  pc.rate = cfg.rate;
  pc.link.rate = cfg.rate;
  pc.host_delay = is_rdma ? usec(6) : usec(12);
  pc.lg = lg::tuned_for_rate(pc.lg, cfg.rate);
  pc.lg.actual_loss_rate = cfg.loss_rate;
  if (cfg.protection == Protection::kLgNb) pc.lg.preserve_order = false;
  if (cfg.transport == Transport::kDctcp) pc.link.ecn_threshold_bytes = 100'000;
  transport::TestbedPath path(sim, pc);
  Rng rng(cfg.seed);
  if (cfg.protection != Protection::kNoLoss)
    path.link().set_loss_model(
        std::make_unique<net::BernoulliLoss>(cfg.loss_rate, rng.split()));
  if (cfg.protection == Protection::kLg || cfg.protection == Protection::kLgNb)
    path.link().enable_lg();

  transport::TcpConfig tcfg;
  if (cfg.transport == Transport::kDctcp) {
    tcfg.cc = transport::TcpCc::kDctcp;
    tcfg.ecn_capable = true;
  }
  transport::RdmaConfig rcfg;
  SimTime trial_fct = -1;
  auto on_done = [&](SimTime fct) { trial_fct = fct; };
  std::unique_ptr<transport::TcpSender> tcp_snd;
  std::unique_ptr<transport::TcpReceiver> tcp_rcv;
  std::unique_ptr<transport::RdmaSender> rdma_snd;
  std::unique_ptr<transport::RdmaReceiver> rdma_rcv;
  if (is_rdma) {
    rdma_snd = std::make_unique<transport::RdmaSender>(
        sim, rcfg, 1, [&](net::Packet&& pk) { path.send_from_a(std::move(pk)); }, on_done);
    rdma_rcv = std::make_unique<transport::RdmaReceiver>(
        sim, rcfg, 1, [&](net::Packet&& pk) { path.send_from_b(std::move(pk)); });
    path.set_sink_at_b([&](net::Packet&& pk) { rdma_rcv->on_data(pk); });
    path.set_sink_at_a([&](net::Packet&& pk) { rdma_snd->on_transport(pk); });
  } else {
    tcp_snd = std::make_unique<transport::TcpSender>(
        sim, tcfg, 1, [&](net::Packet&& pk) { path.send_from_a(std::move(pk)); }, on_done);
    tcp_rcv = std::make_unique<transport::TcpReceiver>(
        sim, tcfg, 1, [&](net::Packet&& pk) { path.send_from_b(std::move(pk)); });
    path.set_sink_at_b([&](net::Packet&& pk) { tcp_rcv->on_data(pk); });
    path.set_sink_at_a([&](net::Packet&& pk) { tcp_snd->on_ack(pk); });
  }

  Redriven out;
  for (std::int64_t trial = 0; trial < cfg.trials; ++trial) {
    log.call("transport.trial", [&] {
      const auto fid = static_cast<std::uint32_t>(trial + 1);
      trial_fct = -1;
      if (is_rdma) {
        rdma_snd->reset(fid);
        rdma_rcv->reset(fid);
        rdma_snd->start(cfg.flow_bytes);
      } else {
        tcp_snd->reset(fid);
        tcp_rcv->reset(fid);
        tcp_snd->start(cfg.flow_bytes);
      }
      const SimTime deadline = sim.now() + cfg.trial_cap;
      while (trial_fct < 0 && sim.now() < deadline) {
        if (!sim.step()) break;
        if (sim.now() > deadline) break;
      }
      out.fct_us.push_back(to_usec(trial_fct < 0 ? cfg.trial_cap : trial_fct));
      sim.run(sim.now() + cfg.inter_trial_gap);
    });
  }
  out.events = sim.counters().executed;
  return out;
}

LayerResult trace_testbed(const Inputs& in, const std::string& untraced) {
  LayerResult lr;
  const Params& p = in.params;
  const auto& cells = in.testbed;
  // run_fct pushes no counters into a sink, so this pass installs none; the
  // kernel's counters come from the re-driven cells below.
  for (std::size_t i = 0; i < cells.size(); ++i)
    lr.logs.push_back(std::make_unique<SpanLog>(static_cast<std::int32_t>(i),
                                                testbed_label(cells[i])));
  const std::int64_t t0 = now_ns();
  const auto res = harness::parallel_map(
      cells,
      [&](const harness::FctConfig& c, std::size_t i) {
        Scoped cell(*lr.logs[i], "harness.cell");
        Scoped call(*lr.logs[i], "harness.run_fct");
        return harness::run_fct(c);
      },
      p.jobs);
  check_testbed(cells, res, lr.checks);
  lr.traced_wall_s = seconds_since(t0);
  require_identical(lr.checks.outputs, untraced, "testbed_fct", lr.checks);

  auto& m = lr.metrics;
  harness_metrics(lr, 0, cells.size(), lr.traced_wall_s, p.jobs, m);
  // Loss-only cells (indices 0, 3, 6) carry no LinkGuardian: their cost per
  // trial is the transport over the testbed path.
  const char* names[] = {"transport.ns_per_trial.dctcp_24k",
                         "transport.ns_per_trial.dctcp_2m",
                         "transport.ns_per_trial.rdma_24k"};
  double allocs = 0, loss_only_trials = 0, trials = 0, retx = 0, rto = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    const std::size_t i = 3 * k;
    const double n = static_cast<double>(res[i].fct_us.count());
    m[names[k]] = ratio(static_cast<double>(lr.logs[i]->total_ns("harness.run_fct")), n);
    allocs += static_cast<double>(lr.logs[i]->total_allocs("harness.run_fct"));
    loss_only_trials += n;
  }
  for (const auto& r : res) {
    trials += static_cast<double>(r.fct_us.count());
    retx += static_cast<double>(r.trials_with_e2e_retx);
    rto += static_cast<double>(r.trials_with_rto);
  }
  m["transport.allocs_per_trial"] = ratio(allocs, loss_only_trials);
  m["transport.e2e_retx_frac"] = ratio(retx, trials);
  m["transport.rto_frac"] = ratio(rto, trials);

  // Re-drive the three LG cells for the kernel's per-trial event count.
  double events = 0, redriven_trials = 0;
  for (std::size_t i : {std::size_t{1}, std::size_t{4}, std::size_t{7}}) {
    auto& log = *lr.logs.emplace_back(std::make_unique<SpanLog>(
        static_cast<std::int32_t>(lr.logs.size()), "re-driven " + testbed_label(cells[i])));
    Redriven rd;
    {
      Scoped root(log, "bench.redrive_fct");
      rd = redrive_fct(cells[i], log);
    }
    ++lr.checks.attempted;
    std::sort(rd.fct_us.begin(), rd.fct_us.end());
    if (rd.fct_us != res[i].fct_us.sorted_samples()) {
      ++lr.checks.failed;
      lr.checks.failures.push_back(testbed_label(cells[i]) +
                                   ": re-driven FCTs differ from run_fct");
    }
    events += static_cast<double>(rd.events);
    redriven_trials += static_cast<double>(rd.fct_us.size());
  }
  m["sim.events_per_trial"] = ratio(events, redriven_trials);
  return lr;
}

// ---------------------------------------------------------------- fabric --

// Constants of the traffic engine's cell that its public header does not
// export; the identity checks below catch any drift.
constexpr SimTime kExtraHopLatency = nsec(700);
constexpr std::uint64_t kReplaySeedTag = 0x5eedf10c00000000ULL;

struct Scenario {
  fabric::FabricTopology topo;
  std::vector<traffic::HotLink> hot;
  std::vector<std::int32_t> hot_index;
  std::int64_t disabled = 0;
};

/// The engine's corruption scenario, rebuilt from fabric and corropt calls.
std::unique_ptr<Scenario> build_scenario(const traffic::EngineConfig& cfg) {
  auto sc = std::make_unique<Scenario>(Scenario{fabric::FabricTopology(cfg.topo), {}, {}, 0});
  Rng rng(cfg.scenario_seed);
  const std::int64_t n_links = sc->topo.n_links();
  std::vector<std::uint8_t> picked(static_cast<std::size_t>(n_links), 0);
  std::vector<std::int64_t> ids;
  while (static_cast<std::int64_t>(ids.size()) <
         std::min<std::int64_t>(cfg.corrupting_links, n_links)) {
    const auto id = static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(n_links)));
    if (picked[static_cast<std::size_t>(id)]) continue;
    picked[static_cast<std::size_t>(id)] = 1;
    ids.push_back(id);
  }
  using fabric::LinkTransition;
  for (const std::int64_t id : ids) {
    const double loss = cfg.forced_loss_rate > 0.0 ? cfg.forced_loss_rate
                                                   : corropt::sample_loss_rate(rng);
    sc->topo.apply({LinkTransition::Kind::kCorrupt, id, loss, 1.0});
    if (sc->topo.can_disable(id, cfg.capacity_constraint)) {
      sc->topo.apply({LinkTransition::Kind::kDisable, id, 0.0, 1.0});
      ++sc->disabled;
      continue;
    }
    traffic::HotLink h;
    h.id = id;
    h.loss_rate = loss;
    h.residual = loss;
    if (cfg.scheme == traffic::Scheme::kCorrOptLg) {
      sc->topo.apply({LinkTransition::Kind::kEnableLg, id, 0.0,
                      corropt::lg_effective_speed(loss)});
      h.residual = std::min(loss, std::pow(loss, lg::retx_copies(loss, cfg.lg_target_loss) + 1));
      h.lg = true;
    }
    sc->hot.push_back(h);
  }
  std::sort(sc->hot.begin(), sc->hot.end(),
            [](const traffic::HotLink& a, const traffic::HotLink& b) { return a.id < b.id; });
  sc->hot_index.assign(static_cast<std::size_t>(n_links), -1);
  for (std::size_t i = 0; i < sc->hot.size(); ++i)
    sc->hot_index[static_cast<std::size_t>(sc->hot[i].id)] = static_cast<std::int32_t>(i);
  return sc;
}

struct CellOut {
  std::int64_t generated = 0, stranded = 0, victims = 0, packet = 0, fluid = 0,
               fallback = 0;
  std::vector<double> victim_us, bg_us;
};

/// One (seed, slice) cell of the hybrid engine, re-driven call by call:
/// arrival and flow draws (workload), ECMP resolution and fluid FCT
/// (traffic), then the victim groups' packet-level replay (harness).
CellOut redrive_cell(const traffic::EngineConfig& cfg, const Scenario& sc,
                     std::int32_t slice, SpanLog& log) {
  CellOut out;
  const std::uint64_t seed = cfg.seeds.front();
  const traffic::PathResolver resolver(sc.topo, cfg.hosts_per_tor);
  const std::int64_t n_hosts = resolver.n_hosts();
  const auto dist = workload::FlowSizeDistribution::make(cfg.workload);
  traffic::FluidConfig fl = cfg.fluid;
  fl.load = cfg.arrivals.load_fraction;
  if (cfg.transport == Transport::kRdmaWrite) fl.host_delay = usec(6);
  const traffic::FluidModel fluid(fl, cfg.link_rate);
  const double slice_dur = cfg.duration_sec / cfg.slices;
  const double t0 = slice * slice_dur, t1 = (slice + 1) * slice_dur;

  struct Pending {
    std::int64_t bytes;
    std::uint64_t aux;
  };
  std::map<std::pair<std::int32_t, std::int32_t>, std::vector<Pending>> groups;
  std::int64_t budget = cfg.max_packet_flows_per_cell;
  for (std::int64_t host = 0; host < n_hosts; ++host) {
    Rng hr = workload::stream_rng(seed, static_cast<std::uint64_t>(slice),
                                  static_cast<std::uint64_t>(host));
    workload::ArrivalProcess arrivals(cfg.arrivals, dist.mean_bytes(), hr.split());
    double t = t0 + log.call("workload.arrival", [&] { return arrivals.next_gap_sec(); });
    while (t < t1) {
      ++out.generated;
      std::int64_t bytes = 0, dst = 0;
      std::uint64_t hash = 0, aux = 0;
      log.call("workload.draw", [&] {
        bytes = dist.sample(hr);
        dst = static_cast<std::int64_t>(hr.uniform_int(static_cast<std::uint64_t>(n_hosts - 1)));
        if (dst >= host) ++dst;
        hash = hr.next_u64();
        aux = hr.next_u64();
      });
      const traffic::PathInfo path =
          log.call("traffic.path.resolve", [&] { return resolver.resolve(host, dst, hash); });
      if (!path.ok) {
        ++out.stranded;
      } else {
        std::int32_t hot = -1;
        for (std::int32_t i = 0; i < path.n_links && hot < 0; ++i)
          hot = sc.hot_index[static_cast<std::size_t>(path.links[i])];
        if (hot >= 0) ++out.victims;
        if (hot >= 0 && budget > 0) {
          --budget;
          groups[{hot, path.n_links}].push_back({bytes, aux});
        } else {
          if (hot >= 0) ++out.fallback;
          Rng fr(aux);
          const double loss = hot >= 0 ? sc.hot[static_cast<std::size_t>(hot)].residual : 0.0;
          const double ns = log.call("traffic.fluid.fct_ns", [&] {
            return fluid.fct_ns(bytes, path.n_links, loss, fr);
          });
          (hot >= 0 ? out.victim_us : out.bg_us).push_back(ns / 1000.0);
          ++out.fluid;
        }
      }
      t += log.call("workload.arrival", [&] { return arrivals.next_gap_sec(); });
    }
  }

  Scoped replay(log, "traffic.victim_replay");
  for (const auto& [key, flows] : groups) {
    const traffic::HotLink& h = sc.hot[static_cast<std::size_t>(key.first)];
    harness::FctConfig fc;
    fc.transport = cfg.transport;
    fc.rate = cfg.link_rate;
    fc.path.lg.target_loss_rate = cfg.lg_target_loss;
    fc.path.link.prop_delay += kExtraHopLatency * std::max<std::int32_t>(0, key.second - 1);
    fc.protection = h.lg ? Protection::kLg : Protection::kLossOnly;
    fc.loss_rate = h.loss_rate;
    for (const Pending& f : flows) fc.trial_bytes.push_back(f.bytes);
    fc.seed = workload::mix_stream(
        seed, kReplaySeedTag | static_cast<std::uint64_t>(slice),
        (static_cast<std::uint64_t>(key.first + 1) << 8) |
            static_cast<std::uint64_t>(key.second));
    Scoped s(log, "harness.run_fct");
    const auto r = harness::run_fct(fc);
    const auto& v = r.fct_us.sorted_samples();
    out.victim_us.insert(out.victim_us.end(), v.begin(), v.end());
    out.packet += static_cast<std::int64_t>(flows.size());
  }
  return out;
}

LayerResult trace_fabric(const Inputs& in, const std::string& untraced) {
  LayerResult lr;
  const Params& p = in.params;
  const auto& arms = in.arms;
  traffic::TrafficResult res[2];
  obs::TraceCollector cols[2];  // per-cell traffic.* counters of each arm
  for (int a = 0; a < 2; ++a) {
    auto& log = *lr.logs.emplace_back(
        std::make_unique<SpanLog>(a, traffic::scheme_name(arms[a].scheme)));
    obs::TraceCollector& col = cols[a];
    col.install();
    const std::int64_t t0 = now_ns();
    {
      Scoped root(log, "bench.arm");
      Scoped s(log, "traffic.run_traffic");
      res[a] = traffic::run_traffic(arms[a], p.jobs);
    }
    lr.traced_wall_s += seconds_since(t0);
    col.uninstall();
  }
  const std::int64_t c0 = now_ns();
  check_fabric(res[0], res[1], *in.fabric, lr.checks);
  lr.traced_wall_s += seconds_since(c0);
  require_identical(lr.checks.outputs, untraced, "fabric_fct", lr.checks);

  auto& m = lr.metrics;
  const traffic::TrafficResult& lg = res[1];
  m["traffic.packet_frac"] = ratio(static_cast<double>(res[0].packet_flows + lg.packet_flows),
                                   static_cast<double>(res[0].completed + lg.completed));
  m["traffic.stranded"] = static_cast<double>(res[0].stranded + lg.stranded);
  m["traffic.victim_fallback"] =
      static_cast<double>(res[0].victim_fluid_fallback + lg.victim_fluid_fallback);

  // fabric: building the paper-scale topology, median of three.
  std::vector<double> build;
  auto& blog = *lr.logs.emplace_back(std::make_unique<SpanLog>(2, "fabric build"));
  {
    Scoped root(blog, "bench.fabric_build");
    for (int k = 0; k < 3; ++k) {
      const std::int64_t t0 = now_ns();
      Scoped s(blog, "fabric.FabricTopology");
      const fabric::FabricTopology topo(arms[1].topo);
      build.push_back(seconds_since(t0));
    }
  }
  m["fabric.build_s"] = median(build);

  // Re-drive every cell of the CorrOpt+LG arm with a span per layer call.
  const auto sc = build_scenario(arms[1]);
  ++lr.checks.attempted;
  bool same_scenario = sc->disabled == lg.disabled_links && sc->hot.size() == lg.hot_links.size();
  for (std::size_t i = 0; same_scenario && i < sc->hot.size(); ++i)
    same_scenario = sc->hot[i].id == lg.hot_links[i].id &&
                    sc->hot[i].residual == lg.hot_links[i].residual;
  if (!same_scenario) {
    ++lr.checks.failed;
    lr.checks.failures.push_back("re-built scenario differs from the engine's");
  }
  std::vector<std::int32_t> slices;
  const std::size_t first = lr.logs.size();
  for (std::int32_t s = 0; s < arms[1].slices; ++s) {
    slices.push_back(s);
    lr.logs.push_back(std::make_unique<SpanLog>(
        static_cast<std::int32_t>(first) + s, "re-driven CorrOpt+LG slice " + std::to_string(s)));
  }
  const std::int64_t t0 = now_ns();
  const auto cells = harness::parallel_map(
      slices,
      [&](std::int32_t s, std::size_t i) {
        SpanLog& log = *lr.logs[first + i];
        Scoped root(log, "harness.cell");
        return redrive_cell(arms[1], *sc, s, log);
      },
      p.jobs);
  const double wall = seconds_since(t0);
  harness_metrics(lr, first, cells.size(), wall, p.jobs, m);

  // Each re-driven cell must reproduce the counters the engine pushed into
  // that cell's sink, and together their FCT samples must equal the arm's.
  std::vector<double> victims, bg;
  double gen = 0, draw_ns = 0, resolve_ns = 0, resolves = 0, fluid_ns = 0, fluids = 0,
         loop_allocs = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellOut& c = cells[i];
    const SpanLog& log = *lr.logs[first + i];
    const obs::MetricsRegistry& reg = cols[1].sink(i).metrics();
    ++lr.checks.attempted;
    if (counter(reg, "traffic.flows_generated") != static_cast<double>(c.generated) ||
        counter(reg, "traffic.flows_stranded") != static_cast<double>(c.stranded) ||
        counter(reg, "traffic.flows_victim") != static_cast<double>(c.victims) ||
        counter(reg, "traffic.flows_packet") != static_cast<double>(c.packet) ||
        counter(reg, "traffic.flows_fluid") != static_cast<double>(c.fluid) ||
        counter(reg, "traffic.victim_fluid_fallback") != static_cast<double>(c.fallback)) {
      ++lr.checks.failed;
      lr.checks.failures.push_back(log.label() + ": counters differ from the engine's cell");
    }
    victims.insert(victims.end(), c.victim_us.begin(), c.victim_us.end());
    bg.insert(bg.end(), c.bg_us.begin(), c.bg_us.end());
    gen += static_cast<double>(c.generated);
    draw_ns += static_cast<double>(log.total_ns("workload.draw") + log.total_ns("workload.arrival"));
    resolve_ns += static_cast<double>(log.total_ns("traffic.path.resolve"));
    resolves += static_cast<double>(log.total_calls("traffic.path.resolve"));
    fluid_ns += static_cast<double>(log.total_ns("traffic.fluid.fct_ns"));
    fluids += static_cast<double>(log.total_calls("traffic.fluid.fct_ns"));
    loop_allocs += static_cast<double>(log.spans()[0].allocs -
                                       log.total_allocs("traffic.victim_replay"));
  }
  std::sort(victims.begin(), victims.end());
  std::sort(bg.begin(), bg.end());
  ++lr.checks.attempted;
  if (victims != lg.fct_victim_us.sorted_samples() || bg != lg.fct_bg_us.sorted_samples()) {
    ++lr.checks.failed;
    lr.checks.failures.push_back("re-driven FCT samples differ from run_traffic's");
  }
  m["workload.ns_per_flow"] = ratio(draw_ns, gen);
  m["traffic.path.ns_per_resolve"] = ratio(resolve_ns, resolves);
  m["traffic.fluid.ns_per_flow"] = ratio(fluid_ns, fluids);
  m["traffic.victim_replay_s"] = 1e-9 * static_cast<double>(lr.logs[first]->total_ns("traffic.victim_replay"));
  m["traffic.allocs_per_flow"] = ratio(loop_allocs, gen);
  return lr;
}

// ---------------------------------------------------------------- deploy --

/// corropt::run_deployment's event loop rebuilt from the public
/// CorruptionStream and FabricTopology calls, one span per call. Its
/// result must equal run_deployment's bit for bit.
corropt::DeploymentResult redrive_deployment(const corropt::DeploymentConfig& cfg,
                                             SpanLog& log, std::int64_t& optimizer_checks) {
  using fabric::LinkTransition;
  corropt::DeploymentResult res;
  res.cfg = cfg;
  std::unique_ptr<fabric::FabricTopology> topo;
  {
    Scoped s(log, "fabric.FabricTopology");
    topo = std::make_unique<fabric::FabricTopology>(cfg.topo);
  }
  Rng rng(cfg.seed);
  Rng repair_rng = rng.split();
  corropt::CorruptionStream stream(topo->n_links(), cfg.duration_hours, cfg.mttf_hours, rng);
  struct Repair {
    double t;
    std::int64_t link;
    bool operator>(const Repair& o) const { return t > o.t; }
  };
  std::priority_queue<Repair, std::vector<Repair>, std::greater<>> repairs;
  // Corrupting links waiting for the optimizer, by (loss desc, link asc).
  std::vector<std::pair<double, std::int64_t>> waiting;
  auto by_loss = [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  };
  auto apply = [&](const LinkTransition& tr) {
    log.call("fabric.apply", [&] { topo->apply(tr); });
  };
  auto schedule_repair = [&](std::int64_t id, double now) {
    repairs.push({now + (repair_rng.bernoulli(cfg.repair_fast_fraction) ? cfg.repair_fast_hours
                                                                        : cfg.repair_slow_hours),
                  id});
  };

  double next_sample = cfg.sample_period_hours;
  double now = 0.0;
  while (now < cfg.duration_hours) {
    const double t_trace = !stream.done() ? stream.next_time_hours() : 1e18;
    const double t_repair = !repairs.empty() ? repairs.top().t : 1e18;
    const double t_next = std::min({t_trace, t_repair, next_sample});
    if (t_next >= cfg.duration_hours) break;
    now = t_next;
    if (t_next == t_trace) {
      ++res.corruption_events;
      const corropt::CorruptionEvent ev = log.call("corropt.stream.pop", [&] { return stream.pop(); });
      const fabric::Link& l = topo->link(ev.link);
      if (!l.up || l.corrupting) continue;
      apply({LinkTransition::Kind::kCorrupt, ev.link, ev.loss_rate});
      if (cfg.use_linkguardian)
        apply({LinkTransition::Kind::kEnableLg, ev.link, 0.0,
               corropt::lg_effective_speed(ev.loss_rate)});
      if (log.call("fabric.can_disable",
                   [&] { return topo->can_disable(ev.link, cfg.capacity_constraint); })) {
        ++res.disabled_immediately;
        apply({LinkTransition::Kind::kDisable, ev.link});
        schedule_repair(ev.link, ev.time_hours);
      } else {
        ++res.kept_active;
        const std::pair<double, std::int64_t> e{ev.loss_rate, ev.link};
        waiting.insert(std::upper_bound(waiting.begin(), waiting.end(), e, by_loss), e);
      }
    } else if (t_next == t_repair) {
      const Repair r = repairs.top();
      repairs.pop();
      apply({LinkTransition::Kind::kRepair, r.link});
      // The optimizer pass is one span: it makes ~300 capacity checks per
      // repair, too many to time one by one without distorting them.
      log.call("corropt.optimizer", [&] {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < waiting.size(); ++i) {
          ++optimizer_checks;
          if (topo->can_disable(waiting[i].second, cfg.capacity_constraint)) {
            ++res.disabled_by_optimizer;
            topo->apply({LinkTransition::Kind::kDisable, waiting[i].second});
            schedule_repair(waiting[i].second, now);
          } else {
            waiting[kept++] = waiting[i];
          }
        }
        waiting.resize(kept);
      });
    } else {
      corropt::DeploymentSample s;
      s.time_hours = now;
      log.call("fabric.query", [&] {
        s.total_penalty = topo->total_penalty(cfg.lg_target_loss);
        s.least_paths_frac = topo->least_paths_per_tor_frac();
        s.least_capacity_frac = topo->least_capacity_per_pod_frac();
        s.corrupting_links = static_cast<std::int32_t>(topo->corrupting_up_links());
        s.disabled_links = static_cast<std::int32_t>(topo->disabled_links());
        s.lg_links = static_cast<std::int32_t>(topo->lg_up_links());
        res.max_lg_per_switch = std::max(res.max_lg_per_switch, topo->max_lg_links_per_switch());
      });
      res.samples.push_back(s);
      next_sample += cfg.sample_period_hours;
    }
  }
  return res;
}

LayerResult trace_deploy(const Inputs& in, const std::string& untraced) {
  LayerResult lr;
  const corropt::DeploymentConfig& cfg = in.deploy;
  auto& log = *lr.logs.emplace_back(std::make_unique<SpanLog>(0, "deployment"));
  const std::int64_t t0 = now_ns();
  corropt::DeploymentResult r;
  std::int64_t optimizer_checks = 0;
  {
    Scoped root(log, "harness.cell");
    r = redrive_deployment(cfg, log, optimizer_checks);
  }
  check_deploy(r, lr.checks);
  lr.traced_wall_s = seconds_since(t0);
  require_identical(lr.checks.outputs, untraced, "deploy_year", lr.checks);

  auto& m = lr.metrics;
  harness_metrics(lr, 0, 1, lr.traced_wall_s, 1, m);
  auto per_call = [&](const char* name) {
    return ratio(static_cast<double>(log.total_ns(name)),
                 static_cast<double>(log.total_calls(name)));
  };
  m["fabric.apply.ns_per_op"] = per_call("fabric.apply");
  // Fast-checker calls are timed one by one; the optimizer's checks by pass
  // (which adds its loop, a few ns per check).
  m["fabric.can_disable.ns_per_op"] =
      ratio(static_cast<double>(log.total_ns("fabric.can_disable") +
                                log.total_ns("corropt.optimizer")),
            static_cast<double>(log.total_calls("fabric.can_disable") + optimizer_checks));
  m["fabric.query.ns_per_sample"] = per_call("fabric.query");
  m["corropt.stream.ns_per_event"] = per_call("corropt.stream.pop");
  m["corropt.events"] = static_cast<double>(r.corruption_events);
  m["corropt.kept_active"] = static_cast<double>(r.kept_active);
  m["corropt.disabled_by_optimizer"] = static_cast<double>(r.disabled_by_optimizer);
  return lr;
}

}  // namespace

LayerResult trace_layers(const Workload& w, const Inputs& in,
                         const std::string& untraced_outputs) {
  const std::string name = w.name;
  if (name == "stress_grid") return trace_stress(in, untraced_outputs);
  if (name == "testbed_fct") return trace_testbed(in, untraced_outputs);
  if (name == "fabric_fct") return trace_fabric(in, untraced_outputs);
  return trace_deploy(in, untraced_outputs);
}

}  // namespace lgbench
