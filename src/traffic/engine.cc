#include "traffic/engine.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "corropt/corropt.h"
#include "harness/parallel.h"
#include "obs/trace.h"
#include "traffic/path.h"

namespace lgsim::traffic {

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kCorrOptOnly: return "CorrOpt";
    case Scheme::kCorrOptLg: return "CorrOpt+LG";
  }
  return "?";
}

const char* fidelity_name(Fidelity f) {
  switch (f) {
    case Fidelity::kHybrid: return "hybrid";
    case Fidelity::kAllPacket: return "all-packet";
    case Fidelity::kFluidOnly: return "fluid-only";
  }
  return "?";
}

namespace {

/// The corruption scenario: one topology snapshot shared (read-only) by all
/// cells. Built single-threaded; cells only issue const path queries.
struct Scenario {
  fabric::FabricTopology topo;
  std::vector<HotLink> hot;            // ascending link id
  std::vector<std::int32_t> hot_index; // link id -> index into hot, or -1
  std::int64_t disabled = 0;

  explicit Scenario(const fabric::TopologyConfig& tc) : topo(tc) {}
};

Scenario build_scenario(const EngineConfig& cfg) {
  Scenario sc(cfg.topo);
  Rng rng(cfg.scenario_seed);

  // Draw distinct corrupting links. Rejection sampling on the uniform link id
  // is deterministic (fixed RNG stream, fixed iteration order).
  const std::int64_t n_links = sc.topo.n_links();
  const std::int64_t want =
      std::min<std::int64_t>(cfg.corrupting_links, n_links);
  std::vector<std::uint8_t> picked(static_cast<std::size_t>(n_links), 0);
  std::vector<std::int64_t> ids;
  ids.reserve(static_cast<std::size_t>(want));
  while (static_cast<std::int64_t>(ids.size()) < want) {
    const auto id = static_cast<std::int64_t>(
        rng.uniform_int(static_cast<std::uint64_t>(n_links)));
    if (picked[static_cast<std::size_t>(id)]) continue;
    picked[static_cast<std::size_t>(id)] = 1;
    ids.push_back(id);
  }

  // CorrOpt decision per link, in draw order (mirrors corruption onsets
  // arriving one by one; earlier disables constrain later fast checks).
  for (const std::int64_t id : ids) {
    const double loss = cfg.forced_loss_rate > 0.0 ? cfg.forced_loss_rate
                                                   : corropt::sample_loss_rate(rng);
    sc.topo.apply({fabric::LinkTransition::Kind::kCorrupt, id, loss, 1.0});
    if (sc.topo.can_disable(id, cfg.capacity_constraint)) {
      sc.topo.apply({fabric::LinkTransition::Kind::kDisable, id, 0.0, 1.0});
      ++sc.disabled;
      continue;
    }
    HotLink h;
    h.id = id;
    h.loss_rate = loss;
    h.residual = loss;
    if (cfg.scheme == Scheme::kCorrOptLg) {
      sc.topo.apply({fabric::LinkTransition::Kind::kEnableLg, id, 0.0,
                     corropt::lg_effective_speed(loss)});
      const int n = lg::retx_copies(loss, cfg.lg_target_loss);
      h.residual = std::min(loss, std::pow(loss, n + 1));
      h.lg = true;
    }
    sc.hot.push_back(h);
  }
  std::sort(sc.hot.begin(), sc.hot.end(),
            [](const HotLink& a, const HotLink& b) { return a.id < b.id; });
  sc.hot_index.assign(static_cast<std::size_t>(n_links), -1);
  for (std::size_t i = 0; i < sc.hot.size(); ++i) {
    sc.hot_index[static_cast<std::size_t>(sc.hot[i].id)] =
        static_cast<std::int32_t>(i);
  }
  return sc;
}

struct CellJob {
  const EngineConfig* cfg = nullptr;
  const Scenario* sc = nullptr;
  std::uint64_t seed = 0;
  std::int32_t slice = 0;
};

struct CellOut {
  std::int64_t generated = 0;
  std::int64_t stranded = 0;
  std::int64_t victims = 0;
  std::int64_t packet_flows = 0;
  std::int64_t fluid_flows = 0;
  std::int64_t victim_fluid_fallback = 0;
  lgsim::PercentileTracker victim_us;
  lgsim::PercentileTracker bg_us;
};

/// Extra one-way latency folded into the victim testbed path per fabric link
/// beyond the first (switch pipeline + fiber, matching FluidConfig's
/// per-hop term).
constexpr SimTime kExtraHopLatency = nsec(700);

CellOut run_cell(const CellJob& job) {
  const EngineConfig& cfg = *job.cfg;
  const Scenario& sc = *job.sc;
  CellOut out;

  const PathResolver resolver(sc.topo, cfg.hosts_per_tor);
  const std::int64_t n_hosts = resolver.n_hosts();
  const auto dist = workload::FlowSizeDistribution::make(cfg.workload);
  const double mean_bytes = dist.mean_bytes();

  FluidConfig fl = cfg.fluid;
  fl.load = cfg.arrivals.load_fraction;
  if (cfg.transport == harness::Transport::kRdmaWrite) fl.host_delay = usec(6);
  const FluidModel fluid(fl, cfg.link_rate);

  const double slice_dur = cfg.duration_sec / cfg.slices;
  const double t1 = (job.slice + 1) * slice_dur;
  const double t0 = job.slice * slice_dur;

  struct PendingFlow {
    std::int64_t bytes;
    std::uint64_t aux;
  };
  // Deterministically ordered packet-flow groups: victims keyed by
  // (hot link, hop count), all-packet background by hop count.
  std::map<std::pair<std::int32_t, std::int32_t>, std::vector<PendingFlow>>
      victim_groups;
  std::map<std::int32_t, std::vector<PendingFlow>> bg_groups;
  std::int64_t victim_packet_budget = cfg.max_packet_flows_per_cell;
  std::int64_t bg_packet_budget = cfg.max_packet_flows_per_cell;

  for (std::int64_t host = 0; host < n_hosts; ++host) {
    Rng hr = workload::stream_rng(job.seed, static_cast<std::uint64_t>(job.slice),
                                  static_cast<std::uint64_t>(host));
    workload::ArrivalProcess arrivals(cfg.arrivals, mean_bytes, hr.split());
    double t = t0 + arrivals.next_gap_sec();
    while (t < t1) {
      ++out.generated;
      const std::int64_t bytes = dist.sample(hr);
      std::int64_t dst = static_cast<std::int64_t>(
          hr.uniform_int(static_cast<std::uint64_t>(n_hosts - 1)));
      if (dst >= host) ++dst;
      const std::uint64_t hash = hr.next_u64();
      const std::uint64_t aux = hr.next_u64();

      const PathInfo path = resolver.resolve(host, dst, hash);
      if (!path.ok) {
        ++out.stranded;
        t += arrivals.next_gap_sec();
        continue;
      }

      std::int32_t hot_idx = -1;
      for (std::int32_t i = 0; i < path.n_links; ++i) {
        const std::int32_t h =
            sc.hot_index[static_cast<std::size_t>(path.links[i])];
        if (h >= 0) {
          hot_idx = h;
          break;
        }
      }
      if (hot_idx >= 0) ++out.victims;

      bool packetize = false;
      if (hot_idx >= 0) {
        // Victim: packet-level unless fluid-only, within the cell budget.
        if (cfg.fidelity != Fidelity::kFluidOnly && victim_packet_budget > 0) {
          packetize = true;
          --victim_packet_budget;
        } else if (cfg.fidelity != Fidelity::kFluidOnly) {
          ++out.victim_fluid_fallback;
        }
      } else if (cfg.fidelity == Fidelity::kAllPacket && bg_packet_budget > 0) {
        packetize = true;
        --bg_packet_budget;
      }

      if (packetize) {
        if (hot_idx >= 0) {
          victim_groups[{hot_idx, path.n_links}].push_back({bytes, aux});
        } else {
          bg_groups[path.n_links].push_back({bytes, aux});
        }
      } else {
        Rng fr(aux);
        const double loss = hot_idx >= 0 ? sc.hot[hot_idx].residual : 0.0;
        const double fct_ns = fluid.fct_ns(bytes, path.n_links, loss, fr);
        (hot_idx >= 0 ? out.victim_us : out.bg_us).add(fct_ns / 1000.0);
        ++out.fluid_flows;
      }
      t += arrivals.next_gap_sec();
    }
  }

  // Packet-level runs. One harness::run_fct per group replays the group's
  // flow sizes back-to-back over the testbed path standing in for the
  // scenario link; hops beyond the first contribute fixed latency.
  auto run_group = [&](const std::vector<PendingFlow>& flows,
                       std::int32_t hot_idx, std::int32_t n_links,
                       lgsim::PercentileTracker& into) {
    harness::FctConfig fc;
    fc.transport = cfg.transport;
    fc.rate = cfg.link_rate;
    fc.path.lg.target_loss_rate = cfg.lg_target_loss;
    fc.path.link.prop_delay +=
        kExtraHopLatency * std::max<std::int32_t>(0, n_links - 1);
    if (hot_idx >= 0) {
      const HotLink& h = sc.hot[hot_idx];
      fc.protection =
          h.lg ? harness::Protection::kLg : harness::Protection::kLossOnly;
      fc.loss_rate = h.loss_rate;
    } else {
      fc.protection = harness::Protection::kNoLoss;
      fc.loss_rate = 0.0;
    }
    fc.trial_bytes.reserve(flows.size());
    for (const PendingFlow& f : flows) fc.trial_bytes.push_back(f.bytes);
    // Domain-separated from the generation streams via the tag in `cell`.
    fc.seed = workload::mix_stream(
        job.seed,
        0x5eedf10c00000000ULL | static_cast<std::uint64_t>(job.slice),
        (static_cast<std::uint64_t>(hot_idx + 1) << 8) |
            static_cast<std::uint64_t>(n_links));
    const harness::FctResult r = harness::run_fct(fc);
    into.merge(r.fct_us);
    out.packet_flows += static_cast<std::int64_t>(flows.size());
  };

  for (const auto& [key, flows] : victim_groups) {
    run_group(flows, key.first, key.second, out.victim_us);
  }
  for (const auto& [n_links, flows] : bg_groups) {
    run_group(flows, -1, n_links, out.bg_us);
  }

  if (obs::TraceSink* sink = obs::current_sink()) {
    obs::MetricsRegistry& m = sink->metrics();
    m.counter("traffic.flows_generated") += out.generated;
    m.counter("traffic.flows_completed") +=
        out.generated - out.stranded;
    m.counter("traffic.flows_stranded") += out.stranded;
    m.counter("traffic.flows_victim") += out.victims;
    m.counter("traffic.flows_packet") += out.packet_flows;
    m.counter("traffic.flows_fluid") += out.fluid_flows;
    m.counter("traffic.victim_fluid_fallback") += out.victim_fluid_fallback;
  }
  return out;
}

}  // namespace

double TrafficResult::p_all(double p) const {
  lgsim::PercentileTracker all;
  all.merge(fct_victim_us);
  all.merge(fct_bg_us);
  return all.percentile(p);
}

void TrafficResult::export_metrics(obs::MetricsRegistry& m) const {
  m.counter("traffic.flows_generated") += generated;
  m.counter("traffic.flows_completed") += completed;
  m.counter("traffic.flows_stranded") += stranded;
  m.counter("traffic.flows_victim") += victims;
  m.counter("traffic.flows_packet") += packet_flows;
  m.counter("traffic.flows_fluid") += fluid_flows;
  m.counter("traffic.victim_fluid_fallback") += victim_fluid_fallback;
  m.counter("traffic.hot_links") += static_cast<std::int64_t>(hot_links.size());
  m.counter("traffic.disabled_links") += disabled_links;
  for (double v : fct_victim_us.sorted_samples())
    m.distribution("traffic.fct_victim_us").add(v);
  for (double v : fct_bg_us.sorted_samples())
    m.distribution("traffic.fct_bg_us").add(v);
}

TrafficResult run_traffic(const EngineConfig& cfg, unsigned jobs) {
  const Scenario sc = build_scenario(cfg);
  harness::ParallelRunner<CellJob, CellOut> pool(
      run_cell, jobs == 0 ? harness::bench_jobs() : jobs);
  for (const std::uint64_t seed : cfg.seeds) {
    for (std::int32_t sl = 0; sl < cfg.slices; ++sl) {
      pool.add(seed, CellJob{&cfg, &sc, seed, sl});
    }
  }
  const std::vector<CellOut> cells = pool.run_in_grid_order();

  TrafficResult res;
  res.hot_links = sc.hot;
  res.disabled_links = sc.disabled;
  for (const CellOut& c : cells) {
    res.generated += c.generated;
    res.stranded += c.stranded;
    res.victims += c.victims;
    res.packet_flows += c.packet_flows;
    res.fluid_flows += c.fluid_flows;
    res.victim_fluid_fallback += c.victim_fluid_fallback;
    res.fct_victim_us.merge(c.victim_us);
    res.fct_bg_us.merge(c.bg_us);
  }
  res.completed = res.generated - res.stranded;
  res.sim_hours =
      cfg.duration_sec / 3600.0 * static_cast<double>(cfg.seeds.size());
  return res;
}

}  // namespace lgsim::traffic
