// The telemetry_off contract (ISSUE 6 satellite): probes compiled in but
// *disabled* must be invisible — an oracle-fed lifecycle cell constructs no
// prober, draws no extra RNG, schedules no extra events and emits no extra
// trace records, so the pre-telemetry goldens (fig08_golden_j{1,4}) hold
// byte-for-byte. And when probes ARE enabled, the probe path itself must be
// allocation-free in steady state (the same bar the event kernel's hot path
// meets, measured by the same interposed global allocator that bench_micro
// uses — tests/support/alloc_counter.h).
//
// Standalone binary (not lg_add_test): it replaces the global allocator.
#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <string>

#include "fault/lifecycle.h"
#include "net/loss_model.h"
#include "net/port.h"
#include "obs/trace.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "support/alloc_counter.h"
#include "telemetry/estimator.h"
#include "telemetry/probe.h"

namespace lgsim {
namespace {

// RNG neutrality, component level: the exact Bernoulli loss pattern a
// traffic stream sees must be unchanged by a LinkProber that exists but is
// never started. A single extra (or re-ordered) RNG draw anywhere in the
// disabled path would shift which frames are lost and fail the comparison.
std::string loss_pattern(bool construct_idle_prober) {
  Simulator sim;
  Rng rng(42);
  net::EgressPort port(sim, "wire", gbps(25), /*prop_delay=*/0);
  const int q = port.add_queue({});
  net::BernoulliLoss loss(0.05, rng.split());
  port.set_loss_model(&loss);
  std::string pattern;
  std::int64_t delivered = 0;
  port.set_deliver([&](net::Packet&&) { ++delivered; });

  std::unique_ptr<telemetry::LinkProber> prober;
  if (construct_idle_prober) {
    // Constructed, wired, never started: the telemetry-off configuration.
    prober = std::make_unique<telemetry::LinkProber>(
        sim, telemetry::ProberConfig{},
        [&](net::Packet&& p) { port.enqueue(q, std::move(p)); });
  }

  for (int i = 0; i < 2000; ++i) {
    sim.schedule_at(i * usec(1), [&port, q] {
      net::Packet p;
      p.frame_bytes = 1518;
      port.enqueue(q, std::move(p));
    });
  }
  std::uint64_t events = sim.run();
  pattern += std::to_string(delivered);
  pattern += ":";
  pattern += std::to_string(port.counters().corrupted_frames);
  pattern += ":";
  pattern += std::to_string(events);
  return pattern;
}

TEST(TelemetryOff, IdleProberIsEventAndRngNeutral) {
  EXPECT_EQ(loss_pattern(false), loss_pattern(true));
}

TEST(TelemetryOff, OracleLifecycleConstructsNoProbeState) {
  fault::LifecycleConfig cfg;  // default feed is kOracle
  cfg.scenario = "onset";
  const fault::LifecycleResult r = fault::run_lifecycle(cfg);
  EXPECT_EQ(r.probes_sent, 0);
  EXPECT_EQ(r.probes_rx, 0);
  EXPECT_EQ(r.probes_suppressed, 0);
  EXPECT_FALSE(r.estimate_known);
  EXPECT_GE(r.engaged_at, 0);  // the oracle loop still works as before
}

TEST(TelemetryOn, ProbePathIsAllocationFreeInSteadyState) {
  Simulator sim;
  telemetry::EstimatorConfig ec;
  ec.tau = msec(2);
  ec.period = usec(10);
  ec.window = 256;
  telemetry::SeqWindowEstimator est(ec);  // slots sized here, once
  telemetry::ProberConfig pc;
  pc.period = usec(10);
  telemetry::LinkProber prober(
      sim, pc, [&](net::Packet&& p) {
        est.on_probe(p.probe.seq, p.probe.sent_at, sim.now());
      });
  prober.start();

  // Warm up past every one-time growth in the event kernel, then demand
  // zero heap traffic for the rest of the run: emit + track + estimate.
  // The warm-up must exercise the same shapes as the measured region — a
  // one-shot event firing next to the periodic chain (grows the slot free
  // list once) and a second run() segment (grows the queue once) — so the
  // warm-up fires a throwaway estimate probe and runs two segments.
  telemetry::LossEstimate warm;
  sim.schedule_at(msec(5),
                  [&] { warm = est.estimate(sim.now() - est.config().period); });
  sim.run(msec(8));
  sim.run(msec(10));
  telemetry::LossEstimate mid;
  sim.schedule_at(msec(50), [&] {
    // One period behind now: the tick at exactly `now` has not fired yet
    // (this check was scheduled first), and must not read as a lost probe.
    mid = est.estimate(sim.now() - est.config().period);
  });
  const std::uint64_t before = heap_allocs();
  sim.run(msec(100));
  const std::uint64_t after = heap_allocs();
  EXPECT_EQ(after - before, 0u)
      << "probe path allocated in steady state";
  EXPECT_TRUE(warm.known);
  EXPECT_TRUE(mid.known);
  EXPECT_EQ(mid.rate, 0.0);
  EXPECT_EQ(prober.sent(), 10'000);
}

// The counter's own contract: every new overload is counted once, and every
// allocation goes back through its matching delete. libstdc++ forwards the
// nothrow news to the plain one, so in a plain build an unreplaced nothrow
// overload is still counted; under AddressSanitizer the runtime supplies any
// overload left unreplaced, and its block freed by a replaced delete fails
// here as an alloc-dealloc mismatch. The volatile store keeps the compiler
// from eliding an allocate/free pair.
TEST(AllocCounter, EveryNewOverloadIsCounted) {
  static constexpr std::align_val_t al{64};
  static constexpr std::size_t n = 8;
  struct Case {
    const char* name;
    void* (*alloc)();
    void (*release)(void*);
  };
  const Case cases[] = {
      {"new", [] { return ::operator new(n); },
       [](void* p) { ::operator delete(p); }},
      {"new[]", [] { return ::operator new[](n); },
       [](void* p) { ::operator delete[](p); }},
      {"new, sized delete", [] { return ::operator new(n); },
       [](void* p) { ::operator delete(p, n); }},
      {"new[], sized delete[]", [] { return ::operator new[](n); },
       [](void* p) { ::operator delete[](p, n); }},
      {"aligned new", [] { return ::operator new(n, al); },
       [](void* p) { ::operator delete(p, al); }},
      {"aligned new[]", [] { return ::operator new[](n, al); },
       [](void* p) { ::operator delete[](p, al); }},
      {"aligned new, sized delete", [] { return ::operator new(n, al); },
       [](void* p) { ::operator delete(p, n, al); }},
      {"aligned new[], sized delete[]", [] { return ::operator new[](n, al); },
       [](void* p) { ::operator delete[](p, n, al); }},
      {"nothrow new", [] { return ::operator new(n, std::nothrow); },
       [](void* p) { ::operator delete(p, std::nothrow); }},
      {"nothrow new[]", [] { return ::operator new[](n, std::nothrow); },
       [](void* p) { ::operator delete[](p, std::nothrow); }},
      {"aligned nothrow new", [] { return ::operator new(n, al, std::nothrow); },
       [](void* p) { ::operator delete(p, al, std::nothrow); }},
      {"aligned nothrow new[]",
       [] { return ::operator new[](n, al, std::nothrow); },
       [](void* p) { ::operator delete[](p, al, std::nothrow); }},
      // The pairing std::stable_sort's temporary buffer uses.
      {"nothrow new, plain delete",
       [] { return ::operator new(n, std::nothrow); },
       [](void* p) { ::operator delete(p); }},
  };
  for (const Case& c : cases) {
    const std::uint64_t before = heap_allocs();
    void* volatile p = c.alloc();
    c.release(p);
    EXPECT_EQ(heap_allocs() - before, 1u) << c.name;
  }
}

}  // namespace
}  // namespace lgsim
