// Behavioural pin of the LinkGuardian sender/receiver state machines.
//
// Each scenario drives one ProtectedLink and folds into a 64-bit FNV-1a
// digest: the forwarded (uid, time) sequence, every LgSender::Stats and
// LgReceiver::Stats field (tracker samples included), and periodic samples of
// the buffer/debug accessors. The expected digests were recorded with the
// ordered-container (std::map/std::set) implementation of the Tx buffer,
// reordering buffer, outstanding holes and skipped holes, so the seq-indexed
// rings that replaced them are held to the exact event order, RNG draws and
// accounting of the code they replace (stale loop-check, release and timeout
// events landing after enable()/disable() or a mode flip included).
//
// A mismatch prints the scenario's fresh digest; never update an expected
// value to make a protocol-state rewrite pass — update it only for an
// intended behaviour change, and say which in the commit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>

#include "lg/link.h"
#include "lg/seq_ring.h"
#include "net/loss_model.h"

namespace lgsim::lg {
namespace {

class Fnv {
 public:
  void add(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xFF;
      h_ *= 1099511628211ULL;
    }
  }
  void add_signed(std::int64_t x) { add(static_cast<std::uint64_t>(x)); }
  void add_double(double x) {
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof b);
    add(b);
  }
  void add_tracker(const PercentileTracker& t) {
    add_signed(t.count());
    for (double x : t.sorted_samples()) add_double(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// A Bernoulli process plus an outage: every frame whose serialization
/// starts inside [from, to) is lost as well.
class BernoulliWithOutage final : public net::LossModel {
 public:
  BernoulliWithOutage(double rate, Rng rng, SimTime from, SimTime to)
      : base_(rate, rng), from_(from), to_(to) {}
  bool lose(SimTime now, const net::Packet& p) override {
    const bool roll = base_.lose(now, p);  // always draw: stream position
    return roll || (now >= from_ && now < to_);
  }

 private:
  net::BernoulliLoss base_;
  SimTime from_, to_;
};

struct Scenario {
  Simulator sim;
  std::unique_ptr<ProtectedLink> link;
  Fnv fwd;      // forwarded (uid, time) sequence
  Fnv samples;  // periodic accessor samples
  std::int64_t delivered = 0;
  std::uint64_t next_uid = 1;
  std::int64_t max_tx_pkts = 0;
  std::int64_t max_rx_pkts = 0;

  explicit Scenario(const LgConfig& cfg) {
    LinkSpec spec;
    spec.rate = gbps(100);
    spec.normal_queue_bytes = 1'000'000'000;  // whole run enqueued up front
    link = std::make_unique<ProtectedLink>(sim, spec, cfg);
    link->set_forward_sink([this](net::Packet&& p) {
      fwd.add(p.uid);
      fwd.add_signed(sim.now());
      ++delivered;
    });
  }

  void inject(int n, std::int32_t frame_bytes) {
    for (int i = 0; i < n; ++i) {
      net::Packet p;
      p.kind = net::PktKind::kData;
      p.frame_bytes = frame_bytes;
      p.uid = next_uid++;
      link->send_forward(std::move(p));
    }
  }

  void sample_every(SimTime period, SimTime until) {
    for (SimTime t = period; t <= until; t += period) {
      sim.schedule_at(t, [this] {
        link->sample_buffers();
        const LgSender& s = link->sender();
        const LgReceiver& r = link->receiver();
        max_tx_pkts = std::max(max_tx_pkts, s.tx_buffer_pkts());
        max_rx_pkts = std::max(max_rx_pkts, r.reorder_buffer_pkts());
        samples.add_signed(s.tx_buffer_pkts());
        samples.add_signed(s.tx_buffer_bytes());
        samples.add_signed(s.next_virtual_seq());
        samples.add_signed(r.reorder_buffer_pkts());
        samples.add_signed(r.reorder_buffer_bytes());
        samples.add_signed(r.debug_ack_no());
        samples.add_signed(r.debug_latest_rx());
        samples.add_signed(r.debug_buffer_head());
        samples.add(r.debug_outstanding());
        samples.add(r.debug_skipped());
        samples.add(r.debug_release_pending() ? 1 : 0);
        samples.add(r.backpressured() ? 1 : 0);
      });
    }
  }

  std::uint64_t digest() {
    Fnv d;
    d.add(fwd.value());
    d.add(samples.value());
    d.add_signed(delivered);
    const LgSender::Stats& s = link->sender().stats();
    for (std::int64_t x :
         {s.protected_sent, s.retx_requests, s.retx_copies_sent,
          s.unknown_retx_requests, s.dropped_requests, s.acks_received,
          s.pauses_received, s.resumes_received, s.dummies_armed,
          s.recirc_loops, s.recirc_loop_bytes})
      d.add_signed(x);
    d.add_tracker(s.tx_buffer_bytes);
    const LgReceiver::Stats& r = link->receiver().stats();
    for (std::int64_t x :
         {r.protected_rx, r.retx_rx, r.dummy_rx, r.unprotected_rx,
          r.gaps_detected, r.reported_lost, r.notifs_sent, r.dup_dropped,
          r.late_retx, r.recovered, r.timeouts, r.expired, r.effectively_lost,
          r.forwarded, r.forwarded_bytes, r.reorder_buffered, r.reorder_drops,
          r.pauses_sent, r.resumes_sent, r.acks_armed, r.recirc_loops,
          r.recirc_loop_bytes})
      d.add_signed(x);
    d.add_tracker(r.retx_delay_us);
    d.add_tracker(r.rx_buffer_bytes);
    return d.value();
  }
};

/// The Appendix B.1 100G tuning every scenario starts from.
LgConfig tuned_100g() { return tuned_for_rate(LgConfig{}, gbps(100)); }

std::unique_ptr<net::LossModel> bernoulli(double rate, std::uint64_t seed) {
  return std::make_unique<net::BernoulliLoss>(rate, Rng(seed));
}

std::unique_ptr<net::LossModel> gilbert_elliott(double rate, double burst,
                                                std::uint64_t seed) {
  return std::make_unique<net::GilbertElliottLoss>(
      net::GilbertElliottLoss::for_rate(rate, burst), Rng(seed));
}

/// Exactly-once accounting: every injected frame was forwarded once or is
/// counted as lost to the endpoints (reorder drops are a subset).
void expect_conserved(const Scenario& r, std::int64_t injected) {
  EXPECT_EQ(r.delivered + r.link->receiver().stats().effectively_lost, injected);
}

std::uint64_t run_plain(bool ordered, bool ge, int frames) {
  LgConfig cfg = tuned_100g();
  cfg.preserve_order = ordered;
  cfg.actual_loss_rate = ge ? 1e-2 : 1e-3;
  Scenario r(cfg);
  r.link->set_loss_model(ge ? gilbert_elliott(1e-2, 4.0, 21) : bernoulli(1e-3, 21));
  r.link->enable_lg();
  r.inject(frames, 1518);
  r.sample_every(usec(10), msec(10));
  r.sim.run();
  expect_conserved(r, frames);
  return r.digest();
}

void check(const char* name, std::uint64_t want, std::uint64_t got) {
  EXPECT_EQ(got, want) << name << ": fresh digest 0x" << std::hex << got;
  std::printf("[digest] %-28s 0x%016llx\n", name,
              static_cast<unsigned long long>(got));
}

TEST(LgOracle, OrderedBernoulli) {
  check("ordered_bernoulli", 0xa8a427df44b122caULL, run_plain(true, false, 60'000));
}

TEST(LgOracle, NbBernoulli) {
  check("nb_bernoulli", 0xa565f9942b9f864aULL, run_plain(false, false, 60'000));
}

TEST(LgOracle, OrderedGilbertElliott) {
  check("ordered_ge", 0x0b7f755913b20829ULL, run_plain(true, true, 40'000));
}

TEST(LgOracle, NbGilbertElliott) {
  check("nb_ge", 0xb955ae8d3c6170baULL, run_plain(false, true, 40'000));
}

TEST(LgOracle, ReverseLossWithControlRedundancy) {
  LgConfig cfg = tuned_100g();
  cfg.actual_loss_rate = 1e-2;
  cfg.control_copies = 3;
  cfg.loss_notif_copies = 2;
  Scenario r(cfg);
  r.link->set_loss_model(bernoulli(1e-2, 31));
  r.link->set_reverse_loss_model(bernoulli(1e-2, 37));
  r.link->enable_lg();
  r.inject(60'000, 1518);
  r.sample_every(usec(10), msec(10));
  r.sim.run();
  expect_conserved(r, 60'000);
  check("reverse_loss_copies3", 0x119d3e5004caa493ULL, r.digest());
}

TEST(LgOracle, LiveModeFlips) {
  // Slow recirculation so backpressure engages; flips land while releases,
  // loop checks and timeouts are in flight.
  LgConfig cfg = tuned_100g();
  cfg.actual_loss_rate = 1e-2;
  Scenario r(cfg);
  r.link->set_loss_model(bernoulli(1e-2, 41));
  r.link->set_reverse_loss_model(bernoulli(1e-3, 43));
  r.link->enable_lg();
  r.inject(60'000, 1518);
  bool ordered = true;
  for (SimTime t = usec(700); t < msec(7); t += usec(900) + nsec(37)) {
    r.sim.schedule_at(t, [&r, &ordered] {
      ordered = !ordered;
      r.link->set_preserve_order(ordered);
    });
  }
  r.sample_every(usec(10), msec(10));
  r.sim.run();
  expect_conserved(r, 60'000);
  check("live_flips", 0x7f085390cf674a3eULL, r.digest());
}

TEST(LgOracle, FlipsWhileBackpressured) {
  // Every ordered -> NB flip lands while backpressure is asserted, so the
  // reordering buffer is non-empty when it is flushed and the lifting resume
  // goes out with its copies and refresh repeats. Recorded after that resume
  // gained its redundancy (it used to be one bare frame); the other
  // scenarios never flip while paused and match either version.
  LgConfig cfg = tuned_100g();
  cfg.actual_loss_rate = 1e-2;
  cfg.control_copies = 2;
  cfg.recirc_loop = usec(5);
  Scenario r(cfg);
  r.link->set_loss_model(bernoulli(1e-2, 45));
  r.link->set_reverse_loss_model(bernoulli(1e-3, 47));
  r.link->enable_lg();
  r.inject(60'000, 1518);
  int flips = 0;
  for (SimTime t = usec(300); t < msec(7); t += nsec(50)) {
    r.sim.schedule_at(t, [&r, &flips] {
      ProtectedLink& l = *r.link;
      if (l.preserve_order() && l.receiver().backpressured()) {
        l.set_preserve_order(false);
        ++flips;
      } else if (!l.preserve_order() && l.sender().stats().protected_sent % 4096 == 0) {
        l.set_preserve_order(true);
        ++flips;
      }
    });
  }
  r.sample_every(usec(10), msec(10));
  r.sim.run();
  expect_conserved(r, 60'000);
  EXPECT_GT(flips, 4);
  check("flips_while_backpressured", 0x66d009a786305101ULL, r.digest());
}

TEST(LgOracle, DisableEnableWithEventsInFlight) {
  // disable()/enable() cycles a few microseconds apart: loop checks, reorder
  // releases and ackNo timeouts from the old session fire into the new one.
  LgConfig cfg = tuned_100g();
  cfg.actual_loss_rate = 1e-2;
  Scenario r(cfg);
  r.link->set_loss_model(bernoulli(1e-2, 51));
  r.link->enable_lg();
  r.inject(30'000, 1518);
  r.sim.schedule_at(usec(1500), [&r] { r.link->disable_lg(); });
  r.sim.schedule_at(usec(1503), [&r] { r.link->enable_lg(); });
  r.sim.schedule_at(usec(2000), [&r] { r.link->set_preserve_order(false); });
  r.sim.schedule_at(usec(2600), [&r] { r.link->disable_lg(); });
  r.sim.schedule_at(usec(2601), [&r] { r.link->enable_lg(); });
  r.sim.schedule_at(usec(3100), [&r] { r.link->set_preserve_order(true); });
  r.sim.schedule_at(usec(3200), [&r] {
    r.link->disable_lg();
    r.link->enable_lg();
    r.inject(10'000, 1518);
  });
  r.sample_every(usec(10), msec(6));
  r.sim.run();
  check("disable_enable_in_flight", 0xbf1d93ec7c49926dULL, r.digest());
}

std::uint64_t run_wrap(bool ordered) {
  // > 2 * 65536 frames: the era bit toggles twice on both sides.
  constexpr int kFrames = 140'000;
  LgConfig cfg = tuned_100g();
  cfg.preserve_order = ordered;
  cfg.actual_loss_rate = 1e-3;
  Scenario r(cfg);
  r.link->set_loss_model(bernoulli(1e-3, 61));
  r.link->enable_lg();
  r.inject(kFrames, 64);
  r.sample_every(usec(10), msec(2));
  r.sim.run();
  expect_conserved(r, kFrames);
  EXPECT_GE(r.link->sender().next_virtual_seq(), 2 * static_cast<std::int64_t>(kSeqSpace));
  return r.digest();
}

TEST(LgOracle, OrderedEraWrapsTwice) {
  check("ordered_era_wrap", 0x8a22f105862776f8ULL, run_wrap(true));
}

TEST(LgOracle, NbEraWrapsTwice) {
  check("nb_era_wrap", 0x4089bb43066f61e6ULL, run_wrap(false));
}

TEST(LgOracle, StallGrowsBothBuffers) {
  // A 30 us reverse outage swallows ACKs and loss notifications: the Tx
  // buffer keeps every copy and forward holes wait for their timeouts while
  // the reordering buffer fills. High thresholds keep backpressure out of the
  // way so both buffers pass a few hundred frames.
  LgConfig cfg = tuned_100g();
  cfg.actual_loss_rate = 1e-2;
  cfg.recirc_buffer_bytes = 400'000;
  cfg.resume_threshold = 300'000;
  cfg.pause_threshold = 300'000 + 2 * kEthernetMtu;
  Scenario r(cfg);
  r.link->set_loss_model(bernoulli(1e-2, 71));
  r.link->set_reverse_loss_model(
      std::make_unique<BernoulliWithOutage>(1e-3, Rng(73), usec(100), usec(130)));
  r.link->enable_lg();
  r.inject(40'000, 256);
  r.sample_every(usec(1), msec(1));
  r.sim.run();
  expect_conserved(r, 40'000);
  const auto initial = static_cast<std::int64_t>(SeqRing<int>::kInitialCapacity);
  EXPECT_GT(r.max_tx_pkts, initial);
  EXPECT_GT(r.max_rx_pkts, initial);
  check("stall_growth", 0x9c3bbe9ff36198bbULL, r.digest());
}

}  // namespace
}  // namespace lgsim::lg
