// Multi-hop integration test: the paper's Fig. 7 testbed topology as a
// linear chain of switch hops, with the corrupting (VOA) link between sw2
// and sw6 carried by LinkGuardian.
//
//   h4 -> sw4 -> sw2 ==LG/VOA==> sw6 -> sw10 -> h8   (and the reverse path)
//
// Each switch is its ingress pipeline (PipelineDelay) followed by one egress
// port toward the next hop; at sw2 and sw6 the pipeline hands frames to the
// ProtectedLink instead. Verifies that LinkGuardian is transparent to
// multi-hop forwarding: packets cross three switches each way, the protected
// link recovers its losses, ordering holds end to end, and the reverse path
// carries the piggybacked ACK state through intermediate hops.
#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lg/link.h"
#include "net/loss_model.h"
#include "net/pipeline.h"
#include "net/port.h"
#include "sim/simulator.h"

namespace lgsim {
namespace {

constexpr SimTime kPipelineLatency = nsec(400);

struct Fig7 {
  using Handler = std::function<void(net::Packet&&)>;

  Simulator sim;
  BitRate rate;
  std::deque<net::PipelineDelay> pipes;  // deque: stable element addresses
  std::deque<net::EgressPort> ports;
  std::unique_ptr<lg::ProtectedLink> voa;  // the corrupting sw2->sw6 link
  Handler sw4_in;   // h4's uplink
  Handler sw10_in;  // h8's uplink

  std::vector<net::Packet> at_h8;
  std::vector<net::Packet> at_h4;

  /// A switch's ingress pipeline, handing frames to `next`.
  Handler pipeline_to(Handler next) {
    net::PipelineDelay& pipe =
        pipes.emplace_back(sim, kPipelineLatency, std::move(next));
    return [&pipe](net::Packet&& p) { pipe.accept(std::move(p)); };
  }

  /// A switch hop: the ingress pipeline, then an egress port whose fiber
  /// ends at `next`.
  Handler hop(const std::string& name, Handler next) {
    net::EgressPort& port = ports.emplace_back(sim, name, rate, nsec(100));
    const int q = port.add_queue({.byte_limit = 2'000'000});
    port.set_deliver(std::move(next));
    return pipeline_to(
        [&port, q](net::Packet&& p) { port.enqueue(q, std::move(p)); });
  }

  explicit Fig7(const lg::LgConfig& cfg, BitRate link_rate = gbps(100))
      : rate(link_rate) {
    lg::LinkSpec spec;
    spec.rate = rate;
    spec.name = "sw2-sw6(VOA)";
    voa = std::make_unique<lg::ProtectedLink>(sim, spec, cfg);

    const Handler h8 = [this](net::Packet&& p) { at_h8.push_back(std::move(p)); };
    const Handler h4 = [this](net::Packet&& p) { at_h4.push_back(std::move(p)); };
    // Forward: sw4 -> sw2 ==LG==> sw6 -> sw10 -> h8.
    sw4_in = hop("sw4-sw2", pipeline_to([this](net::Packet&& p) {
                   voa->send_forward(std::move(p));
                 }));
    voa->set_forward_sink(hop("sw6-sw10", hop("sw10-h8", h8)));
    // Reverse: sw10 -> sw6 ==LG==> sw2 -> sw4 -> h4.
    sw10_in = hop("sw10-sw6", pipeline_to([this](net::Packet&& p) {
                    voa->send_reverse(std::move(p));
                  }));
    voa->set_reverse_sink(hop("sw2-sw4", hop("sw4-h4", h4)));
  }

  // Injections are paced at the host line rate so the intermediate switch
  // queues (realistically sized) never see a synthetic infinite burst.
  void send_h4_to_h8(int n, std::int32_t bytes = 1500) {
    const SimTime ser = serialization_time(bytes + 38, gbps(100));
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<SimTime>(i) * ser, [this, bytes, i] {
        net::Packet p;
        p.kind = net::PktKind::kData;
        p.frame_bytes = bytes;
        p.uid = static_cast<std::uint64_t>(i + 1);
        sw4_in(std::move(p));
      });
    }
  }

  void send_h8_to_h4(int n, std::int32_t bytes = 200) {
    const SimTime ser = serialization_time(bytes + 38, gbps(100));
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<SimTime>(i) * ser, [this, bytes, i] {
        net::Packet p;
        p.kind = net::PktKind::kData;
        p.frame_bytes = bytes;
        p.uid = static_cast<std::uint64_t>(1000 + i);
        sw10_in(std::move(p));
      });
    }
  }
};

TEST(Fig7Topology, CleanEndToEndForwarding) {
  lg::LgConfig cfg;
  Fig7 net(cfg);
  net.voa->enable_lg();
  net.send_h4_to_h8(100);
  net.send_h8_to_h4(50);
  net.sim.run();
  ASSERT_EQ(net.at_h8.size(), 100u);
  ASSERT_EQ(net.at_h4.size(), 50u);
  for (std::size_t i = 1; i < net.at_h8.size(); ++i)
    EXPECT_GT(net.at_h8[i].uid, net.at_h8[i - 1].uid);
  // The LG header never leaks past the protected link.
  for (const auto& p : net.at_h8) EXPECT_FALSE(p.lg.valid);
}

TEST(Fig7Topology, CorruptionOnVoaLinkMaskedAcrossHops) {
  lg::LgConfig cfg;
  cfg.actual_loss_rate = 1e-2;
  Fig7 net(cfg);
  net.voa->set_loss_model(std::make_unique<net::BernoulliLoss>(1e-2, Rng(21)));
  net.voa->enable_lg();
  net.send_h4_to_h8(20'000);
  net.send_h8_to_h4(5'000);  // reverse traffic carries piggybacked ACKs
  net.sim.run();
  const auto& rs = net.voa->receiver().stats();
  EXPECT_EQ(net.at_h8.size() + static_cast<std::size_t>(rs.effectively_lost),
            20'000u);
  EXPECT_LE(rs.effectively_lost, 2);  // ~1e-2^3 residual
  EXPECT_GT(rs.recovered, 100);
  EXPECT_EQ(net.at_h4.size(), 5'000u);  // reverse traffic unharmed
  for (std::size_t i = 1; i < net.at_h8.size(); ++i)
    ASSERT_GT(net.at_h8[i].uid, net.at_h8[i - 1].uid);
}

TEST(Fig7Topology, WithoutLgTheLossReachesTheEndpoints) {
  lg::LgConfig cfg;
  Fig7 net(cfg);
  net.voa->set_loss_model(std::make_unique<net::BernoulliLoss>(1e-2, Rng(22)));
  net.send_h4_to_h8(20'000);
  net.sim.run();
  EXPECT_LT(net.at_h8.size(), 20'000u);
  EXPECT_GT(net.at_h8.size(), 19'000u);  // ~1% gone
}

}  // namespace
}  // namespace lgsim
