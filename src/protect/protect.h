// 1+1 path protection baseline (P4-Protect, arXiv 2001.11370).
//
// P4-Protect [Lindner et al.] secures traffic between two nodes by sending
// every packet twice, over two disjoint paths, inside a tunneling header
// that carries a sequence number. The merge point forwards the first copy
// of each sequence number and drops the second. Protection is proactive:
// there is no failure detection and no recovery latency — a corrupted copy
// on one path is masked instantly by its twin on the other — at the price
// of permanently consuming twice the fabric capacity (and a dedup lookup at
// the merge point).
//
// The model here is that residual collapsed to a loss process
// (TwoPathLoss): a frame is lost only if both copies are corrupted. It
// drives a TestbedPath at goodput-sweep scale.
#pragma once

#include <cstdint>
#include <memory>

#include "net/loss_model.h"
#include "net/packet.h"
#include "net/protection.h"
#include "util/units.h"

namespace lgsim::protect {

struct ProtectParams {
  /// Dedup lookup / tunnel decap latency at the merge point.
  SimTime merge_latency = nsec(50);
  /// Raw corruption rate of the protection path (the working path's process
  /// is scripted/driven; the disjoint path has its own independent one).
  double secondary_rate = 0.0;
  /// Seed offset for the protection path's loss process, so the two paths
  /// draw from independent streams of the same grid seed.
  std::uint64_t secondary_seed_offset = 0x9e3779b9;
};

/// The 1+1 residual as a loss process: a frame is lost only if both copies
/// are corrupted. Both paths are rolled for every frame (no short-circuit),
/// so each path's RNG stream stays frame-indexed and independent of the
/// other path's outcomes, as on two real disjoint paths.
class TwoPathLoss final : public net::LossModel {
 public:
  TwoPathLoss(std::unique_ptr<net::DrivableLoss> a,
              std::unique_ptr<net::DrivableLoss> b)
      : a_(std::move(a)), b_(std::move(b)) {}

  bool lose(SimTime now, const net::Packet& p) override {
    const bool lost_a = a_->lose(now, p);
    const bool lost_b = b_->lose(now, p);
    return lost_a && lost_b;
  }

  net::DrivableLoss* path_a() { return a_.get(); }

 private:
  std::unique_ptr<net::DrivableLoss> a_;
  std::unique_ptr<net::DrivableLoss> b_;
};

/// 1+1 duplication as a pluggable protection scheme. Traffic runs at full
/// line rate on each of the two disjoint paths (capacity_fraction 1), the
/// tax shows up as provisioned_capacity_x == 2; fault scripts drive the
/// working path's process (ResidualLoss::raw), the protection path keeps
/// its own independent background process.
class OnePlusOneScheme final : public net::ProtectionScheme {
 public:
  explicit OnePlusOneScheme(ProtectParams params = {}) : params_(params) {}

  const char* name() const override { return "1+1"; }

  double capacity_fraction(const net::LossSpec&) const override { return 1.0; }
  double provisioned_capacity_x(const net::LossSpec&) const override {
    return 2.0;
  }
  SimTime added_latency() const override { return params_.merge_latency; }

  net::ResidualLoss residual(const net::LossSpec& raw) const override {
    net::LossSpec secondary = raw;
    secondary.rate = params_.secondary_rate;
    secondary.seed = raw.seed ^ params_.secondary_seed_offset;
    auto model = std::make_unique<TwoPathLoss>(raw.build(), secondary.build());
    net::DrivableLoss* handle = model->path_a();
    return net::ResidualLoss{std::move(model), handle};
  }

  const ProtectParams& params() const { return params_; }

 private:
  ProtectParams params_;
};

}  // namespace lgsim::protect
