// RIFL baseline: reliable link-layer retransmission (arXiv 2309.08696).
//
// RIFL [Shen, Zheng, Chow] makes a single link lossless in the link layer:
// traffic is carried in small fixed-size frames (256-bit cells, a few bits
// of which are sequence number, frame type and verification code), the
// transmitter keeps every frame in a retransmission buffer until it is
// acknowledged, and the receiver detects corrupted/missing frames and has
// them retransmitted hop-locally. Delivery is in order: a lost frame stalls
// the frames behind it until its retransmission lands (head-of-line
// blocking inside the hop), which is how RIFL guarantees exactly-once
// in-order delivery to the layer above.
//
// Cost model (the knobs RiflScheme plugs into a path):
//   * capacity — the per-frame metadata is paid on every frame
//     (efficiency()), and every corrupted frame consumes its wire slot
//     again when retransmitted: expected transmissions per delivered frame
//     at raw loss p is 1/(1-p), so usable capacity is efficiency * (1-p).
//   * latency — a fixed TX+RX framing pipeline per hop; recovered frames
//     additionally wait for their retransmission round trip.
//   * residual loss — a frame is lost only if all max_tx transmission
//     attempts are corrupted (p^max_tx under i.i.d. loss: zero for any
//     practical BER; a Gilbert-Elliott burst outliving the retry budget is
//     the realistic way to beat it).
//
// The model here is that retry discipline collapsed to a loss process
// (RiflLossModel), for driving a TestbedPath at goodput-sweep scale.
#pragma once

#include <cstdint>
#include <memory>

#include "net/loss_model.h"
#include "net/packet.h"
#include "net/protection.h"
#include "util/units.h"

namespace lgsim::rifl {

struct RiflParams {
  /// Wire frame geometry: RIFL carries traffic in fixed 256-bit cells; the
  /// metadata bits (sequence number, frame type, verification code) are the
  /// protocol's fixed bandwidth tax.
  int frame_bits = 256;
  int meta_bits = 16;
  /// Transmission attempts per frame (1 original + max_tx-1 retransmissions)
  /// before the transmitter gives up and tells the receiver to skip it.
  int max_tx = 16;
  /// One-way TX+RX framing pipeline latency added to every frame.
  SimTime framing_latency = nsec(110);

  /// Payload fraction of the wire rate.
  double efficiency() const {
    return static_cast<double>(frame_bits - meta_bits) /
           static_cast<double>(frame_bits);
  }
};

/// RIFL's retry discipline as a residual loss process: a frame survives if
/// any of its max_tx wire traversals survives the raw process. Attempts are
/// rolled back to back, so a bursty raw process (Gilbert-Elliott) correlates
/// consecutive attempts — the conservative direction: a burst has to outlive
/// the whole retry budget to get a frame lost, and with this model it does
/// so more easily than with attempts spread over the real retransmission
/// round trips.
class RiflLossModel final : public net::LossModel {
 public:
  RiflLossModel(RiflParams params, std::unique_ptr<net::DrivableLoss> raw)
      : params_(params), raw_(std::move(raw)) {}

  bool lose(SimTime now, const net::Packet& p) override {
    for (int attempt = 0; attempt < params_.max_tx; ++attempt) {
      if (!raw_->lose(now, p)) return false;
      ++wire_corruptions_;
    }
    ++frames_failed_;
    return true;
  }

  net::DrivableLoss* raw() { return raw_.get(); }
  std::int64_t wire_corruptions() const { return wire_corruptions_; }
  std::int64_t frames_failed() const { return frames_failed_; }

 private:
  RiflParams params_;
  std::unique_ptr<net::DrivableLoss> raw_;
  std::int64_t wire_corruptions_ = 0;
  std::int64_t frames_failed_ = 0;
};

/// RIFL as a pluggable protection scheme.
class RiflScheme final : public net::ProtectionScheme {
 public:
  explicit RiflScheme(RiflParams params = {}) : params_(params) {}

  const char* name() const override { return "rifl"; }

  double capacity_fraction(const net::LossSpec& raw) const override {
    // Metadata on every frame, plus one extra wire slot per corruption:
    // expected transmissions per delivered frame at raw loss p is 1/(1-p).
    return params_.efficiency() * (1.0 - raw.rate);
  }

  SimTime added_latency() const override { return params_.framing_latency; }

  net::ResidualLoss residual(const net::LossSpec& raw) const override {
    auto model = std::make_unique<RiflLossModel>(params_, raw.build());
    net::DrivableLoss* handle = model->raw();
    return net::ResidualLoss{std::move(model), handle};
  }

  const RiflParams& params() const { return params_; }

 private:
  RiflParams params_;
};

}  // namespace lgsim::rifl
