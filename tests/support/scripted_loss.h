// Scripted loss fixture for protocol unit tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/loss_model.h"
#include "net/packet.h"
#include "util/units.h"

namespace lgsim::net {

/// Drops the frames whose (0-based) index on the link appears in `indices`.
/// Deterministic; used by protocol unit tests to script exact loss patterns.
/// Indices are sorted once at construction; since the frame counter is
/// monotone, a cursor over the sorted list answers each frame in O(1)
/// amortized.
class ScriptedLoss final : public LossModel {
 public:
  explicit ScriptedLoss(std::vector<std::uint64_t> indices)
      : indices_(std::move(indices)) {
    std::sort(indices_.begin(), indices_.end());
  }

  bool lose(SimTime, const Packet&) override {
    const std::uint64_t i = next_++;
    while (cursor_ < indices_.size() && indices_[cursor_] < i) ++cursor_;
    if (cursor_ < indices_.size() && indices_[cursor_] == i) {
      ++cursor_;
      return true;
    }
    return false;
  }

  std::uint64_t frames_seen() const { return next_; }

 private:
  std::vector<std::uint64_t> indices_;
  std::size_t cursor_ = 0;
  std::uint64_t next_ = 0;
};

}  // namespace lgsim::net
