#include <gtest/gtest.h>

#include <memory>

#include "net/loss_model.h"
#include "net/packet.h"
#include "rifl/rifl.h"

namespace lgsim::rifl {
namespace {

TEST(RiflParams, Efficiency) {
  EXPECT_DOUBLE_EQ(RiflParams{}.efficiency(), 240.0 / 256.0);
  EXPECT_DOUBLE_EQ((RiflParams{.frame_bits = 128, .meta_bits = 32}).efficiency(),
                   0.75);
}

TEST(RiflLossModel, ResidualMatchesRetryAnalytic) {
  // A frame is lost iff all max_tx attempts are corrupted: p^max_tx.
  const RiflParams params{.max_tx = 4};
  RiflLossModel model(params,
                      std::make_unique<net::BernoulliLoss>(0.5, Rng(9)));
  net::Packet p;
  const int n = 500'000;
  int lost = 0;
  for (int i = 0; i < n; ++i)
    if (model.lose(0, p)) ++lost;
  const double measured = static_cast<double>(lost) / n;
  EXPECT_NEAR(measured, 0.5 * 0.5 * 0.5 * 0.5, 0.005);
  EXPECT_EQ(model.frames_failed(), lost);
  EXPECT_GT(model.wire_corruptions(), model.frames_failed());
}

TEST(RiflLossModel, ZeroRawLossIsLossless) {
  RiflLossModel model(RiflParams{},
                      std::make_unique<net::BernoulliLoss>(0.0, Rng(1)));
  net::Packet p;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(model.lose(0, p));
  EXPECT_EQ(model.frames_failed(), 0);
}

TEST(RiflScheme, PathKnobs) {
  RiflScheme scheme;
  net::LossSpec at;
  at.rate = 1e-2;
  EXPECT_STREQ(scheme.name(), "rifl");
  EXPECT_DOUBLE_EQ(scheme.capacity_fraction(at), 0.9375 * 0.99);
  EXPECT_EQ(scheme.added_latency(), scheme.params().framing_latency);
  EXPECT_NEAR(scheme.provisioned_capacity_x(at),
              1.0 / (0.9375 * 0.99), 1e-12);

  net::ResidualLoss residual = scheme.residual(at);
  ASSERT_NE(residual.model, nullptr);
  ASSERT_NE(residual.raw, nullptr);
  EXPECT_DOUBLE_EQ(residual.raw->driven_rate(), 1e-2);
}

}  // namespace
}  // namespace lgsim::rifl
