#include <gtest/gtest.h>

#include <memory>

#include "net/loss_model.h"
#include "net/packet.h"
#include "net/protection.h"
#include "protect/protect.h"
#include "rifl/rifl.h"
#include "wharf/wharf.h"

namespace lgsim::protect {
namespace {

TEST(TwoPathLoss, ResidualIsProductOfIndependentProcesses) {
  TwoPathLoss model(std::make_unique<net::BernoulliLoss>(0.3, Rng(31)),
                    std::make_unique<net::BernoulliLoss>(0.2, Rng(32)));
  net::Packet p;
  const int n = 500'000;
  int lost = 0;
  for (int i = 0; i < n; ++i)
    if (model.lose(0, p)) ++lost;
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.3 * 0.2, 0.005);
}

TEST(TwoPathLoss, HealthyProtectionPathMasksEverything) {
  TwoPathLoss model(std::make_unique<net::BernoulliLoss>(0.5, Rng(1)),
                    std::make_unique<net::BernoulliLoss>(0.0, Rng(2)));
  net::Packet p;
  for (int i = 0; i < 10'000; ++i) EXPECT_FALSE(model.lose(0, p));
}

TEST(OnePlusOneScheme, PathKnobs) {
  OnePlusOneScheme scheme;
  net::LossSpec at;
  at.rate = 1e-2;
  EXPECT_STREQ(scheme.name(), "1+1");
  EXPECT_DOUBLE_EQ(scheme.capacity_fraction(at), 1.0);
  EXPECT_DOUBLE_EQ(scheme.provisioned_capacity_x(at), 2.0);
  EXPECT_EQ(scheme.added_latency(), scheme.params().merge_latency);

  // The residual masks a lossy working path with the healthy secondary; the
  // drivable handle is the working path (what fault scripts degrade).
  net::ResidualLoss residual = scheme.residual(at);
  ASSERT_NE(residual.raw, nullptr);
  EXPECT_DOUBLE_EQ(residual.raw->driven_rate(), 1e-2);
  net::Packet p;
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(residual.model->lose(0, p));
}

// The raw handle of a residual is what the fault catalogue drives
// (bench_baselines): re-aiming it must reach the residual from the next frame
// on, for every scheme. Each phase is four whole Wharf blocks (k = 25 frames
// at the provisioned rate 0), so no block straddles a drive.
TEST(ResidualLoss, RawHandleDrivesEveryScheme) {
  const net::Unprotected none{};
  const wharf::WharfScheme wharf{};
  const rifl::RiflScheme rifl{};
  const OnePlusOneScheme dup{};
  const net::ProtectionScheme* const schemes[] = {&none, &wharf, &rifl, &dup};
  net::Packet p;
  auto lost_of = [&p](net::ResidualLoss& r, int frames) {
    int lost = 0;
    for (int i = 0; i < frames; ++i)
      if (r.model->lose(0, p)) ++lost;
    return lost;
  };
  for (const net::ProtectionScheme* scheme : schemes) {
    SCOPED_TRACE(scheme->name());
    net::ResidualLoss r = scheme->residual(net::LossSpec{.rate = 0.0});
    ASSERT_NE(r.raw, nullptr);
    EXPECT_EQ(lost_of(r, 100), 0);
    r.raw->drive_rate(1.0);
    // 1+1 still delivers every frame: its secondary path stays healthy.
    EXPECT_EQ(lost_of(r, 100), scheme == &dup ? 0 : 100);
    r.raw->drive_rate(0.0);
    EXPECT_EQ(lost_of(r, 100), 0);
  }
  // With its secondary path dead too, 1+1 loses exactly what the handle
  // drives: the handle is the working path inside the residual.
  net::ResidualLoss r = OnePlusOneScheme(ProtectParams{.secondary_rate = 1.0})
                            .residual(net::LossSpec{.rate = 0.0});
  EXPECT_EQ(lost_of(r, 100), 0);
  r.raw->drive_rate(1.0);
  EXPECT_EQ(lost_of(r, 100), 100);
}

}  // namespace
}  // namespace lgsim::protect
