// Behavioural tests for the three system rate controllers and the shared
// delay detectors.
#include <gtest/gtest.h>

#include "stream/controllers/geforce_like.hpp"
#include "stream/controllers/luna_like.hpp"
#include "stream/controllers/stadia_like.hpp"
#include "stream/delay_detector.hpp"
#include "stream/profiles.hpp"

namespace cgs::stream {
namespace {

using namespace cgs::literals;

FeedbackSnapshot fb(Time now, Bandwidth recv, double loss, Time qdelay) {
  FeedbackSnapshot s;
  s.now = now;
  s.recv_rate = recv;
  s.send_rate = recv;
  s.loss_fraction = loss;
  s.queuing_delay = qdelay;
  s.valid = true;
  return s;
}

// ----------------------------------------------------------- detectors ----

TEST(RelativeDelayDetector, ToleratesStableStandingQueue) {
  RelativeDelayDetector d({.norm_gain = 0.1,
                           .rel_factor = 1.5,
                           .abs_margin = 5_ms,
                           .hard_limit = kTimeInfinite});
  // Warm up on a stable 20 ms standing queue.
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(d.overused(20_ms)) << i;
  // A jump to 40 ms (2x the norm) is overuse.
  EXPECT_TRUE(d.overused(40_ms));
}

TEST(RelativeDelayDetector, HardLimitAlwaysTrips) {
  RelativeDelayDetector d({.norm_gain = 0.1,
                           .rel_factor = 1.5,
                           .abs_margin = 5_ms,
                           .hard_limit = 60_ms});
  for (int i = 0; i < 200; ++i) d.overused(100_ms);  // norm saturates high
  EXPECT_TRUE(d.overused(100_ms));  // still above the hard ceiling
}

TEST(RelativeDelayDetector, LowDelayNeverOveruse) {
  RelativeDelayDetector d({});
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(d.overused(std::chrono::milliseconds(1 + i % 3)));
  }
}

TEST(StandingQueueDetector, CubicStyleDrainsReset) {
  StandingQueueDetector d(3_sec, 12_ms);
  Time t = kTimeZero;
  // Sawtooth 5..30 ms with dips below the floor: never standing.
  for (int i = 0; i < 100; ++i) {
    t += 100_ms;
    const Time q = std::chrono::milliseconds(5 + (i % 10) * 3);
    const bool s = d.standing(q, t);
    if (i > 30) {
      EXPECT_FALSE(s) << i;
    }
  }
}

TEST(StandingQueueDetector, BbrStyleStandingTrips) {
  StandingQueueDetector d(3_sec, 12_ms);
  Time t = kTimeZero;
  bool tripped = false;
  // Persistent 15-25 ms queue, never draining.
  for (int i = 0; i < 100; ++i) {
    t += 100_ms;
    const Time q = std::chrono::milliseconds(15 + (i % 10));
    tripped = d.standing(q, t);
  }
  EXPECT_TRUE(tripped);
}

// ------------------------------------------------------------- Stadia -----

TEST(StadiaLike, RampsToMaxWhenClean) {
  StadiaLikeConfig cfg;
  StadiaLikeController c(cfg);
  Time t = kTimeZero;
  ControlDecision d = c.current();
  for (int i = 0; i < 2000; ++i) {
    t += 100_ms;
    d = c.on_feedback(fb(t, d.target_bitrate, 0.0, 1_ms));
  }
  EXPECT_EQ(d.target_bitrate, cfg.max_bitrate);
  EXPECT_DOUBLE_EQ(d.target_fps, 60.0);
}

TEST(StadiaLike, ToleratesModerateLoss) {
  // GCC-class behaviour: 5% loss alone must not crash the rate.
  StadiaLikeConfig cfg;
  StadiaLikeController c(cfg);
  Time t = kTimeZero;
  ControlDecision d = c.current();
  for (int i = 0; i < 600; ++i) {
    t += 100_ms;
    d = c.on_feedback(fb(t, d.target_bitrate * 0.95, 0.05, 2_ms));
  }
  EXPECT_GT(d.target_bitrate.megabits_per_sec(), 20.0);
}

TEST(StadiaLike, HeavyLossErodesRate) {
  StadiaLikeConfig cfg;
  StadiaLikeController c(cfg);
  Time t = kTimeZero;
  ControlDecision d = c.current();
  for (int i = 0; i < 600; ++i) {
    t += 100_ms;
    d = c.on_feedback(fb(t, d.target_bitrate * 0.75, 0.25, 2_ms));
  }
  EXPECT_LT(d.target_bitrate.megabits_per_sec(),
            cfg.start_bitrate.megabits_per_sec());
}

TEST(StadiaLike, DelaySpikeBacksOffToRecvFraction) {
  StadiaLikeConfig cfg;
  StadiaLikeController c(cfg);
  Time t = kTimeZero;
  ControlDecision d = c.current();
  for (int i = 0; i < 300; ++i) {
    t += 100_ms;
    d = c.on_feedback(fb(t, d.target_bitrate, 0.0, 2_ms));
  }
  const double before = d.target_bitrate.megabits_per_sec();
  t += 100_ms;
  d = c.on_feedback(fb(t, Bandwidth::mbps(14.0), 0.0, 70_ms));  // hard limit
  EXPECT_LT(d.target_bitrate.megabits_per_sec(), before);
  EXPECT_GE(d.target_bitrate.megabits_per_sec(), before * 0.5 - 1e-9);
}

TEST(StadiaLike, FpsLadderFollowsLoss) {
  StadiaLikeConfig cfg;
  StadiaLikeController c(cfg);
  Time t = kTimeZero;
  ControlDecision d = c.current();
  EXPECT_DOUBLE_EQ(d.target_fps, 60.0);
  for (int i = 0; i < 50; ++i) {
    t += 100_ms;
    d = c.on_feedback(fb(t, Bandwidth::mbps(12), 0.005, 2_ms));
  }
  EXPECT_DOUBLE_EQ(d.target_fps, 50.0);
  for (int i = 0; i < 50; ++i) {
    t += 100_ms;
    d = c.on_feedback(fb(t, Bandwidth::mbps(12), 0.03, 2_ms));
  }
  EXPECT_DOUBLE_EQ(d.target_fps, 40.0);
}

// ------------------------------------------------------------ GeForce -----

TEST(GeForceLike, AlwaysTargets60Fps) {
  GeForceLikeConfig cfg;
  GeForceLikeController c(cfg);
  Time t = kTimeZero;
  ControlDecision d = c.current();
  for (int i = 0; i < 200; ++i) {
    t += 100_ms;
    d = c.on_feedback(fb(t, Bandwidth::mbps(5), 0.05, 30_ms));
    ASSERT_DOUBLE_EQ(d.target_fps, 60.0);
  }
}

TEST(GeForceLike, LightLossTriggersBackoff) {
  GeForceLikeConfig cfg;
  GeForceLikeController c(cfg);
  Time t = kTimeZero;
  ControlDecision d = c.current();
  const double before = d.target_bitrate.megabits_per_sec();
  t += 100_ms;
  d = c.on_feedback(fb(t, Bandwidth::mbps(10), 0.03, 1_ms));
  EXPECT_LT(d.target_bitrate.megabits_per_sec(), before);
}

TEST(GeForceLike, SlowAdditiveRecovery) {
  GeForceLikeConfig cfg;
  GeForceLikeController c(cfg);
  Time t = kTimeZero;
  // Knock it to the floor.
  for (int i = 0; i < 30; ++i) {
    t += 100_ms;
    c.on_feedback(fb(t, Bandwidth::mbps(3), 0.05, 30_ms));
  }
  // Clean network: it must climb, but no faster than step per interval.
  ControlDecision d = c.current();
  const double floor_rate = d.target_bitrate.megabits_per_sec();
  for (int i = 0; i < 100; ++i) {
    t += 100_ms;
    const double prev = d.target_bitrate.megabits_per_sec();
    d = c.on_feedback(fb(t, d.target_bitrate, 0.0, 1_ms));
    ASSERT_LE(d.target_bitrate.megabits_per_sec() - prev,
              cfg.increase_step.megabits_per_sec() + 1e-9);
  }
  EXPECT_GT(d.target_bitrate.megabits_per_sec(), floor_rate);
}

TEST(GeForceLike, StandingQueueSuppresses) {
  GeForceLikeConfig cfg;
  GeForceLikeController c(cfg);
  Time t = kTimeZero;
  ControlDecision d = c.current();
  // Persistent 18 ms standing queue (BBR-style), no loss.
  for (int i = 0; i < 400; ++i) {
    t += 100_ms;
    d = c.on_feedback(fb(t, d.target_bitrate, 0.0, 18_ms));
  }
  EXPECT_LT(d.target_bitrate.megabits_per_sec(), 10.0);
}

// --------------------------------------------------------------- Luna -----

TEST(LunaLike, FpsLadderFollowsBitrate) {
  LunaLikeConfig cfg;
  LunaLikeController c(cfg);
  // Climb the rate above the 60 f/s tier with clean feedback.
  Time tt = kTimeZero;
  ControlDecision dd = c.current();
  for (int i = 0; i < 600; ++i) {
    tt += 100_ms;
    dd = c.on_feedback(fb(tt, dd.target_bitrate, 0.0, 1_ms));
  }
  EXPECT_GE(dd.target_bitrate, cfg.fps60_at);
  EXPECT_DOUBLE_EQ(dd.target_fps, 60.0);
  LunaLikeController low(cfg);
  Time t = kTimeZero;
  ControlDecision d = low.current();
  for (int i = 0; i < 200; ++i) {
    t += 100_ms;
    d = low.on_feedback(fb(t, Bandwidth::mbps(3), 0.06, 1_ms));
  }
  EXPECT_LT(d.target_bitrate, cfg.fps40_at);
  EXPECT_DOUBLE_EQ(d.target_fps, 30.0);
}

TEST(LunaLike, ClimbsOnlyAfterCleanStreak) {
  LunaLikeConfig cfg;
  LunaLikeController c(cfg);
  Time t = kTimeZero;
  ControlDecision d = c.current();
  const double start = d.target_bitrate.megabits_per_sec();
  // Fewer clean intervals than required: no climb.
  for (int i = 0; i < cfg.clean_intervals_to_climb - 1; ++i) {
    t += 100_ms;
    d = c.on_feedback(fb(t, d.target_bitrate, 0.0, 1_ms));
  }
  EXPECT_DOUBLE_EQ(d.target_bitrate.megabits_per_sec(), start);
  // One more: climbs.
  t += 100_ms;
  d = c.on_feedback(fb(t, d.target_bitrate, 0.0, 1_ms));
  EXPECT_GT(d.target_bitrate.megabits_per_sec(), start);
}

TEST(LunaLike, LossResetsCleanStreak) {
  LunaLikeConfig cfg;
  LunaLikeController c(cfg);
  Time t = kTimeZero;
  ControlDecision d = c.current();
  const double start = d.target_bitrate.megabits_per_sec();
  for (int i = 0; i < 100; ++i) {
    t += 100_ms;
    // A dirty interval every clean_intervals-1 steps: never climbs.
    const double loss =
        (i % (cfg.clean_intervals_to_climb - 1) == 0) ? 0.05 : 0.0;
    d = c.on_feedback(fb(t, d.target_bitrate, loss, 1_ms));
  }
  EXPECT_LE(d.target_bitrate.megabits_per_sec(), start);
}

TEST(LunaLike, StandingQueuePinsRate) {
  LunaLikeConfig cfg;
  LunaLikeController c(cfg);
  Time t = kTimeZero;
  ControlDecision d = c.current();
  for (int i = 0; i < 400; ++i) {
    t += 100_ms;
    d = c.on_feedback(fb(t, d.target_bitrate, 0.0, 16_ms));
  }
  EXPECT_LT(d.target_bitrate.megabits_per_sec(),
            cfg.start_bitrate.megabits_per_sec());
}

// ------------------------------------------------------------ profiles ----

TEST(Profiles, Table1Baselines) {
  EXPECT_DOUBLE_EQ(
      profile_for(GameSystem::kStadia).max_bitrate.megabits_per_sec(), 27.5);
  EXPECT_DOUBLE_EQ(
      profile_for(GameSystem::kGeForce).max_bitrate.megabits_per_sec(), 24.5);
  EXPECT_DOUBLE_EQ(
      profile_for(GameSystem::kLuna).max_bitrate.megabits_per_sec(), 23.7);
}

TEST(Profiles, ControllersMatchSystems) {
  EXPECT_EQ(make_controller(GameSystem::kStadia)->name(), "stadia-like");
  EXPECT_EQ(make_controller(GameSystem::kGeForce)->name(), "geforce-like");
  EXPECT_EQ(make_controller(GameSystem::kLuna)->name(), "luna-like");
}

TEST(Profiles, Names) {
  EXPECT_EQ(to_string(GameSystem::kStadia), "Stadia");
  EXPECT_EQ(to_string(GameSystem::kGeForce), "GeForce");
  EXPECT_EQ(to_string(GameSystem::kLuna), "Luna");
}

}  // namespace
}  // namespace cgs::stream
