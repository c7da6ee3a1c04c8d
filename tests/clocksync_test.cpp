#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "clocksync/host_clock.hpp"
#include "clocksync/ntp.hpp"
#include "sim/simulation.hpp"

namespace dvc::clocksync {
namespace {

/// Polls `sync` now and then every `interval` from a daemon event, the
/// way ntpd runs beside a host's work.
void poll_every(sim::Simulation& s, NtpSynchronizer& sync,
                sim::Duration interval) {
  sync.sync_once();
  s.schedule_daemon_after(
      interval, [&s, &sync, interval] { poll_every(s, sync, interval); });
}

TEST(HostClockTest, PerfectClockTracksTrueTime) {
  sim::Simulation s;
  HostClock c(s, 0, 0.0);
  EXPECT_EQ(c.local_now(), 0);
  s.run_until(5 * sim::kSecond);
  EXPECT_EQ(c.local_now(), 5 * sim::kSecond);
  EXPECT_EQ(c.offset_error(), 0);
}

TEST(HostClockTest, InitialOffsetIsVisible) {
  sim::Simulation s;
  HostClock c(s, 30 * sim::kMillisecond, 0.0);
  EXPECT_EQ(c.offset_error(), 30 * sim::kMillisecond);
  s.run_until(sim::kMinute);
  EXPECT_EQ(c.offset_error(), 30 * sim::kMillisecond);
}

TEST(HostClockTest, DriftAccumulates) {
  sim::Simulation s;
  HostClock fast(s, 0, 100.0);  // +100 ppm
  HostClock slow(s, 0, -50.0);
  s.run_until(100 * sim::kSecond);
  // 100 ppm over 100 s = 10 ms fast.
  EXPECT_NEAR(sim::to_milliseconds(fast.offset_error()), 10.0, 0.01);
  EXPECT_NEAR(sim::to_milliseconds(slow.offset_error()), -5.0, 0.01);
}

TEST(HostClockTest, CorrectionCancelsOffset) {
  sim::Simulation s;
  HostClock c(s, 25 * sim::kMillisecond, 0.0);
  c.apply_correction(-c.offset_error());
  EXPECT_EQ(c.offset_error(), 0);
}

TEST(HostClockTest, ToSimInvertsToLocal) {
  sim::Simulation s;
  s.run_until(10 * sim::kSecond);
  HostClock c(s, 7 * sim::kMillisecond, 42.0);
  const sim::Time future_sim = s.now() + 13 * sim::kSecond;
  const sim::Time local = c.to_local(future_sim);
  // Round-trips to within a tick or two of drift rounding.
  EXPECT_NEAR(static_cast<double>(c.to_sim(local)),
              static_cast<double>(future_sim), 4.0);
}

TEST(HostClockTest, ScheduleAtLocalTimeLandsWithinDriftError) {
  sim::Simulation s;
  HostClock c(s, -4 * sim::kMillisecond, 80.0);
  // "Fire when my clock reads 60 s."
  const sim::Time target_local = 60 * sim::kSecond;
  const sim::Time fire_sim = c.to_sim(target_local);
  sim::Time read_at_fire = 0;
  s.schedule_at(fire_sim, [&] { read_at_fire = c.local_now(); });
  s.run();
  EXPECT_NEAR(static_cast<double>(read_at_fire),
              static_cast<double>(target_local), 4.0);
}

TEST(NtpTest, SingleSyncRemovesBulkOffset) {
  sim::Simulation s;
  HostClock c(s, 500 * sim::kMillisecond, 20.0);
  NtpSynchronizer sync(s, c, NtpPathModel{}, sim::Rng(1));
  sync.sync_once();
  // Residual is bounded by path asymmetry: well under 5 ms on this path.
  EXPECT_LT(std::abs(c.offset_error()), 5 * sim::kMillisecond);
  EXPECT_EQ(sync.polls(), 1u);
}

TEST(NtpTest, ResidualScalesWithPathJitter) {
  sim::Simulation s;
  NtpPathModel quiet{200 * sim::kMicrosecond, 50 * sim::kMicrosecond};
  NtpPathModel noisy{200 * sim::kMicrosecond, 20 * sim::kMillisecond};
  double quiet_err = 0.0;
  double noisy_err = 0.0;
  for (int trial = 0; trial < 64; ++trial) {
    HostClock a(s, 100 * sim::kMillisecond, 0.0);
    NtpSynchronizer sa(s, a, quiet, sim::Rng(100 + trial));
    sa.sync_once();
    quiet_err += std::abs(sim::to_milliseconds(a.offset_error()));

    HostClock b(s, 100 * sim::kMillisecond, 0.0);
    NtpSynchronizer sb(s, b, noisy, sim::Rng(100 + trial));
    sb.sync_once();
    noisy_err += std::abs(sim::to_milliseconds(b.offset_error()));
  }
  EXPECT_LT(quiet_err, noisy_err);
}

TEST(NtpTest, PeriodicPollingBoundsDrift) {
  sim::Simulation s;
  HostClock c(s, 200 * sim::kMillisecond, 200.0);  // aggressive drift
  NtpSynchronizer sync(s, c, NtpPathModel{}, sim::Rng(3));
  poll_every(s, sync, 16 * sim::kSecond);
  s.run_until(10 * sim::kMinute);
  // 200 ppm * 16 s = 3.2 ms between polls; residual stays small forever.
  EXPECT_LT(std::abs(c.offset_error()), 10 * sim::kMillisecond);
  EXPECT_GE(sync.polls(), 30u);
}

TEST(NtpTest, FrequencyDisciplineShrinksSteadyStateError) {
  // Two identical fast clocks; one synchroniser disciplines frequency,
  // the other only steps phase. After convergence the disciplined clock's
  // residual drift (and thus its inter-poll error) is far smaller.
  sim::Simulation s;
  HostClock disciplined(s, 100 * sim::kMillisecond, 150.0);
  HostClock stepped(s, 100 * sim::kMillisecond, 150.0);
  NtpSynchronizer sync_d(s, disciplined, NtpPathModel{}, sim::Rng(5),
                         /*discipline_frequency=*/true);
  NtpSynchronizer sync_s(s, stepped, NtpPathModel{}, sim::Rng(5),
                         /*discipline_frequency=*/false);
  poll_every(s, sync_d, 16 * sim::kSecond);
  poll_every(s, sync_s, 16 * sim::kSecond);
  s.run_until(20 * sim::kMinute);
  // The oscillator error itself has been driven toward zero...
  EXPECT_LT(std::abs(disciplined.drift_ppm()), 15.0);
  EXPECT_NEAR(stepped.drift_ppm(), 150.0, 1e-9);
  // ...so mid-poll-interval the disciplined clock is much closer to true
  // time: 150 ppm x 8 s = 1.2 ms of undisciplined wander.
  s.run_until(s.now() + 8 * sim::kSecond);
  EXPECT_LT(std::abs(disciplined.offset_error()),
            std::abs(stepped.offset_error()));
}

TEST(ClusterTimeServiceTest, SyncAllAchievesMillisecondSkew) {
  sim::Simulation s;
  ClusterTimeService::Config cfg;
  ClusterTimeService svc(s, 26, cfg, sim::Rng(7));
  // Before sync, initial offsets are tens of milliseconds.
  EXPECT_GT(svc.max_pairwise_skew(), 10 * sim::kMillisecond);
  svc.sync_all();
  // After sync: "within a few milliseconds" (paper §3.1 / Mills).
  EXPECT_LT(svc.max_pairwise_skew(), 5 * sim::kMillisecond);
  const auto stats = svc.offset_error_stats();
  EXPECT_LT(stats.mean(), 2.0);  // mean |error| in ms
}

TEST(ClusterTimeServiceTest, SkewReGrowsWithDriftThenPeriodicHolds) {
  sim::Simulation s;
  ClusterTimeService::Config cfg;
  cfg.drift_ppm_stddev = 100.0;
  ClusterTimeService svc(s, 8, cfg, sim::Rng(9));
  svc.sync_all();
  const auto just_synced = svc.max_pairwise_skew();
  s.run_until(30 * sim::kMinute);
  EXPECT_GT(svc.max_pairwise_skew(), just_synced);

  ClusterTimeService svc2(s, 8, cfg, sim::Rng(9));
  svc2.start_periodic();
  s.run_until(s.now() + 30 * sim::kMinute);
  EXPECT_LT(svc2.max_pairwise_skew(), 10 * sim::kMillisecond);
}

class PeriodicTickTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PeriodicTickTest, OneEventPerRoom) {
  sim::Simulation s;
  ClusterTimeService svc(s, GetParam(), {}, sim::Rng(11));
  const std::size_t before = s.pending();
  svc.start_periodic();
  EXPECT_EQ(s.pending(), before + 1);
  for (std::size_t h = 0; h < svc.size(); ++h) {
    EXPECT_EQ(svc.synchronizer(h).polls(), 1u) << "host " << h;
  }
}

TEST_P(PeriodicTickTest, MatchesPerHostPollsInHostOrder) {
  // The tick against a reference that polls each host from its own
  // foreground event, in host order, at the same instants.
  const std::size_t hosts = GetParam();
  ClusterTimeService::Config cfg;
  cfg.drift_ppm_stddev = 100.0;
  constexpr int kIntervals = 12;
  const sim::Time end = kIntervals * ClusterTimeService::kPollInterval;

  sim::Simulation s;
  ClusterTimeService svc(s, hosts, cfg, sim::Rng(21));
  svc.start_periodic();
  s.run_until(end);

  sim::Simulation ref_sim;
  ClusterTimeService ref(ref_sim, hosts, cfg, sim::Rng(21));
  for (int k = 0; k <= kIntervals; ++k) {
    for (std::size_t h = 0; h < hosts; ++h) {
      ref_sim.schedule_at(k * ClusterTimeService::kPollInterval,
                          [&ref, h] { ref.synchronizer(h).sync_once(); });
    }
  }
  ref_sim.run_until(end);

  for (std::size_t h = 0; h < hosts; ++h) {
    EXPECT_EQ(svc.clock(h).offset_error(), ref.clock(h).offset_error())
        << "host " << h;
    // Bit-identical, not merely close: the same draws in the same order.
    EXPECT_EQ(svc.clock(h).drift_ppm(), ref.clock(h).drift_ppm())
        << "host " << h;
    EXPECT_EQ(svc.synchronizer(h).polls(), kIntervals + 1u) << "host " << h;
    EXPECT_EQ(svc.synchronizer(h).polls(), ref.synchronizer(h).polls())
        << "host " << h;
  }
}

TEST_P(PeriodicTickTest, TickNeverHoldsTheSimulationOpen) {
  sim::Simulation s;
  ClusterTimeService svc(s, GetParam(), {}, sim::Rng(13));
  svc.start_periodic();
  EXPECT_EQ(s.pending_foreground(), 0u);
  // The limit stops a foreground tick from re-arming forever.
  EXPECT_EQ(s.run(/*limit=*/100), 0u);
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Hosts, PeriodicTickTest,
                         ::testing::Values(1, 8, 64));

class TimeServiceSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TimeServiceSweep, SkewBoundHoldsAtEveryScale) {
  sim::Simulation s;
  ClusterTimeService svc(s, GetParam(), {}, sim::Rng(31 + GetParam()));
  svc.sync_all();
  EXPECT_LT(svc.max_pairwise_skew(), 8 * sim::kMillisecond);
}

INSTANTIATE_TEST_SUITE_P(Scales, TimeServiceSweep,
                         ::testing::Values(1, 2, 8, 13, 26, 64, 256));

}  // namespace
}  // namespace dvc::clocksync
