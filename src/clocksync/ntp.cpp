#include "clocksync/ntp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

namespace dvc::clocksync {

NtpSample NtpSynchronizer::measure_once() {
  // Four-timestamp exchange against the true-time server. The exchange is
  // modelled as instantaneous in simulated time (a poll burst is tiny
  // compared to drift timescales); the *sampled* delays still shape the
  // measurement exactly as a real wire would.
  const sim::Duration d_fwd =
      path_.one_way_mean + rng_.exponential_duration(path_.one_way_jitter);
  const sim::Duration d_back =
      path_.one_way_mean + rng_.exponential_duration(path_.one_way_jitter);

  const sim::Time true_now = sim_->now();
  const sim::Time t0 = clock_->to_local(true_now);            // client send
  const sim::Time t1 = true_now + d_fwd;                      // server recv
  const sim::Time t2 = t1;                                    // server send
  const sim::Time t3 = clock_->to_local(true_now + d_fwd + d_back);

  NtpSample s;
  // offset = ((t1 - t0) + (t2 - t3)) / 2; positive means client is behind.
  s.measured_offset = ((t1 - t0) + (t2 - t3)) / 2;
  s.round_trip = (t3 - t0) - (t2 - t1);
  return s;
}

NtpSample NtpSynchronizer::sync_once() {
  NtpSample best;
  best.round_trip = std::numeric_limits<sim::Duration>::max();
  // Exchanges per poll burst (ntpd's clock filter keeps the last 8).
  constexpr int kSamplesPerPoll = 8;
  for (int i = 0; i < kSamplesPerPoll; ++i) {
    const NtpSample s = measure_once();
    if (s.round_trip < best.round_trip) best = s;
  }
  // FLL discipline: the phase error accumulated since the previous poll
  // (whose phase we zeroed) estimates the frequency error. Correct half
  // of it per poll — measurement noise makes a full correction unstable.
  if (discipline_frequency_ && have_prior_poll_) {
    const sim::Duration elapsed = sim_->now() - last_poll_at_;
    if (elapsed > 0) {
      // measured_offset > 0 means we ran SLOW since the last poll, so the
      // corrective frequency adjustment has the same sign as the offset.
      const double correction_ppm =
          static_cast<double>(best.measured_offset) /
          static_cast<double>(elapsed) * 1e6;
      clock_->apply_frequency_correction(0.5 * correction_ppm);
    }
  }
  clock_->apply_correction(best.measured_offset);
  last_poll_at_ = sim_->now();
  have_prior_poll_ = true;
  ++polls_;
  corrections_.add(std::abs(sim::to_milliseconds(best.measured_offset)));
  return best;
}

ClusterTimeService::ClusterTimeService(sim::Simulation& sim, std::size_t hosts,
                                       Config cfg, sim::Rng rng)
    : sim_(&sim) {
  clocks_.reserve(hosts);
  syncs_.reserve(hosts);
  for (std::size_t h = 0; h < hosts; ++h) {
    sim::Rng host_rng = rng.fork(h + 1);
    const auto offset = static_cast<sim::Duration>(host_rng.normal(
        0.0, static_cast<double>(cfg.initial_offset_stddev)));
    const double drift = host_rng.normal(0.0, cfg.drift_ppm_stddev);
    clocks_.push_back(std::make_unique<HostClock>(sim, offset, drift));
    syncs_.push_back(std::make_unique<NtpSynchronizer>(
        sim, *clocks_.back(), NtpPathModel{}, host_rng.fork(0xC10C)));
  }
}

void ClusterTimeService::sync_all() {
  for (auto& s : syncs_) s->sync_once();
}

void ClusterTimeService::start_periodic() {
  if (!syncs_.empty()) poll_tick();
}

void ClusterTimeService::poll_tick() {
  sync_all();
  // Housekeeping: polling must never keep the simulation alive by itself.
  sim_->schedule_daemon_after(kPollInterval, [this] { poll_tick(); });
}

sim::Duration ClusterTimeService::max_pairwise_skew() const {
  sim::Duration lo = std::numeric_limits<sim::Duration>::max();
  sim::Duration hi = std::numeric_limits<sim::Duration>::min();
  for (const auto& c : clocks_) {
    const sim::Duration e = c->offset_error();
    lo = std::min(lo, e);
    hi = std::max(hi, e);
  }
  return clocks_.empty() ? 0 : hi - lo;
}

sim::SummaryStats ClusterTimeService::offset_error_stats() const {
  sim::SummaryStats st(/*keep_samples=*/true);
  for (const auto& c : clocks_) {
    st.add(std::abs(sim::to_milliseconds(c->offset_error())));
  }
  return st;
}

}  // namespace dvc::clocksync
