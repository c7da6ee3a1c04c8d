#include "storage/bandwidth_pool.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace dvc::storage {

void BandwidthPool::set_metrics(telemetry::MetricsRegistry* m,
                                std::string_view prefix) {
  if (m == nullptr) {
    bytes_c_ = transfers_c_ = nullptr;
    transfer_h_ = wait_h_ = nullptr;
    active_g_ = nullptr;
    return;
  }
  const std::string p(prefix);
  bytes_c_ = &m->counter(p + ".bytes");
  transfers_c_ = &m->counter(p + ".transfers");
  transfer_h_ = &m->histogram(p + ".transfer_s");
  wait_h_ = &m->histogram(p + ".contention_wait_s");
  active_g_ = &m->gauge(p + ".active");
}

TransferId BandwidthPool::start(std::uint64_t bytes,
                                sim::Callback on_complete) {
  settle();
  const TransferId id = transfers_.open(
      {.remaining_bytes = static_cast<double>(bytes),
       .on_complete = std::move(on_complete), .bytes = bytes,
       .started = sim_->now()}).id;
  if (bytes_c_ != nullptr) {
    bytes_c_->add(bytes);
    active_g_->set(static_cast<double>(transfers_.size()));
  }
  reschedule();
  return id;
}

bool BandwidthPool::cancel(TransferId id) {
  settle();
  // Destroyed on return, once the pool is consistent again.
  const std::optional<Transfer> dropped = transfers_.take(id);
  if (!dropped) return false;
  if (active_g_ != nullptr) {
    active_g_->set(static_cast<double>(transfers_.size()));
  }
  reschedule();
  return true;
}

void BandwidthPool::set_capacity(double bytes_per_second) {
  if (bytes_per_second <= 0.0 || bytes_per_second == bps_) return;
  settle();  // bank progress at the old rate first
  bps_ = bytes_per_second;
  reschedule();
}

void BandwidthPool::settle() {
  const sim::Time now = sim_->now();
  if (!transfers_.empty() && now > last_settle_) {
    const double progress = sim::to_seconds(now - last_settle_) * bps_ /
                            static_cast<double>(transfers_.size());
    for (Transfer& t : transfers_) {
      t.remaining_bytes -= progress;
      if (t.remaining_bytes < 0.0) t.remaining_bytes = 0.0;
    }
  }
  last_settle_ = now;
}

void BandwidthPool::reschedule() {
  if (transfers_.empty()) {
    timer_.disarm();
    return;
  }
  double min_remaining = std::numeric_limits<double>::max();
  for (const Transfer& t : transfers_) {
    min_remaining = std::min(min_remaining, t.remaining_bytes);
  }
  const double per_transfer_bps =
      bps_ / static_cast<double>(transfers_.size());
  timer_.arm_after(
      sim::ceil_ticks(min_remaining / per_transfer_bps * sim::kSecond));
}

void BandwidthPool::drain() {
  settle();
  // Collect and fire every transfer that has drained, in id order. A
  // completion callback may start or cancel transfers; firing after the
  // sweep keeps it stable.
  transfers_.erase_if([this](Transfer& t) {
    if (t.remaining_bytes > 0.5) return false;  // sub-byte fluid residue
    if (transfers_c_ != nullptr) {
      transfers_c_->add();
      const sim::Duration actual = sim_->now() - t.started;
      transfer_h_->observe(sim::to_seconds(actual));
      const sim::Duration alone = uncontended_time(t.bytes);
      wait_h_->observe(sim::to_seconds(
          actual > alone ? actual - alone : sim::Duration{0}));
    }
    done_.push_back(std::move(t.on_complete));
    ++completed_;
    return true;
  });
  if (active_g_ != nullptr) {
    active_g_->set(static_cast<double>(transfers_.size()));
  }
  reschedule();
  // The callbacks fire from a list that borrows the scratch's capacity.
  std::vector<sim::Callback> done = std::move(done_);
  for (auto& fn : done) {
    if (fn) fn();
  }
  done.clear();
  done_ = std::move(done);
}

}  // namespace dvc::storage
