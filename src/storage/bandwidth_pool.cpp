#include "storage/bandwidth_pool.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
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
  const TransferId id = next_id_++;
  transfers_.push_back(Transfer{id, static_cast<double>(bytes),
                                std::move(on_complete), bytes, sim_->now()});
  if (bytes_c_ != nullptr) {
    bytes_c_->add(bytes);
    active_g_->set(static_cast<double>(transfers_.size()));
  }
  reschedule();
  return id;
}

bool BandwidthPool::cancel(TransferId id) {
  settle();
  const auto it = std::lower_bound(
      transfers_.begin(), transfers_.end(), id,
      [](const Transfer& t, TransferId want) { return t.id < want; });
  if (it == transfers_.end() || it->id != id) return false;
  // Destroyed on return, once the pool is consistent again.
  const sim::Callback dropped = std::move(it->on_complete);
  transfers_.erase(it);
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
  timer_.arm_after(static_cast<sim::Duration>(
      std::ceil(min_remaining / per_transfer_bps * sim::kSecond)));
}

void BandwidthPool::drain() {
  settle();
  // Collect and fire every transfer that has drained, in id order,
  // compacting the survivors in place. A completion callback may start
  // or cancel transfers; firing after the sweep keeps it stable. The
  // list borrows the member scratch's capacity while it fires.
  std::vector<sim::Callback> done = std::move(done_);
  done.clear();
  auto kept = transfers_.begin();
  for (Transfer& t : transfers_) {
    if (t.remaining_bytes <= 0.5) {  // sub-byte fluid residue
      if (transfers_c_ != nullptr) {
        transfers_c_->add();
        const sim::Duration actual = sim_->now() - t.started;
        transfer_h_->observe(sim::to_seconds(actual));
        const sim::Duration alone = uncontended_time(t.bytes);
        wait_h_->observe(sim::to_seconds(
            actual > alone ? actual - alone : sim::Duration{0}));
      }
      done.push_back(std::move(t.on_complete));
      ++completed_;
    } else {
      if (&*kept != &t) *kept = std::move(t);
      ++kept;
    }
  }
  transfers_.erase(kept, transfers_.end());
  if (active_g_ != nullptr) {
    active_g_->set(static_cast<double>(transfers_.size()));
  }
  reschedule();
  for (auto& fn : done) {
    if (fn) fn();
  }
  done.clear();
  done_ = std::move(done);
}

}  // namespace dvc::storage
