#include "vm/guest_timers.hpp"

#include <algorithm>
#include <utility>

namespace dvc::vm {

GuestTimerId GuestTimerTable::add(sim::Duration delay, sim::Callback fn,
                                  bool armed) {
  Entry& e = entries_.emplace_back(Entry{next_id_++, delay < 0 ? 0 : delay,
                                         0, sim::kInvalidEvent,
                                         std::move(fn)});
  if (armed) arm(e);
  return e.id;
}

bool GuestTimerTable::cancel(GuestTimerId id) {
  const std::size_t i = index_of(id);
  if (i == entries_.size()) return false;
  if (entries_[i].event != sim::kInvalidEvent) {
    sim_->cancel(entries_[i].event);
  }
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
  return true;
}

sim::Duration GuestTimerTable::remaining(GuestTimerId id) const {
  const std::size_t i = index_of(id);
  if (i == entries_.size()) return 0;
  const Entry& e = entries_[i];
  if (e.event == sim::kInvalidEvent) return e.remaining;
  const sim::Duration rem = e.due_at - sim_->now();
  return rem < 0 ? 0 : rem;
}

void GuestTimerTable::freeze() {
  for (Entry& e : entries_) {
    if (e.event == sim::kInvalidEvent) continue;
    sim_->cancel(e.event);
    e.event = sim::kInvalidEvent;
    e.remaining = e.due_at - sim_->now();
    if (e.remaining < 0) e.remaining = 0;
  }
}

void GuestTimerTable::thaw() {
  for (Entry& e : entries_) {
    if (e.event == sim::kInvalidEvent) arm(e);
  }
}

void GuestTimerTable::drop() {
  for (const Entry& e : entries_) {
    if (e.event != sim::kInvalidEvent) sim_->cancel(e.event);
  }
  entries_.clear();
}

std::size_t GuestTimerTable::index_of(GuestTimerId id) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), id,
      [](const Entry& e, GuestTimerId key) { return e.id < key; });
  return it != entries_.end() && it->id == id
             ? static_cast<std::size_t>(it - entries_.begin())
             : entries_.size();
}

void GuestTimerTable::arm(Entry& e) {
  e.due_at = sim_->now() + e.remaining;
  const GuestTimerId id = e.id;
  const auto expiry = [this, id] { fire(id); };
  static_assert(sim::Simulation::stores_inline<decltype(expiry)>);
  e.event = sim_->schedule_after(e.remaining, expiry);
}

void GuestTimerTable::fire(GuestTimerId id) {
  const std::size_t i = index_of(id);
  if (i == entries_.size()) return;
  sim::Callback fn = std::move(entries_[i].fn);
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
  fn();
}

}  // namespace dvc::vm
