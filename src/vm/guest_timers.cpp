#include "vm/guest_timers.hpp"

#include <optional>
#include <utility>

namespace dvc::vm {

GuestTimerId GuestTimerTable::add(sim::Duration delay, sim::Callback fn,
                                  bool armed) {
  Entry& e = entries_.open(
      {.remaining = delay < 0 ? 0 : delay, .fn = std::move(fn)});
  if (armed) arm(e);
  return e.id;
}

bool GuestTimerTable::cancel(GuestTimerId id) {
  const std::optional<Entry> e = entries_.take(id);
  if (!e) return false;
  if (e->event != sim::kInvalidEvent) sim_->cancel(e->event);
  return true;
}

sim::Duration GuestTimerTable::remaining(GuestTimerId id) const {
  const Entry* e = entries_.find(id);
  if (e == nullptr) return 0;
  if (e->event == sim::kInvalidEvent) return e->remaining;
  const sim::Duration rem = e->due_at - sim_->now();
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

void GuestTimerTable::arm(Entry& e) {
  e.due_at = sim_->now() + e.remaining;
  const GuestTimerId id = e.id;
  const auto expiry = [this, id] { fire(id); };
  static_assert(sim::Simulation::stores_inline<decltype(expiry)>);
  e.event = sim_->schedule_after(e.remaining, expiry);
}

void GuestTimerTable::fire(GuestTimerId id) {
  if (std::optional<Entry> e = entries_.take(id)) e->fn();
}

}  // namespace dvc::vm
