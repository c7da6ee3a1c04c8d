#include "sim/simulation.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dvc::sim {

EventId Simulation::schedule_impl(Time at, std::function<void()> fn,
                                  bool daemon) {
  if (free_slots_.empty()) {
    if (slots_.size() > kSlotMask) {
      throw std::length_error("Simulation: too many pending events");
    }
    free_slots_.push_back(static_cast<std::uint32_t>(slots_.size()));
    slots_.emplace_back();
  }
  const std::uint32_t slot = free_slots_.back();
  free_slots_.pop_back();
  const std::uint64_t seq = next_seq_++;
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.seq = seq;
  s.daemon = daemon;
  const EventId order = seq << kSlotBits | slot;
  heap_.push_back(Key{at < now_ ? now_ : at, order});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  if (!daemon) ++foreground_pending_;
  return order;
}

EventId Simulation::schedule_at(Time at, std::function<void()> fn) {
  return schedule_impl(at, std::move(fn), /*daemon=*/false);
}

EventId Simulation::schedule_daemon_at(Time at, std::function<void()> fn) {
  return schedule_impl(at, std::move(fn), /*daemon=*/true);
}

bool Simulation::cancel(EventId id) {
  const std::uint64_t seq = id >> kSlotBits;
  const std::uint64_t slot = id & kSlotMask;
  // seq 0 is never issued, so kInvalidEvent and fired/cancelled slots
  // (seq reset to 0) can never match.
  if (seq == 0 || slot >= slots_.size() || slots_[slot].seq != seq) {
    return false;  // never scheduled, fired, cancelled, or stale
  }
  Slot& s = slots_[slot];
  s.seq = 0;
  --live_;
  if (!s.daemon) --foreground_pending_;
  // The key stays queued; skim() drops it (and frees the slot) at the top.
  return true;
}

void Simulation::pop_key() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

void Simulation::release(std::uint32_t slot) {
  // Move the closure out first: its destructor may re-enter the kernel
  // (schedule/cancel), which can reallocate slots_.
  const std::function<void()> dead = std::move(slots_[slot].fn);
  slots_[slot].fn = nullptr;
  free_slots_.push_back(slot);
}

bool Simulation::skim() {
  while (!heap_.empty()) {
    const std::uint64_t order = heap_.front().order;
    const auto slot = static_cast<std::uint32_t>(order & kSlotMask);
    if (slots_[slot].seq == order >> kSlotBits) return true;
    pop_key();
    release(slot);
  }
  return false;
}

void Simulation::fire_top() {
  const Key k = heap_.front();
  pop_key();
  const auto slot = static_cast<std::uint32_t>(k.order & kSlotMask);
  Slot& s = slots_[slot];
  const std::function<void()> fn = std::move(s.fn);
  s.fn = nullptr;
  s.seq = 0;
  --live_;
  if (!s.daemon) --foreground_pending_;
  free_slots_.push_back(slot);
  now_ = k.at;
  ++executed_;
  fn();
}

bool Simulation::step() {
  if (!skim()) return false;
  fire_top();
  return true;
}

std::uint64_t Simulation::run(std::uint64_t limit) {
  std::uint64_t n = 0;
  while (n < limit && foreground_pending_ > 0 && step()) ++n;
  return n;
}

std::uint64_t Simulation::run_until(Time until) {
  std::uint64_t n = 0;
  while (skim() && heap_.front().at <= until) {
    fire_top();
    ++n;
  }
  if (now_ < until) now_ = until;
  return n;
}

}  // namespace dvc::sim
