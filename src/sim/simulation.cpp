#include "sim/simulation.hpp"

#include <stdexcept>
#include <utility>

namespace dvc::sim {

EventId Simulation::claim(Time at, Callback&& fn, bool daemon) {
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
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Key{at < now_ ? now_ : at, order});
  if (!daemon) ++foreground_pending_;
  return order;
}

bool Simulation::cancel(EventId id) {
  const std::uint64_t seq = id >> kSlotBits;
  const std::uint64_t slot = id & kSlotMask;
  // seq 0 is never issued, so kInvalidEvent and fired/cancelled slots
  // (seq reset to 0) can never match.
  if (seq == 0 || slot >= slots_.size() || slots_[slot].seq != seq) {
    return false;  // never scheduled, fired, cancelled, or stale
  }
  remove_at(slots_[slot].pos);
  // The closure dies on return, once the heap and the slot are consistent
  // again: its destructor may schedule or cancel.
  const Callback fn = vacate(static_cast<std::uint32_t>(slot));
  return true;
}

void Simulation::place(std::size_t i, const Key& k) noexcept {
  heap_[i] = k;
  slots_[k.order & kSlotMask].pos = static_cast<std::uint32_t>(i);
}

void Simulation::sift_up(std::size_t i, Key k) noexcept {
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(k, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, k);
}

void Simulation::sift_down(std::size_t i, Key k) noexcept {
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], k)) break;
    place(i, heap_[best]);
    i = best;
  }
  place(i, k);
}

void Simulation::remove_at(std::size_t i) noexcept {
  const Key last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // the removed key was the last one
  if (i > 0 && before(last, heap_[(i - 1) / kArity])) {
    sift_up(i, last);
  } else {
    sift_down(i, last);
  }
}

Callback Simulation::vacate(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.seq = 0;
  if (!s.daemon) --foreground_pending_;
  free_slots_.push_back(slot);
  return std::move(s.fn);
}

void Simulation::fire_top() {
  const Key k = heap_.front();
  remove_at(0);
  now_ = k.at;
  ++executed_;
  // The closure runs moved out of its slot: the slot is free once it
  // starts, and the closure may grow (and move) slots_.
  Callback fn = vacate(static_cast<std::uint32_t>(k.order & kSlotMask));
  fn();
}

void Simulation::arm(Timer& t, Time at) {
  disarm(t);
  if (at < now_) at = now_;
  ++timer_arms_;
  if (timers_tail_ != nullptr && at < timers_tail_->at_ &&
      !demote_tail(at)) {
    // Joining behind an earlier-firing tail would break the list's order.
    ++timer_fallbacks_;
    t.event_ = schedule_firing(t, at);
    return;
  }
  t.at_ = at;
  t.seq_ = next_seq_++;
  t.prev_ = timers_tail_;
  t.next_ = nullptr;
  (timers_tail_ != nullptr ? timers_tail_->next_ : timers_head_) = &t;
  timers_tail_ = &t;
  ++timers_listed_;
  ++foreground_pending_;
}

EventId Simulation::schedule_firing(Timer& t, Time at) {
  auto firing = [timer = &t] {
    timer->event_ = kInvalidEvent;
    timer->fn_();
  };
  static_assert(stores_inline<decltype(firing)>);
  return claim(at, firing, /*daemon=*/false);
}

bool Simulation::demote_tail(Time at) {
  Timer& tail = *timers_tail_;
  if (tail.prev_ != nullptr && at < tail.prev_->at_) return false;
  // The new arm's key, (at, next_seq_), falls between the predecessor's
  // and the tail's, so it may take the tail's place once the tail moves
  // to the heap. The tail keeps its own (at, seq) key there: claim draws
  // that seq again, and next_seq_ goes back to where it was.
  ++timer_fallbacks_;
  ++timer_demotions_;
  const std::uint64_t next = next_seq_;
  next_seq_ = tail.seq_;
  unlink(tail);
  tail.event_ = schedule_firing(tail, tail.at_);
  next_seq_ = next;
  return true;
}

void Simulation::disarm(Timer& t) {
  if (t.seq_ != 0) {
    unlink(t);
  } else if (t.event_ != kInvalidEvent) {
    const EventId id = t.event_;
    t.event_ = kInvalidEvent;
    cancel(id);
  }
}

void Simulation::unlink(Timer& t) noexcept {
  (t.prev_ != nullptr ? t.prev_->next_ : timers_head_) = t.next_;
  (t.next_ != nullptr ? t.next_->prev_ : timers_tail_) = t.prev_;
  t.seq_ = 0;
  --timers_listed_;
  --foreground_pending_;
}

void Simulation::fire_timer() {
  Timer& t = *timers_head_;
  unlink(t);
  now_ = t.at_;
  ++executed_;
  t.fn_();  // may re-arm or destroy `t`: nothing touches it afterwards
}

bool Simulation::step() {
  if (timer_first()) {
    fire_timer();
  } else if (!heap_.empty()) {
    fire_top();
  } else {
    return false;
  }
  return true;
}

std::uint64_t Simulation::run(std::uint64_t limit) {
  std::uint64_t n = 0;
  while (n < limit && foreground_pending_ > 0 && step()) ++n;
  return n;
}

std::uint64_t Simulation::run_until(Time until) {
  std::uint64_t n = 0;
  for (;; ++n) {
    if (timer_first()) {
      if (timers_head_->at_ > until) break;
      fire_timer();
    } else if (!heap_.empty() && heap_.front().at <= until) {
      fire_top();
    } else {
      break;
    }
  }
  if (now_ < until) now_ = until;
  return n;
}

}  // namespace dvc::sim
