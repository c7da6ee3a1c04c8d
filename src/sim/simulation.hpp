#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"

namespace dvc::sim {

/// Identifier of a scheduled event; usable to cancel it before it fires.
/// Encodes `seq << 24 | slot`: the event's insertion sequence number and
/// the kernel slot holding its closure (see Simulation).
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEvent = 0;

class Simulation;

/// A re-armable one-shot timer owned by its user, its callback bound once
/// (the retransmission timer of a transport endpoint). Arming an armed
/// timer moves it, as a cancel plus a fresh foreground schedule_at would;
/// it fires in the same order such an event would. The destructor
/// disarms it, and the callback may re-arm or destroy its own timer (the
/// kernel does not touch a timer once it has invoked it). The Simulation
/// must outlive its timers.
class Timer final {
 public:
  Timer(Simulation& sim, Callback fn) : sim_(&sim), fn_(std::move(fn)) {}
  ~Timer() { disarm(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re-)arms the timer to fire at `at` (clamped to now()).
  void arm_at(Time at);
  /// (Re-)arms the timer to fire `delay` ticks from now (negative delays
  /// clamp to zero).
  void arm_after(Duration delay);
  /// Cancels a pending firing; a no-op on a disarmed timer.
  void disarm();
  /// True from an arm until the timer fires or is disarmed.
  [[nodiscard]] bool armed() const noexcept {
    return seq_ != 0 || event_ != kInvalidEvent;
  }

 private:
  friend class Simulation;

  Simulation* sim_;
  Callback fn_;
  Time at_ = 0;            ///< deadline while in the list
  std::uint64_t seq_ = 0;  ///< nonzero while in the list
  EventId event_ = kInvalidEvent;  ///< heap event standing in for it
  Timer* prev_ = nullptr;
  Timer* next_ = nullptr;
};

/// Deterministic discrete-event simulation kernel.
///
/// Components schedule closures at absolute or relative simulated times; the
/// kernel fires them in (time, insertion-order) order, so two events at the
/// same tick run in the order they were scheduled. This total order plus
/// per-component `Rng` streams makes every run bit-for-bit reproducible.
///
/// Layout: closures live in a slot array (recycled through a free list),
/// each as one Callback: a trivially copyable closure of at most 16 bytes
/// (every `[this, id]` capture; stores_inline) inline, any other behind
/// one owning pointer, both fired through the same thunk. A 4-ary min-heap
/// orders only 16-byte `(at, order)` keys, where
/// `order = seq << 24 | slot`. The EventId is that `order`, so cancel()
/// finds its slot by index and checks the sequence number. Each slot
/// records where its key sits in the heap, so cancel() removes the key at
/// once (the last key fills the hole and sifts up or down) and releases
/// the slot and its closure before returning: the heap only ever holds
/// live events.
///
/// Armed Timers sit beside the heap in an intrusive FIFO list. An arm
/// draws its seq as a cancel plus schedule_at would, and joins the list
/// if its deadline is no earlier than the tail's, so the list's
/// `(at, seq)` keys never decrease and its head is its earliest timer.
/// An arm earlier than the tail but no earlier than the tail's
/// predecessor demotes the tail: the tail becomes a heap event under its
/// own `(at, seq)` key, and the new arm takes its place at the end of the
/// list. So one far-off deadline (a storage pool's next completion) does
/// not send every shorter arm after it to the heap. Any other arm becomes
/// an ordinary heap event. Each step fires the smaller of the heap top
/// and the list head, so events and timers fire in exactly the order one
/// heap would give them. pending() counts both.
class Simulation final {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// True if a closure of type `F` fires from its slot without
  /// allocating (Callback::stores_inline); hot call sites pin it.
  template <class F>
  static constexpr bool stores_inline = Callback::stores_inline<F>;

  /// Schedules `fn` (any `void()` callable) to run at absolute time `at`
  /// (clamped to `now()`).
  EventId schedule_at(Time at, Callback fn) {
    return claim(at, std::move(fn), /*daemon=*/false);
  }

  /// Schedules `fn` to run `delay` ticks from now (negative delays clamp
  /// to zero, i.e. "as soon as possible, after already-queued work").
  EventId schedule_after(Duration delay, Callback fn) {
    return claim(now_ + (delay < 0 ? 0 : delay), std::move(fn), false);
  }

  /// Daemon variants: background housekeeping that perpetually reschedules
  /// itself (NTP polling, failure processes, periodic checkpoints). Daemon
  /// events fire normally while foreground work exists, but they do not
  /// keep run() alive on their own — exactly like daemon threads.
  EventId schedule_daemon_at(Time at, Callback fn) {
    return claim(at, std::move(fn), /*daemon=*/true);
  }
  EventId schedule_daemon_after(Duration delay, Callback fn) {
    return claim(now_ + (delay < 0 ? 0 : delay), std::move(fn), true);
  }

  /// Cancels a pending event. Returns true if it had not yet fired; its
  /// key leaves the queue and its closure is destroyed before cancel
  /// returns. Cancelling an id that already fired (or was already
  /// cancelled) is a harmless no-op returning false — it cannot skew
  /// pending() or the foreground count.
  bool cancel(EventId id);

  /// Runs a single event. Returns false if the queue is empty.
  bool step();

  /// Runs until no *foreground* events remain (daemon events never hold
  /// the simulation open) or `limit` events have fired. Returns the
  /// number of events executed.
  std::uint64_t run(std::uint64_t limit =
                        std::numeric_limits<std::uint64_t>::max());

  /// Runs events with timestamps <= `until`, then sets now() to `until`
  /// (if the simulation did not already pass it). Returns events executed.
  std::uint64_t run_until(Time until);

  /// Number of events currently pending (daemons and armed timers
  /// included).
  [[nodiscard]] std::size_t pending() const noexcept {
    return heap_.size() + timers_listed_;
  }

  /// Number of pending non-daemon events (what keeps run() alive).
  [[nodiscard]] std::size_t pending_foreground() const noexcept {
    return foreground_pending_;
  }

  /// Total number of events executed since construction.
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Timer arms since construction, and those of them that sent a timer
  /// to the heap: either the arm itself (deadline earlier than the list's
  /// last two) or, by demotion, the list's tail. timer_demotions() counts
  /// the latter.
  [[nodiscard]] std::uint64_t timer_arms() const noexcept {
    return timer_arms_;
  }
  [[nodiscard]] std::uint64_t timer_fallbacks() const noexcept {
    return timer_fallbacks_;
  }
  [[nodiscard]] std::uint64_t timer_demotions() const noexcept {
    return timer_demotions_;
  }

 private:
  friend class Timer;

  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::size_t kArity = 4;

  /// Heap key. `order` is `seq << kSlotBits | slot`; `seq` grows with
  /// every schedule, so comparing `order` compares insertion order. That
  /// leaves 40 bits of `seq` (~1.1e12 schedules per Simulation) and 2^24
  /// slots for pending events (schedule throws past that).
  struct Key {
    Time at;
    std::uint64_t order;
  };
  [[nodiscard]] static bool before(const Key& a, const Key& b) noexcept {
    return a.at != b.at ? a.at < b.at : a.order < b.order;
  }
  /// Owner of one pending event's closure. A slot belongs to exactly one
  /// heap key from schedule until that key fires or is cancelled, then
  /// returns to the free list with its closure moved out.
  struct Slot {
    Callback fn;
    std::uint64_t seq = 0;  ///< live event's seq; 0 once fired/cancelled
    std::uint32_t pos = 0;  ///< index of the event's key in heap_
    bool daemon = false;
  };

  /// Takes a free slot, stores `fn` there, draws the event's seq and
  /// pushes its key.
  EventId claim(Time at, Callback&& fn, bool daemon);
  /// Pops the top key and runs its closure.
  void fire_top();
  /// True if the timer list's head fires before the heap's top.
  [[nodiscard]] bool timer_first() const noexcept {
    if (timers_head_ == nullptr) return false;
    if (heap_.empty()) return true;
    const Key& top = heap_.front();
    return timers_head_->at_ != top.at
               ? timers_head_->at_ < top.at
               : timers_head_->seq_ < top.order >> kSlotBits;
  }
  /// Unlinks the list's head timer and runs its callback.
  void fire_timer();
  void arm(Timer& t, Time at);
  /// Schedules the heap event that fires `t` when it is not in the list
  /// (inline: it captures only `t`).
  EventId schedule_firing(Timer& t, Time at);
  /// Moves the list's tail to the heap if an arm at `at` may then join the
  /// list in its place (no earlier than the tail's predecessor); returns
  /// whether it did. Out of line and cold: most arms join the list.
  [[gnu::cold, gnu::noinline]] bool demote_tail(Time at);
  void disarm(Timer& t);
  void unlink(Timer& t) noexcept;
  /// Writes `k` at heap index `i` and records the index in its slot.
  void place(std::size_t i, const Key& k) noexcept;
  /// Hole-based sifts: move `k` from the hole at `i` towards its place.
  void sift_up(std::size_t i, Key k) noexcept;
  void sift_down(std::size_t i, Key k) noexcept;
  /// Removes the key at heap index `i`, keeping the heap ordered.
  void remove_at(std::size_t i) noexcept;
  /// Frees a slot whose key has left the heap and returns its closure:
  /// the caller destroys it once the kernel is consistent, since a boxed
  /// closure's destructor may re-enter the kernel (and grow slots_).
  [[gnu::always_inline]] inline Callback vacate(std::uint32_t slot) noexcept;

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t foreground_pending_ = 0;
  std::vector<Key> heap_;  ///< 4-ary min-heap on (at, order)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// Armed timers in (at, seq) order, linked through Timer::prev_/next_.
  Timer* timers_head_ = nullptr;
  Timer* timers_tail_ = nullptr;
  std::size_t timers_listed_ = 0;
  std::uint64_t timer_arms_ = 0;
  std::uint64_t timer_fallbacks_ = 0;
  std::uint64_t timer_demotions_ = 0;
};

inline void Timer::arm_at(Time at) { sim_->arm(*this, at); }
inline void Timer::arm_after(Duration delay) {
  sim_->arm(*this, sim_->now() + (delay < 0 ? 0 : delay));
}
inline void Timer::disarm() {
  if (armed()) sim_->disarm(*this);
}

}  // namespace dvc::sim
