#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

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
  Timer(Simulation& sim, std::function<void()> fn)
      : sim_(&sim), fn_(std::move(fn)) {}
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
  std::function<void()> fn_;
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
/// Layout: closures live in a slot array (recycled through a free list).
/// A slot holds its closure in one of two forms. A trivially copyable
/// closure of at most 16 bytes (every `[this, id]` capture) is built in
/// the slot's inline store beside a thunk that calls it: it fires through
/// one indirect call, and no `std::function` is built for it
/// (stores_inline). Any other closure goes into the slot's
/// `std::function`. A 4-ary min-heap orders only 16-byte `(at, order)`
/// keys, where `order = seq << 24 | slot`. The EventId is that `order`, so cancel()
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

  /// Size of a slot's inline closure store.
  static constexpr std::size_t kInlineBytes = 16;

  /// True if a closure of type `F` is stored inline in its slot: it is
  /// trivially copyable and fits kInlineBytes. A hot call site pins its
  /// closure with `static_assert(Simulation::stores_inline<decltype(f)>)`,
  /// so a capture that grows fails the build instead of falling back to
  /// `std::function`.
  template <class F>
  static constexpr bool stores_inline =
      std::is_trivially_copyable_v<std::decay_t<F>> &&
      sizeof(std::decay_t<F>) <= kInlineBytes &&
      alignof(std::decay_t<F>) <= alignof(std::uint64_t);

  /// Schedules `fn` (any `void()` callable) to run at absolute time `at`
  /// (clamped to `now()`).
  template <class F>
  EventId schedule_at(Time at, F&& fn) {
    return schedule_as(at, std::forward<F>(fn), /*daemon=*/false);
  }

  /// Schedules `fn` to run `delay` ticks from now (negative delays clamp
  /// to zero, i.e. "as soon as possible, after already-queued work").
  template <class F>
  EventId schedule_after(Duration delay, F&& fn) {
    return schedule_as(now_ + (delay < 0 ? 0 : delay), std::forward<F>(fn),
                       /*daemon=*/false);
  }

  /// Daemon variants: background housekeeping that perpetually reschedules
  /// itself (NTP polling, failure processes, periodic checkpoints). Daemon
  /// events fire normally while foreground work exists, but they do not
  /// keep run() alive on their own — exactly like daemon threads.
  template <class F>
  EventId schedule_daemon_at(Time at, F&& fn) {
    return schedule_as(at, std::forward<F>(fn), /*daemon=*/true);
  }
  template <class F>
  EventId schedule_daemon_after(Duration delay, F&& fn) {
    return schedule_as(now_ + (delay < 0 ? 0 : delay), std::forward<F>(fn),
                       /*daemon=*/true);
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
  /// Calls the closure whose bytes start at its argument.
  using Thunk = void (*)(void*);
  template <class F>
  static void call_inline(void* bytes) {
    (*std::launder(static_cast<F*>(bytes)))();
  }

  /// Owner of one pending event's closure. A slot belongs to exactly one
  /// heap key from schedule until that key fires or is cancelled, then
  /// returns to the free list. While it is live, exactly one form holds
  /// the closure: `thunk` is set for an inline closure (in `bytes`, never
  /// destroyed: it is trivially copyable), otherwise `fn` holds it.
  struct Slot {
    alignas(std::uint64_t) unsigned char bytes[kInlineBytes] = {};
    Thunk thunk = nullptr;
    std::function<void()> fn;
    std::uint64_t seq = 0;  ///< live event's seq; 0 once fired/cancelled
    std::uint32_t pos = 0;  ///< index of the event's key in heap_
    bool daemon = false;
  };

  /// Builds `fn` in the slot claim() hands out, inline where it can.
  template <class F>
  EventId schedule_as(Time at, F&& fn, bool daemon) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_v<Fn&>, "an event takes no arguments");
    if constexpr (stores_inline<Fn>) {
      const EventId id = claim(at, daemon);
      Slot& s = slots_[id & kSlotMask];
      ::new (static_cast<void*>(s.bytes)) Fn(std::forward<F>(fn));
      s.thunk = &call_inline<Fn>;
      return id;
    } else {
      // Built before the slot is claimed: this may throw (or allocate).
      std::function<void()> boxed(std::forward<F>(fn));
      const EventId id = claim(at, daemon);
      slots_[id & kSlotMask].fn = std::move(boxed);
      return id;
    }
  }
  /// Takes a free slot, draws the event's seq and pushes its key: the
  /// event is pending once its closure is stored in the slot.
  EventId claim(Time at, bool daemon);
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
  /// Frees a slot whose key has left the heap; an inline closure's thunk
  /// is cleared. A `std::function` closure must have been moved out first
  /// (take_fn): the caller destroys it once the kernel is consistent,
  /// since its destructor may re-enter the kernel (and grow slots_).
  void vacate(std::uint32_t slot) noexcept;
  /// Moves a `std::function` closure out of its slot, leaving it empty.
  std::function<void()> take_fn(Slot& s) noexcept;

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
