#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "sim/time.hpp"

namespace dvc::sim {

/// Identifier of a scheduled event; usable to cancel it before it fires.
/// Encodes `seq << 24 | slot`: the event's insertion sequence number and
/// the kernel slot holding its closure (see Simulation).
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEvent = 0;

/// Deterministic discrete-event simulation kernel.
///
/// Components schedule closures at absolute or relative simulated times; the
/// kernel fires them in (time, insertion-order) order, so two events at the
/// same tick run in the order they were scheduled. This total order plus
/// per-component `Rng` streams makes every run bit-for-bit reproducible.
///
/// Layout: closures live in a slot array (recycled through a free list);
/// a 4-ary min-heap orders only 16-byte `(at, order)` keys, where
/// `order = seq << 24 | slot`. The EventId is that `order`, so cancel()
/// finds its slot by index and checks the sequence number. Each slot
/// records where its key sits in the heap, so cancel() removes the key at
/// once (the last key fills the hole and sifts up or down) and releases
/// the slot and its closure before returning: the heap only ever holds
/// live events, and pending() is its size.
class Simulation final {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `fn` to run at absolute time `at` (clamped to `now()`).
  EventId schedule_at(Time at, std::function<void()> fn);

  /// Schedules `fn` to run `delay` ticks from now (negative delays clamp
  /// to zero, i.e. "as soon as possible, after already-queued work").
  EventId schedule_after(Duration delay, std::function<void()> fn) {
    return schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
  }

  /// Daemon variants: background housekeeping that perpetually reschedules
  /// itself (NTP polling, failure processes, periodic checkpoints). Daemon
  /// events fire normally while foreground work exists, but they do not
  /// keep run() alive on their own — exactly like daemon threads.
  EventId schedule_daemon_at(Time at, std::function<void()> fn);
  EventId schedule_daemon_after(Duration delay, std::function<void()> fn) {
    return schedule_daemon_at(now_ + (delay < 0 ? 0 : delay),
                              std::move(fn));
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

  /// Number of events currently pending (daemons included).
  [[nodiscard]] std::size_t pending() const noexcept {
    return heap_.size();
  }

  /// Number of pending non-daemon events (what keeps run() alive).
  [[nodiscard]] std::size_t pending_foreground() const noexcept {
    return foreground_pending_;
  }

  /// Total number of events executed since construction.
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

 private:
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
  /// returns to the free list.
  struct Slot {
    std::function<void()> fn;
    std::uint64_t seq = 0;  ///< live event's seq; 0 once fired/cancelled
    std::uint32_t pos = 0;  ///< index of the event's key in heap_
    bool daemon = false;
  };

  EventId schedule_impl(Time at, std::function<void()> fn, bool daemon);
  /// Pops the top key and runs its closure.
  void fire_top();
  /// Writes `k` at heap index `i` and records the index in its slot.
  void place(std::size_t i, const Key& k) noexcept;
  /// Hole-based sifts: move `k` from the hole at `i` towards its place.
  void sift_up(std::size_t i, Key k) noexcept;
  void sift_down(std::size_t i, Key k) noexcept;
  /// Removes the key at heap index `i`, keeping the heap ordered.
  void remove_at(std::size_t i) noexcept;
  /// Frees a slot whose key has left the heap and hands back its closure.
  /// The caller destroys the closure after the kernel is consistent, since
  /// its destructor may re-enter the kernel (and reallocate slots_).
  std::function<void()> vacate(std::uint32_t slot);

  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t foreground_pending_ = 0;
  std::vector<Key> heap_;  ///< 4-ary min-heap on (at, order)
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace dvc::sim
