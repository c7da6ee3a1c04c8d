#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/id_table.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace dvc::sim {
namespace {

TEST(TimeTest, ConversionsRoundTrip) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.001), kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_milliseconds(kSecond), 1000.0);
  EXPECT_EQ(kSecond, 1000 * kMillisecond);
  EXPECT_EQ(kMinute, 60 * kSecond);
  EXPECT_EQ(kHour, 60 * kMinute);
}

TEST(TimeTest, CeilTicksMatchesCeil) {
  // 2^52 + 0.5 is not a double: it rounds to 2^52. 2^51 + 0.5 is one.
  const double two52 = 0x1.0p52;
  for (const double x :
       {0.0, 0.25, 1.0, 2.0, 1e9, 123456789.0, std::nextafter(0.0, 1.0),
        std::nextafter(1.0, 2.0), std::nextafter(1e9, 2e9),
        std::nextafter(123456789.0, 2e9), 0x1.0p51 + 0.5, two52 + 0.5,
        std::nextafter(two52, 2 * two52), 0x1.0p53,
        std::nextafter(0x1.0p63, 0.0)}) {
    EXPECT_EQ(ceil_ticks(x), static_cast<Duration>(std::ceil(x))) << x;
  }
  EXPECT_EQ(ceil_ticks(0.0), 0);
  EXPECT_EQ(ceil_ticks(std::nextafter(1.0, 2.0)), 2);
  EXPECT_EQ(ceil_ticks(0x1.0p51 + 0.5), (Duration{1} << 51) + 1);
  EXPECT_EQ(ceil_ticks(0x1.0p53), Duration{1} << 53);
}

TEST(SimulationTest, FiresInTimeOrder) {
  Simulation s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
  EXPECT_EQ(s.executed(), 3u);
}

TEST(SimulationTest, SameTimeFiresInInsertionOrder) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    s.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulationTest, ScheduleAfterAdvancesFromNow) {
  Simulation s;
  Time fired_at = -1;
  s.schedule_after(100, [&] {
    s.schedule_after(50, [&] { fired_at = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(SimulationTest, NegativeDelayClampsToNow) {
  Simulation s;
  Time fired_at = -1;
  s.schedule_after(100, [&] {
    s.schedule_after(-500, [&] { fired_at = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(SimulationTest, PastAbsoluteTimeClampsToNow) {
  Simulation s;
  Time fired_at = -1;
  s.schedule_at(100, [&] {
    s.schedule_at(10, [&] { fired_at = s.now(); });
  });
  s.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(SimulationTest, CancelPreventsExecution) {
  Simulation s;
  bool fired = false;
  const EventId id = s.schedule_at(10, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.executed(), 0u);
}

TEST(SimulationTest, CancelTwiceReturnsFalse) {
  Simulation s;
  const EventId id = s.schedule_at(10, [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
  EXPECT_FALSE(s.cancel(kInvalidEvent));
  EXPECT_FALSE(s.cancel(9999));  // never allocated
}

TEST(SimulationTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulation s;
  std::vector<Time> fired;
  s.schedule_at(10, [&] { fired.push_back(10); });
  s.schedule_at(20, [&] { fired.push_back(20); });
  s.schedule_at(30, [&] { fired.push_back(30); });
  const auto n = s.run_until(20);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, (std::vector<Time>{10, 20}));
  EXPECT_EQ(s.now(), 20);
  EXPECT_EQ(s.pending(), 1u);
  s.run_until(25);
  EXPECT_EQ(s.now(), 25);  // idle time still advances
  s.run();
  EXPECT_EQ(s.now(), 30);
}

TEST(SimulationTest, RunUntilSkipsCancelledHead) {
  Simulation s;
  bool late_fired = false;
  const EventId id = s.schedule_at(5, [] {});
  s.schedule_at(50, [&] { late_fired = true; });
  s.cancel(id);
  s.run_until(10);
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(s.pending(), 1u);
  s.run_until(60);
  EXPECT_TRUE(late_fired);
}

TEST(SimulationTest, RunWithLimitStopsEarly) {
  Simulation s;
  int count = 0;
  for (int i = 0; i < 10; ++i) s.schedule_at(i, [&] { ++count; });
  EXPECT_EQ(s.run(4), 4u);
  EXPECT_EQ(count, 4);
}

TEST(SimulationTest, EventsScheduledDuringRunAreExecuted) {
  Simulation s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.schedule_after(1, recurse);
  };
  s.schedule_at(0, recurse);
  s.run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), 99);
}

TEST(SimulationTest, DaemonEventsDoNotKeepRunAlive) {
  Simulation s;
  int daemon_fires = 0;
  std::function<void()> heartbeat = [&] {
    ++daemon_fires;
    s.schedule_daemon_after(10, heartbeat);  // reschedules forever
  };
  s.schedule_daemon_after(10, heartbeat);
  bool work_done = false;
  s.schedule_at(35, [&] { work_done = true; });
  s.run();  // must terminate despite the immortal heartbeat
  EXPECT_TRUE(work_done);
  // The heartbeat ran while foreground work was pending (t=10,20,30)...
  EXPECT_EQ(daemon_fires, 3);
  // ...and one daemon event is still queued, not keeping us alive.
  EXPECT_EQ(s.pending_foreground(), 0u);
  EXPECT_EQ(s.pending(), 1u);
}

TEST(SimulationTest, RunUntilStillDrivesDaemons) {
  Simulation s;
  int fires = 0;
  std::function<void()> tick = [&] {
    ++fires;
    s.schedule_daemon_after(10, tick);
  };
  s.schedule_daemon_after(10, tick);
  s.run_until(55);
  EXPECT_EQ(fires, 5);  // t = 10..50
  EXPECT_EQ(s.now(), 55);
}

TEST(SimulationTest, CancellingADaemonKeepsForegroundCountRight) {
  Simulation s;
  const EventId d = s.schedule_daemon_after(10, [] {});
  s.schedule_after(20, [] {});
  EXPECT_EQ(s.pending_foreground(), 1u);
  EXPECT_TRUE(s.cancel(d));
  EXPECT_EQ(s.pending_foreground(), 1u);
  EXPECT_EQ(s.run(), 1u);
}

// EventId = seq << 24 | slot; the low bits name the kernel slot.
std::uint64_t slot_of(EventId id) { return id & 0xffffffu; }

TEST(SimulationTest, StaleIdCannotCancelTheSlotsNewOccupant) {
  Simulation s;
  const EventId fired = s.schedule_at(1, [] {});
  s.run();
  bool second_fired = false;
  const EventId reused = s.schedule_at(5, [&] { second_fired = true; });
  ASSERT_EQ(slot_of(reused), slot_of(fired));  // the slot was recycled
  EXPECT_NE(reused, fired);
  EXPECT_FALSE(s.cancel(fired));
  EXPECT_EQ(s.pending(), 1u);

  // Same through the cancel path: cancel frees the slot at once, the next
  // schedule reuses it, and the old id still cannot touch the new event.
  EXPECT_TRUE(s.cancel(reused));
  bool third_fired = false;
  const EventId again = s.schedule_at(20, [&] { third_fired = true; });
  ASSERT_EQ(slot_of(again), slot_of(reused));
  EXPECT_FALSE(s.cancel(reused));
  EXPECT_EQ(s.pending_foreground(), 1u);
  s.run();
  EXPECT_FALSE(second_fired);
  EXPECT_TRUE(third_fired);
}

TEST(SimulationTest, EventCancellingItselfGetsFalse) {
  Simulation s;
  EventId self = kInvalidEvent;
  bool result = true;
  self = s.schedule_at(3, [&] { result = s.cancel(self); });
  s.schedule_at(4, [] {});
  s.run();
  EXPECT_FALSE(result);
  EXPECT_EQ(s.executed(), 2u);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.pending_foreground(), 0u);
}

TEST(SimulationTest, SameTickFifoHoldsAcrossSlotReuse) {
  Simulation s;
  // Scatter the free list: fire some slots, cancel others, in an order
  // that leaves the free list non-monotonic.
  std::vector<EventId> ids;
  for (int i = 0; i < 12; ++i) ids.push_back(s.schedule_at(i, [] {}));
  for (int i = 11; i >= 0; i -= 3) s.cancel(ids[i]);
  s.run();
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) {
    s.schedule_at(100, [&order, i] { order.push_back(i); });
  }
  s.run();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[i], i);
}

TEST(SimulationTest, RunUntilWithCancelledHeadAndLiveEventBeyond) {
  Simulation s;
  std::vector<Time> fired;
  const EventId head = s.schedule_at(5, [&] { fired.push_back(5); });
  s.schedule_at(50, [&] { fired.push_back(50); });
  ASSERT_TRUE(s.cancel(head));
  EXPECT_EQ(s.run_until(10), 0u);
  EXPECT_EQ(s.now(), 10);
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.pending_foreground(), 1u);
  // Work scheduled at the boundary still runs before the later event.
  s.schedule_at(10, [&] { fired.push_back(10); });
  EXPECT_EQ(s.run_until(10), 1u);
  EXPECT_EQ(s.run_until(60), 1u);
  EXPECT_EQ(fired, (std::vector<Time>{10, 50}));
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SimulationTest, DaemonAndForegroundCountsSurviveCancelAfterReuse) {
  Simulation s;
  const EventId d = s.schedule_daemon_at(1, [] {});
  const EventId f = s.schedule_at(2, [] {});
  s.run();  // both fire; both slots go back to the free list
  // Reuse the slots with the opposite daemon-ness.
  const EventId f2 = s.schedule_at(10, [] {});
  const EventId d2 = s.schedule_daemon_at(10, [] {});
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_EQ(s.pending_foreground(), 1u);
  EXPECT_FALSE(s.cancel(d));
  EXPECT_FALSE(s.cancel(f));
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_EQ(s.pending_foreground(), 1u);
  EXPECT_TRUE(s.cancel(d2));
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.pending_foreground(), 1u);
  EXPECT_TRUE(s.cancel(f2));
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.pending_foreground(), 0u);
  EXPECT_EQ(s.run(), 0u);
}

TEST(SimulationTest, CancelDestroysTheClosureBeforeReturning) {
  Simulation s;
  auto token = std::make_shared<int>(7);
  const std::weak_ptr<int> watch = token;
  const EventId id = s.schedule_at(10, [token] { (void)token; });
  s.schedule_at(20, [] {});
  token.reset();  // the queued closure is now the only owner
  ASSERT_FALSE(watch.expired());
  EXPECT_TRUE(s.cancel(id));
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(s.pending(), 1u);
}

TEST(SimulationTest, ClosureDestructorMayReenterTheKernelDuringCancel) {
  Simulation s;
  std::vector<int> order;
  const EventId victim = s.schedule_at(30, [&] { order.push_back(30); });
  for (const int t : {5, 15, 25, 35}) {
    s.schedule_at(t, [&order, t] { order.push_back(t); });
  }
  EventId id = kInvalidEvent;
  EventId rescheduled = kInvalidEvent;
  bool victim_cancelled = false;
  bool self_cancelled = true;
  // Runs when the cancelled closure, its only owner, is destroyed.
  std::shared_ptr<int> hook(new int(0), [&](int* p) {
    delete p;
    self_cancelled = s.cancel(id);
    // Earlier than everything: sifts up past where the cancelled key was.
    rescheduled = s.schedule_at(1, [&] { order.push_back(1); });
    victim_cancelled = s.cancel(victim);
  });
  id = s.schedule_at(10, [hook] { (void)hook; });
  hook.reset();
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(self_cancelled);
  EXPECT_NE(rescheduled, kInvalidEvent);
  EXPECT_TRUE(victim_cancelled);
  EXPECT_EQ(s.pending(), 5u);
  EXPECT_EQ(s.pending_foreground(), 5u);
  EXPECT_EQ(s.run(), 5u);
  EXPECT_EQ(order, (std::vector<int>{1, 5, 15, 25, 35}));
}

TEST(SimulationTest, PendingCountsQueuedKeysAfterManyCancels) {
  Simulation s;
  Rng rng(4242);
  std::vector<EventId> ids;
  std::size_t live = 0;
  // Rounds of "schedule a batch, cancel most of it in random order", with
  // partial runs in between, like retransmit timers armed and ACKed.
  for (int round = 0; round < 20; ++round) {
    const std::size_t base = ids.size();
    for (int i = 0; i < 200; ++i) {
      const Time at = s.now() + static_cast<Time>(rng.below(500));
      ids.push_back(rng.chance(0.2) ? s.schedule_daemon_at(at, [] {})
                                    : s.schedule_at(at, [] {}));
      ++live;
    }
    for (std::size_t i = ids.size() - 1; i > base; --i) {
      std::swap(ids[i], ids[base + rng.below(i - base + 1)]);
    }
    for (std::size_t i = base; i < ids.size(); ++i) {
      if (i % 3 != 0 && s.cancel(ids[i])) --live;
    }
    ASSERT_EQ(s.pending(), live);
    live -= s.run_until(s.now() + 100);
    ASSERT_EQ(s.pending(), live);
  }
  // Every remaining key fires exactly once; nothing dead is left behind.
  EXPECT_EQ(s.run_until(s.now() + 1000), live);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.pending_foreground(), 0u);
}

// Operation weights (percent) for the differential test below; whatever
// is left after these goes to run(limit).
struct OpMix {
  std::uint64_t schedule;
  std::uint64_t cancel;
  std::uint64_t step;
  std::uint64_t run_until;
  /// Cancel only ids that are still queued, half the time the newest one
  /// (the retransmit-timer pattern: arm, then cancel on the ACK). Otherwise
  /// cancel any id ever issued, fired and cancelled ones included.
  bool cancel_live;
  /// Arm, disarm or destroy one of a few Timers (taken from run(limit)'s
  /// share). A cancel that picks a timer's label disarms the timer.
  std::uint64_t timer = 0;
  /// Half the timer operations go to timer 0, whose arms fall due 30
  /// ticks later than the others' (a storage pool's deadline among
  /// transport RTOs), so shorter arms keep demoting it from the list's
  /// tail.
  bool long_timer = false;
};

// Seeded differential test: random schedule / daemon / cancel / step /
// run_until / run / timer operations against a std::multimap reference,
// which keeps equal-time entries in insertion order. The reference treats
// a timer arm as a cancel of the timer's pending firing plus a fresh
// schedule. Firing order, now(), pending(), pending_foreground() and
// armed() must match after every operation.
struct Tally {
  int live_cancels = 0;  ///< cancels that removed a queued event
  std::size_t fired = 0;
  std::uint64_t timer_arms = 0;       ///< Simulation::timer_arms()
  std::uint64_t timer_fallbacks = 0;  ///< Simulation::timer_fallbacks()
  std::uint64_t timer_demotions = 0;  ///< Simulation::timer_demotions()
  std::uint64_t callback_arms = 0;    ///< re-arms from the timer's callback
  std::uint64_t self_destroys = 0;    ///< timers their callback destroyed
};
Tally check_against_multimap(std::uint64_t seed, const OpMix& mix) {
  struct RefEvent {
    int label;
    bool daemon;
  };
  using RefQueue = std::multimap<Time, RefEvent>;
  Simulation s;
  RefQueue ref;
  Time ref_now = 0;
  std::size_t ref_foreground = 0;
  std::vector<int> fired;
  std::vector<int> ref_fired;
  std::vector<EventId> ids;                         // by label
  std::map<int, RefQueue::iterator> ref_pending;    // live labels
  Tally tally;
  Rng rng(seed);

  // Each arm of a timer gets a label of its own, which fixes what the
  // timer's callback does when that arm fires: nothing, re-arm `delay`
  // later (as label `next`, which the reference assigns when it pops the
  // label, ahead of the kernel), or destroy its own timer.
  enum class OnFire { kNothing, kRearm, kDestroy };
  struct TimerArm {
    std::size_t timer;
    OnFire on_fire;
    Duration delay;
    int next = -1;
  };
  std::map<int, TimerArm> timer_arms;  // by label; plain events absent
  struct TimerSlot {
    std::unique_ptr<Timer> timer;
    int label = -1;  // label of the latest arm
  };
  std::array<TimerSlot, 6> timers;

  auto ref_cancel = [&](int label) {
    const auto it = ref_pending.find(label);
    if (it == ref_pending.end()) return false;
    if (!it->second->second.daemon) --ref_foreground;
    ref.erase(it->second);
    ref_pending.erase(it);
    return true;
  };
  auto ref_arm = [&](std::size_t timer, Time at) {
    const int label = static_cast<int>(ids.size());
    ids.push_back(kInvalidEvent);  // a timer arm has no EventId
    const std::uint64_t pick = rng.below(10);
    const OnFire on_fire = pick < 2   ? OnFire::kRearm
                           : pick < 3 ? OnFire::kDestroy
                                      : OnFire::kNothing;
    timer_arms.emplace(
        label, TimerArm{timer, on_fire, static_cast<Duration>(rng.below(30))});
    const auto it =
        ref.emplace(at < ref_now ? ref_now : at, RefEvent{label, false});
    ref_pending.emplace(label, it);
    ++ref_foreground;
    return label;
  };
  auto ref_pop = [&] {
    const auto it = ref.begin();
    const int label = it->second.label;
    ref_now = it->first;
    ref_fired.push_back(label);
    if (!it->second.daemon) --ref_foreground;
    ref_pending.erase(label);
    ref.erase(it);
    const auto arm = timer_arms.find(label);
    if (arm == timer_arms.end()) return;
    if (arm->second.on_fire == OnFire::kRearm) {
      arm->second.next = ref_arm(arm->second.timer,
                                 ref_now + arm->second.delay);
      ++tally.callback_arms;
    } else if (arm->second.on_fire == OnFire::kDestroy) {
      ++tally.self_destroys;
    }
  };
  auto timer_callback = [&](std::size_t timer) {
    return [&timers, &timer_arms, &fired, timer] {
      TimerSlot& slot = timers[timer];
      fired.push_back(slot.label);
      const TimerArm& arm = timer_arms.at(slot.label);
      if (arm.on_fire == OnFire::kRearm) {
        slot.label = arm.next;
        slot.timer->arm_after(arm.delay);
      } else if (arm.on_fire == OnFire::kDestroy) {
        slot.timer.reset();  // the callback's last act
      }
    };
  };

  for (int op = 0; op < 100000; ++op) {
    std::uint64_t kind = rng.below(100);
    if (mix.cancel_live && kind >= mix.schedule &&
        kind < mix.schedule + mix.cancel && ref_pending.empty()) {
      kind = 0;  // nothing live to cancel: schedule instead
    }
    if (kind < mix.schedule) {
      // Relative or (possibly past) absolute schedule; ties are common.
      const bool daemon = rng.chance(0.2);
      const int label = static_cast<int>(ids.size());
      const bool absolute = rng.chance(0.3);
      const Time at = absolute
                          ? ref_now + static_cast<Time>(rng.below(40)) - 10
                          : ref_now + static_cast<Time>(rng.below(30));
      // Cycle through the closure kinds: inline, a std::function, and a
      // trivially copyable capture too large for the inline store.
      auto fn = [&fired, label] { fired.push_back(label); };
      auto schedule = [&](auto&& f) {
        return daemon ? s.schedule_daemon_at(at, std::forward<decltype(f)>(f))
                      : s.schedule_at(at, std::forward<decltype(f)>(f));
      };
      EventId id = kInvalidEvent;
      switch (label % 3) {
        case 0:
          id = schedule(fn);
          break;
        case 1:
          id = schedule(std::function<void()>(fn));
          break;
        default:
          id = schedule([fn, pad = std::array<char, 16>{}] { fn(); });
          break;
      }
      ids.push_back(id);
      const auto it =
          ref.emplace(at < ref_now ? ref_now : at, RefEvent{label, daemon});
      ref_pending.emplace(label, it);
      if (!daemon) ++ref_foreground;
    } else if (kind < mix.schedule + mix.cancel) {
      if (ids.empty()) continue;
      int label = 0;
      if (!mix.cancel_live) {
        label = static_cast<int>(rng.below(ids.size()));
      } else if (rng.chance(0.5)) {
        label = ref_pending.rbegin()->first;
      } else {
        auto pick = ref_pending.begin();
        std::advance(pick, static_cast<std::ptrdiff_t>(
                               rng.below(ref_pending.size())));
        label = pick->first;
      }
      const bool expect = ref_cancel(label);
      if (expect) ++tally.live_cancels;
      const auto arm = timer_arms.find(label);
      if (arm == timer_arms.end()) {
        EXPECT_EQ(s.cancel(ids[static_cast<std::size_t>(label)]), expect)
            << "op " << op;
      } else if (expect) {
        // A timer's live label is its latest arm: disarming cancels it.
        Timer& timer = *timers[arm->second.timer].timer;
        EXPECT_TRUE(timer.armed()) << "op " << op;
        timer.disarm();
      }
      if (::testing::Test::HasFailure()) return tally;
    } else if (kind < mix.schedule + mix.cancel + mix.step) {
      const bool expect = !ref.empty();
      if (expect) ref_pop();
      EXPECT_EQ(s.step(), expect) << "op " << op;
    } else if (kind < mix.schedule + mix.cancel + mix.step + mix.run_until) {
      const Time until = ref_now + static_cast<Time>(rng.below(20));
      std::uint64_t expect = 0;
      while (!ref.empty() && ref.begin()->first <= until) {
        ref_pop();
        ++expect;
      }
      if (ref_now < until) ref_now = until;
      EXPECT_EQ(s.run_until(until), expect) << "op " << op;
    } else if (kind < mix.schedule + mix.cancel + mix.step + mix.run_until +
                          mix.timer) {
      const std::size_t t =
          mix.long_timer && rng.chance(0.5) ? 0 : rng.below(timers.size());
      TimerSlot& slot = timers[t];
      const std::uint64_t what = rng.below(10);
      ref_cancel(slot.label);  // an arm, a disarm and a destroy all cancel
      if (what < 6) {
        if (!slot.timer) {
          slot.timer = std::make_unique<Timer>(s, timer_callback(t));
        }
        // Absolute (possibly past) or relative; ties are common, and an
        // arm earlier than the list's tail must demote the tail or take
        // the heap fallback.
        const bool absolute = rng.chance(0.3);
        Time at = absolute ? ref_now + static_cast<Time>(rng.below(40)) - 10
                           : ref_now + static_cast<Time>(rng.below(30));
        if (mix.long_timer && t == 0) at += 30;
        slot.label = ref_arm(t, at);
        if (absolute) {
          slot.timer->arm_at(at);
        } else {
          slot.timer->arm_after(at - ref_now);
        }
      } else if (what < 9) {
        if (slot.timer) slot.timer->disarm();
      } else {
        slot.timer.reset();  // the destructor disarms
      }
      EXPECT_EQ(slot.timer != nullptr && slot.timer->armed(),
                ref_pending.count(slot.label) != 0)
          << "op " << op;
    } else {
      const std::uint64_t limit = rng.below(8);
      std::uint64_t expect = 0;
      while (expect < limit && ref_foreground > 0 && !ref.empty()) {
        ref_pop();
        ++expect;
      }
      EXPECT_EQ(s.run(limit), expect) << "op " << op;
    }
    EXPECT_EQ(s.now(), ref_now) << "op " << op;
    EXPECT_EQ(s.pending(), ref.size()) << "op " << op;
    EXPECT_EQ(s.pending_foreground(), ref_foreground) << "op " << op;
    EXPECT_EQ(fired.size(), ref_fired.size()) << "op " << op;
    if (!fired.empty() && !ref_fired.empty()) {
      EXPECT_EQ(fired.back(), ref_fired.back()) << "op " << op;
    }
    if (::testing::Test::HasFailure()) return tally;
  }
  EXPECT_EQ(fired, ref_fired);
  tally.fired = fired.size();
  tally.timer_arms = s.timer_arms();
  tally.timer_fallbacks = s.timer_fallbacks();
  tally.timer_demotions = s.timer_demotions();
  return tally;
}

TEST(SimulationTest, MatchesMultimapReferenceUnderRandomOperations) {
  const Tally t = check_against_multimap(20071, OpMix{45, 20, 20, 12, false});
  EXPECT_GT(t.fired, 30000u);
}

TEST(SimulationTest, MatchesMultimapReferenceUnderCancelHeavyOperations) {
  // At least a third of all operations cancel a queued event.
  const Tally t = check_against_multimap(20072, OpMix{44, 42, 8, 4, true});
  EXPECT_GE(t.live_cancels, 100000 / 3);
  EXPECT_GT(t.fired, 5000u);
}

TEST(SimulationTest, TimersMatchMultimapReference) {
  // Timer arms both join the timer list and, when earlier than its tail,
  // fall back to the heap; callbacks re-arm and destroy their own timers.
  const Tally t =
      check_against_multimap(20073, OpMix{30, 10, 20, 10, true, 22});
  EXPECT_GT(t.fired, 20000u);
  EXPECT_GT(t.timer_arms - t.timer_fallbacks, 5000u);
  EXPECT_GT(t.timer_fallbacks, 2000u);
  EXPECT_GT(t.callback_arms, 1000u);
  EXPECT_GT(t.self_destroys, 500u);
}

TEST(SimulationTest, DemotionsMatchMultimapReference) {
  // One long-deadline timer re-armed among short ones: it keeps landing
  // at the list's tail, and the short arms behind it keep demoting it to
  // the heap under its own key.
  OpMix mix{30, 10, 20, 10, true, 22};
  mix.long_timer = true;
  const Tally t = check_against_multimap(20074, mix);
  EXPECT_GT(t.fired, 20000u);
  EXPECT_GT(t.timer_demotions, 1000u);
  EXPECT_GT(t.timer_fallbacks - t.timer_demotions, 50u);
  EXPECT_GT(t.timer_arms - t.timer_fallbacks, 5000u);
}

TEST(SimulationTest, DemotedTailKeepsItsKey) {
  // `far` is armed first, then a heap event at the same tick. `near`,
  // earlier than `far`, demotes it to the heap, where it keeps the seq of
  // its own arm and so still fires before the event scheduled after it.
  Simulation s;
  std::vector<char> fired;
  Timer far(s, [&] { fired.push_back('F'); });
  Timer near(s, [&] { fired.push_back('N'); });
  far.arm_at(100);
  s.schedule_at(100, [&] { fired.push_back('E'); });
  near.arm_at(50);
  EXPECT_EQ(s.timer_demotions(), 1u);
  EXPECT_EQ(s.timer_fallbacks(), 1u);
  EXPECT_TRUE(far.armed());
  EXPECT_EQ(s.pending(), 3u);
  EXPECT_EQ(s.pending_foreground(), 3u);
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(fired, (std::vector<char>{'N', 'F', 'E'}));
  EXPECT_FALSE(far.armed());
}

TEST(SimulationTest, ArmEarlierThanTheLastTwoFallsBack) {
  // An arm earlier than the tail's predecessor cannot take the tail's
  // place; it becomes a heap event and the list stays as it is. A
  // demoted timer disarms and re-arms like any other.
  Simulation s;
  std::vector<char> fired;
  Timer a(s, [&] { fired.push_back('A'); });
  Timer b(s, [&] { fired.push_back('B'); });
  Timer c(s, [&] { fired.push_back('C'); });
  a.arm_at(50);
  b.arm_at(100);
  c.arm_at(40);  // earlier than a, b's predecessor
  EXPECT_EQ(s.timer_fallbacks(), 1u);
  EXPECT_EQ(s.timer_demotions(), 0u);
  c.arm_at(60);  // between a and b: b moves to the heap
  EXPECT_EQ(s.timer_demotions(), 1u);
  b.disarm();
  EXPECT_FALSE(b.armed());
  EXPECT_EQ(s.pending(), 2u);
  b.arm_at(70);  // no earlier than the tail (c at 60): joins the list
  EXPECT_EQ(s.timer_fallbacks(), 2u);
  EXPECT_EQ(s.run(), 3u);
  EXPECT_EQ(fired, (std::vector<char>{'A', 'C', 'B'}));
  EXPECT_EQ(s.pending(), 0u);
}

// A `[this, id]`-shaped closure is stored inline; a std::function, a
// capture past 16 bytes and a capture that is not trivially copyable are
// not.
struct Owner {
  std::vector<std::uint64_t> fired;
  void on(std::uint64_t id) { fired.push_back(id); }
};
using ThisIdClosure = decltype([](Owner* o, std::uint64_t id) {
  return [o, id] { o->on(id); };
}(nullptr, 0));
static_assert(Simulation::stores_inline<ThisIdClosure>);
static_assert(Simulation::stores_inline<void (*)()>);
static_assert(!Simulation::stores_inline<std::function<void()>>);
static_assert(!Simulation::stores_inline<decltype([a = std::array<char, 17>{}] {
  (void)a;
})>);
static_assert(!Simulation::stores_inline<decltype([p = std::shared_ptr<int>{}] {
  (void)p;
})>);

TEST(SimulationTest, InlineAndFunctionClosuresFireInInsertionOrder) {
  Simulation s;
  Owner owner;
  for (std::uint64_t i = 0; i < 12; ++i) {
    Owner* o = &owner;
    auto fn = [o, i] { o->on(i); };
    if (i % 2 == 0) {
      s.schedule_at(5, fn);
    } else {
      s.schedule_at(5, std::function<void()>(fn));
    }
  }
  EXPECT_EQ(s.run(), 12u);
  for (std::uint64_t i = 0; i < 12; ++i) EXPECT_EQ(owner.fired[i], i);
}

TEST(SimulationTest, InlineClosureMayGrowTheSlotsWhileFiring) {
  // The closure schedules enough events to reallocate the kernel's slot
  // array, then reads its own captures: it must run from a copy, not from
  // its (freed) slot. ASan reports a use after free otherwise.
  Simulation s;
  Owner owner;
  Owner* o = &owner;
  Simulation* sim = &s;
  s.schedule_at(1, [sim, o] {
    for (std::uint64_t i = 0; i < 4096; ++i) {
      sim->schedule_after(1, [o, i] { o->on(i + 1); });
    }
    o->on(0);
  });
  EXPECT_EQ(s.run(), 4097u);
  ASSERT_EQ(owner.fired.size(), 4097u);
  for (std::uint64_t i = 0; i < owner.fired.size(); ++i) {
    EXPECT_EQ(owner.fired[i], i);
  }
}

TEST(SimulationTest, CancelsAnInlineEvent) {
  Simulation s;
  Owner owner;
  Owner* o = &owner;
  const EventId a = s.schedule_at(10, [o] { o->on(1); });
  const EventId b = s.schedule_daemon_at(20, [o] { o->on(2); });
  s.schedule_at(30, [o] { o->on(3); });
  EXPECT_TRUE(s.cancel(a));
  EXPECT_FALSE(s.cancel(a));
  EXPECT_TRUE(s.cancel(b));
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.pending_foreground(), 1u);
  // The freed slot's next occupant is not reachable through the old id.
  const EventId c = s.schedule_at(15, [o] { o->on(4); });
  EXPECT_EQ(slot_of(c), slot_of(b));
  EXPECT_FALSE(s.cancel(b));
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(owner.fired, (std::vector<std::uint64_t>{4, 3}));
}

// A closure that counts its constructions and destructions.
struct Counted {
  int* made;
  int* destroyed;
  int* calls;
  Counted(int* m, int* d, int* c) : made(m), destroyed(d), calls(c) {
    ++*made;
  }
  Counted(const Counted& o) : made(o.made), destroyed(o.destroyed),
                              calls(o.calls) {
    ++*made;
  }
  Counted(Counted&& o) noexcept : Counted(o) {}
  Counted& operator=(const Counted&) = delete;
  ~Counted() { ++*destroyed; }
  void operator()() const { ++*calls; }
};

TEST(SimulationTest, NonTrivialClosureIsDestroyedExactlyOnce) {
  Simulation s;
  int made = 0;
  int destroyed = 0;
  int calls = 0;
  const EventId fires = s.schedule_at(10, Counted(&made, &destroyed, &calls));
  const EventId cancelled =
      s.schedule_at(20, Counted(&made, &destroyed, &calls));
  EXPECT_NE(fires, kInvalidEvent);
  EXPECT_EQ(made - destroyed, 2);  // one live copy per pending event
  EXPECT_TRUE(s.cancel(cancelled));
  EXPECT_EQ(made - destroyed, 1);
  EXPECT_EQ(s.run(), 1u);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(made, destroyed);
}

// A callable that counts its copies (moves are not counted).
struct CopyCounter {
  int* copies;
  int* calls;
  CopyCounter(int* c, int* n) : copies(c), calls(n) {}
  CopyCounter(const CopyCounter& o) : copies(o.copies), calls(o.calls) {
    ++*copies;
  }
  CopyCounter(CopyCounter&&) noexcept = default;
  CopyCounter& operator=(const CopyCounter&) = delete;
  ~CopyCounter() = default;
  void operator()() const { ++*calls; }
};

TEST(SimulationTest, FunctionLvalueIsCopiedAndRvalueMoved) {
  Simulation s;
  int copies = 0;
  int calls = 0;
  std::function<void()> fn = CopyCounter(&copies, &calls);
  ASSERT_EQ(copies, 0);
  s.schedule_at(1, fn);
  EXPECT_EQ(copies, 1);
  ASSERT_TRUE(fn);  // the caller's copy is untouched
  s.schedule_daemon_after(2, std::move(fn));
  EXPECT_EQ(copies, 1);
  s.run_until(5);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(copies, 1);
}

// ---- Callback lifetimes -----------------------------------------------------

static_assert(!Callback::stores_inline<Counted>);
static_assert(Callback::stores_inline<ThisIdClosure>);

TEST(CallbackTest, BoxedClosureIsDestroyedExactlyOnce) {
  int made = 0;
  int destroyed = 0;
  int calls = 0;
  {
    Callback a(Counted(&made, &destroyed, &calls));
    EXPECT_EQ(made - destroyed, 1);
    Callback b(std::move(a));  // moves the owning pointer, not the closure
    EXPECT_FALSE(a);
    EXPECT_EQ(made - destroyed, 1);
    b();
    Callback c;
    c = std::move(b);
    c();
    c = Callback([] {});  // the replaced closure dies here
    EXPECT_EQ(made, destroyed);
  }
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(made, destroyed);
}

TEST(CallbackTest, PendingBoxedEventDiesWithItsSimulation) {
  int made = 0;
  int destroyed = 0;
  int calls = 0;
  {
    Simulation s;
    s.schedule_at(10, Counted(&made, &destroyed, &calls));
    s.schedule_daemon_at(20, Counted(&made, &destroyed, &calls));
    EXPECT_EQ(made - destroyed, 2);
  }
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(made, destroyed);
}

TEST(CallbackTest, TimerClosureIsDestroyedExactlyOnce) {
  int made = 0;
  int destroyed = 0;
  int calls = 0;
  Simulation s;
  {
    Timer listed(s, Counted(&made, &destroyed, &calls));
    Timer heaped(s, Counted(&made, &destroyed, &calls));
    Timer idle(s, Counted(&made, &destroyed, &calls));
    listed.arm_at(50);
    heaped.arm_at(10);  // earlier than the list's only timer, which demotes
    EXPECT_EQ(s.timer_fallbacks(), 1u);
    EXPECT_EQ(s.run_until(20), 1u);
    heaped.arm_at(30);
    EXPECT_EQ(made - destroyed, 3);
  }
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(made, destroyed);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(CallbackTest, MoveOnlyClosuresSchedule) {
  Simulation s;
  int seen = 0;
  auto owned = std::make_unique<int>(41);
  s.schedule_at(5, [&seen, p = std::move(owned)] { seen = *p + 1; });
  Timer t(s, [&seen, p = std::make_unique<int>(100)] { seen += *p; });
  t.arm_at(6);
  EXPECT_EQ(s.run(), 2u);
  EXPECT_EQ(seen, 142);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, ForkIsIndependentOfParentConsumption) {
  Rng a(7);
  Rng child = a.fork(1);
  const auto c0 = child.next_u64();
  Rng b(7);
  Rng child2 = b.fork(1);
  EXPECT_EQ(c0, child2.next_u64());
}

TEST(RngTest, UniformInUnitInterval) {
  Rng r(99);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 7.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(RngTest, ExponentialMeanApproximatelyCorrect) {
  Rng r(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

// exponential_duration's contract: the truncation of -mean * log1p(-u).
Duration log1p_reference(double u, Duration mean) {
  return static_cast<Duration>(-static_cast<double>(mean) * std::log1p(-u));
}

TEST(RngTest, ExponentialDurationTruncatesLikeLog1p) {
  // The means the simulator draws with: link jitter (the flat fabric's,
  // and the inter-room tier's, which is NTP's path jitter too),
  // kSchedJitter, kCmdLatencyMean, kDispatchJitter, kStallMean and one
  // node MTBF of hours (proactive.scn's).
  const std::array<Duration, 7> production = {
      20 * kMicrosecond, 300 * kMicrosecond, 1 * kMillisecond,
      2 * kMillisecond,  175 * kMillisecond, 30 * kSecond,
      15000 * kSecond};
  for (const Duration m : production) {
    Rng draws(31), uniforms(31);
    int mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) {
      const Duration want = log1p_reference(uniforms.uniform(), m);
      if (draws.exponential_duration(m) != want) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0) << "mean " << m;
  }

  // Near every integer N the draw can land on, the multiples of 2^-53
  // within 64 steps of u = 1 - exp(-N / m), where -m * log(1 - u) crosses
  // N. Small N lands inside the guard's slack; large N / m, where a step
  // of u moves the value by more than the slack, exercises the fast path
  // right beside an integer.
  std::array<Duration, 10> means = {1, 7, 1000};
  std::copy(production.begin(), production.end(), means.begin() + 3);
  constexpr std::int64_t kTop = std::int64_t{1} << 53;
  int fallbacks = 0;
  int fast = 0;
  const auto check = [&](double u, Duration m) {
    const Duration want = log1p_reference(u, m);
    EXPECT_EQ(Rng::exponential_duration_at(u, m), want)
        << "u " << u << " mean " << m;
    if (const auto d = Rng::exponential_by_log(u, static_cast<double>(m))) {
      EXPECT_EQ(*d, want) << "u " << u << " mean " << m;
      ++fast;
    } else {
      ++fallbacks;
    }
  };
  for (const Duration m : means) {
    std::vector<std::int64_t> targets;
    for (std::int64_t n = 1; n <= 2000; ++n) targets.push_back(n);
    for (const std::int64_t x : {1, 2, 4, 6, 8, 10, 12, 16, 20, 24, 30, 36}) {
      targets.push_back(x * m);
    }
    for (const std::int64_t n : targets) {
      const double u0 =
          -std::expm1(-static_cast<double>(n) / static_cast<double>(m));
      const auto k0 = static_cast<std::int64_t>(std::ldexp(u0, 53));
      for (std::int64_t k = std::max<std::int64_t>(k0 - 64, 0);
           k <= std::min(k0 + 64, kTop - 1); ++k) {
        check(std::ldexp(static_cast<double>(k), -53), m);
      }
    }
    check(0.0, m);
    check(1.0 - 0x1.0p-53, m);
  }
  EXPECT_GT(fallbacks, 0);
  EXPECT_GT(fast, 0);

  // Pinned: at this u and a 20 us mean, -m * log(1 - u) computes
  // 1317.0000000000002 with glibc 2.36 while -m * log1p(-u) computes
  // 1316.9999999999998, so an unguarded log draw would return 1317, not
  // 1316. The scan above meets it too (N = 1317). Read through a volatile:
  // GCC folds a constant log1p with a correctly rounded library, which
  // here gives 1317.0000000000002, and the draw's contract is libm's
  // run-time value.
  const volatile double opaque = 0x1.050864223c08p-4;
  const double pinned = opaque;
  EXPECT_EQ(Rng::exponential_duration_at(pinned, 20 * kMicrosecond),
            log1p_reference(pinned, 20 * kMicrosecond));
}

TEST(RngTest, NormalMomentsApproximatelyCorrect) {
  Rng r(13);
  SummaryStats st;
  for (int i = 0; i < 200000; ++i) st.add(r.normal(10.0, 3.0));
  EXPECT_NEAR(st.mean(), 10.0, 0.05);
  EXPECT_NEAR(st.stddev(), 3.0, 0.05);
}

TEST(RngTest, ChanceMatchesProbability) {
  Rng r(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, BelowStaysInRange) {
  Rng r(19);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(RngTest, NormalDurationNeverNegative) {
  Rng r(23);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(r.normal_duration(10, 100), 0);
  }
}

TEST(StatsTest, BasicMoments) {
  SummaryStats st;
  for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0}) st.add(x);
  EXPECT_EQ(st.count(), 5u);
  EXPECT_DOUBLE_EQ(st.mean(), 3.0);
  EXPECT_DOUBLE_EQ(st.min(), 1.0);
  EXPECT_DOUBLE_EQ(st.max(), 5.0);
  EXPECT_DOUBLE_EQ(st.sum(), 15.0);
  EXPECT_NEAR(st.stddev(), 1.5811, 1e-3);
}

TEST(StatsTest, EmptyIsZero) {
  SummaryStats st;
  EXPECT_EQ(st.count(), 0u);
  EXPECT_DOUBLE_EQ(st.mean(), 0.0);
  EXPECT_DOUBLE_EQ(st.stddev(), 0.0);
}

TEST(StatsTest, PercentilesWithSamples) {
  SummaryStats st(/*keep_samples=*/true);
  for (int i = 1; i <= 100; ++i) st.add(i);
  EXPECT_NEAR(st.percentile(50), 50.5, 0.01);
  EXPECT_NEAR(st.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(st.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(st.percentile(95), 95.05, 0.01);
}

TEST(StatsTest, RepeatedPercentileCallsAgree) {
  // percentile() sorts its retained samples lazily; repeated calls and
  // interleaved add()s must agree with a freshly built equivalent.
  Rng r(99);
  SummaryStats st(/*keep_samples=*/true);
  for (int i = 0; i < 1000; ++i) st.add(r.uniform(0.0, 1.0));
  const double p50 = st.percentile(50);
  const double p99 = st.percentile(99);
  EXPECT_DOUBLE_EQ(st.percentile(50), p50);
  EXPECT_DOUBLE_EQ(st.percentile(99), p99);

  // Adding after a sort invalidates the cache rather than the answer.
  st.add(-1.0);
  EXPECT_DOUBLE_EQ(st.percentile(0), -1.0);
  st.add(2.0);
  EXPECT_DOUBLE_EQ(st.percentile(100), 2.0);
  EXPECT_EQ(st.count(), 1002u);

  // Moments are untouched by the lazy reordering.
  EXPECT_NEAR(st.mean(), st.sum() / 1002.0, 1e-12);
}

struct TableRecord {
  std::uint32_t id = 0;
  int payload = 0;
  std::unique_ptr<int> owned{};  ///< move-only, like a boxed closure
  std::function<void()> then{};  ///< run by the test once taken
};
using Table = IdTable<TableRecord, std::uint32_t>;

std::vector<std::uint32_t> ids_of(const Table& t) {
  std::vector<std::uint32_t> ids;
  for (const TableRecord& r : t) ids.push_back(r.id);
  return ids;
}

TEST(IdTableTest, IdsStartAtOneAndAreNeverReused) {
  Table t;
  EXPECT_EQ(t.open({.payload = 10}).id, 1u);
  EXPECT_EQ(t.open({.payload = 20}).id, 2u);
  EXPECT_EQ(t.open({.payload = 30}).id, 3u);
  // The newest record ends: its id is not handed out again.
  ASSERT_TRUE(t.take(3).has_value());
  EXPECT_EQ(t.open({}).id, 4u);
  t.erase_if([](const TableRecord&) { return true; });
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.open({}).id, 5u);
  t.clear();
  EXPECT_EQ(t.open({}).id, 6u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(IdTableTest, FindIsNullOnceTakenOrErased) {
  Table t;
  for (int i = 1; i <= 4; ++i) t.open({.payload = 10 * i});
  ASSERT_NE(t.find(2), nullptr);
  EXPECT_EQ(t.find(2)->payload, 20);
  const std::optional<TableRecord> taken = t.take(2);
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->id, 2u);
  EXPECT_EQ(taken->payload, 20);
  EXPECT_EQ(t.find(2), nullptr);
  EXPECT_FALSE(t.take(2).has_value());
  t.erase_if([](const TableRecord& r) { return r.id == 3; });
  EXPECT_EQ(t.find(3), nullptr);
  EXPECT_EQ(t.size(), 2u);
  const Table& view = t;
  ASSERT_NE(view.find(1), nullptr);
  ASSERT_NE(view.find(4), nullptr);
  EXPECT_EQ(view.find(4)->payload, 40);
  EXPECT_EQ(view.find(0), nullptr);
  EXPECT_EQ(view.find(5), nullptr);  // never opened
}

TEST(IdTableTest, ContinuationRunAfterTakeMayOpenRecords) {
  Table t;
  t.open({.payload = 1});
  // Opens enough records to grow (and so move) the table's storage.
  const std::uint32_t first = t.open({.then = [&t] {
                                 for (int i = 0; i < 100; ++i) {
                                   t.open({.payload = 100 + i});
                                 }
                               }}).id;
  std::optional<TableRecord> r = t.take(first);
  ASSERT_TRUE(r.has_value());
  r->then();
  EXPECT_EQ(t.size(), 101u);
  EXPECT_EQ(t.find(first), nullptr);
  ASSERT_NE(t.find(3), nullptr);
  EXPECT_EQ(t.find(3)->payload, 100);
  ASSERT_NE(t.find(102), nullptr);
  EXPECT_EQ(t.find(102)->payload, 199);
  const std::vector<std::uint32_t> ids = ids_of(t);
  EXPECT_TRUE(std::ranges::is_sorted(ids));
}

TEST(IdTableTest, EraseIfKeepsIdOrderAndLetsThePredicateMoveOut) {
  Table t;
  for (int i = 1; i <= 10; ++i) {
    t.open({.payload = i, .owned = std::make_unique<int>(i)});
  }
  std::vector<std::uint32_t> seen;
  std::vector<std::unique_ptr<int>> moved_out;
  t.erase_if([&](TableRecord& r) {
    seen.push_back(r.id);
    if (r.id % 2 != 0) return false;
    moved_out.push_back(std::move(r.owned));
    return true;
  });
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(ids_of(t), (std::vector<std::uint32_t>{1, 3, 5, 7, 9}));
  ASSERT_EQ(moved_out.size(), 5u);
  for (std::size_t i = 0; i < moved_out.size(); ++i) {
    ASSERT_NE(moved_out[i], nullptr);
    EXPECT_EQ(*moved_out[i], 2 * static_cast<int>(i) + 2);
  }
  // The survivors kept their own payloads and are still found by id.
  for (const std::uint32_t id : {1u, 3u, 5u, 7u, 9u}) {
    const TableRecord* r = t.find(id);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->payload, static_cast<int>(id));
    ASSERT_NE(r->owned, nullptr);
    EXPECT_EQ(*r->owned, static_cast<int>(id));
  }
  EXPECT_EQ(t.open({}).id, 11u);
  EXPECT_EQ(ids_of(t), (std::vector<std::uint32_t>{1, 3, 5, 7, 9, 11}));
}

TEST(IdTableTest, JoinTakesTheRecordOnItsLastReport) {
  struct Fan {
    std::uint64_t id = 0;
    std::uint32_t pending = 0;
    bool all_ok = true;
  };
  IdTable<Fan> t;
  const std::uint64_t a = t.open({.pending = 3}).id;
  const std::uint64_t b = t.open({.pending = 1}).id;
  EXPECT_FALSE(t.join(a, true).has_value());
  EXPECT_FALSE(t.join(a, false).has_value());
  ASSERT_NE(t.find(a), nullptr);
  EXPECT_EQ(t.find(a)->pending, 1u);
  const std::optional<Fan> done = t.join(a, true);
  ASSERT_TRUE(done.has_value());
  EXPECT_FALSE(done->all_ok);  // one report failed
  EXPECT_EQ(t.find(a), nullptr);
  EXPECT_FALSE(t.join(a, true).has_value());  // a late report finds nothing
  const std::optional<Fan> single = t.join(b, true);
  ASSERT_TRUE(single.has_value());
  EXPECT_TRUE(single->all_ok);
  EXPECT_TRUE(t.empty());
}

}  // namespace
}  // namespace dvc::sim
