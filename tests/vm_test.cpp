#include <gtest/gtest.h>

#include <any>
#include <memory>
#include <string>
#include <vector>

#include "hw/cluster.hpp"
#include "sim/simulation.hpp"
#include "storage/image_manager.hpp"
#include "storage/shared_store.hpp"
#include "telemetry/telemetry.hpp"
#include "vm/hypervisor.hpp"
#include "vm/native_context.hpp"
#include "vm/virtual_machine.hpp"

namespace dvc::vm {
namespace {

struct VmFixture {
  VmFixture() {
    fabric.add_cluster("a", 2);
    cfg.ram_bytes = 1 << 20;  // tiny guest: fast saves in tests
  }

  sim::Simulation sim;
  hw::Fabric fabric{sim, {}};
  GuestConfig cfg;
};

/// Guest software double that counts lifecycle callbacks.
class FakeGuest final : public GuestSoftware {
 public:
  int snapshots = 0;
  int restores = 0;
  int kills = 0;
  std::string last_restored;

  [[nodiscard]] std::any snapshot_state() const override {
    ++const_cast<FakeGuest*>(this)->snapshots;
    return std::string("state@") + std::to_string(snapshots);
  }
  void restore_state(const std::any& state) override {
    ++restores;
    last_restored = std::any_cast<std::string>(state);
  }
  void on_killed() override { ++kills; }
};

TEST(VirtualMachineTest, CreatedFrozenWithDarkNic) {
  VmFixture f;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  EXPECT_EQ(vm.state(), DomainState::kPaused);
  EXPECT_FALSE(f.fabric.network().host_up(vm.host()));
  vm.place_on(f.fabric.node(0));
  vm.resume();
  EXPECT_TRUE(vm.running());
  EXPECT_TRUE(f.fabric.network().host_up(vm.host()));
}

TEST(VirtualMachineTest, PlacementAppliesParavirtTax) {
  VmFixture f;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  vm.place_on(f.fabric.node(0));
  const double raw = f.fabric.node(0).spec().flops;
  EXPECT_DOUBLE_EQ(vm.flops(), raw * 0.97);  // default 3% overhead
}

TEST(VirtualMachineTest, GuestTimerFiresAfterDelay) {
  VmFixture f;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  vm.place_on(f.fabric.node(0));
  vm.resume();
  sim::Time fired = 0;
  vm.schedule(sim::kSecond, [&] { fired = f.sim.now(); });
  f.sim.run();
  EXPECT_EQ(fired, sim::kSecond);
}

TEST(VirtualMachineTest, PauseStretchesGuestTimerByPauseLength) {
  VmFixture f;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  vm.place_on(f.fabric.node(0));
  vm.resume();
  sim::Time fired = 0;
  vm.schedule(10 * sim::kSecond, [&] { fired = f.sim.now(); });
  // Freeze from t=4 s to t=9 s: the timer had 6 s to go, so it fires at
  // 9 + 6 = 15 s of true time (10 s of guest progress).
  f.sim.schedule_at(4 * sim::kSecond, [&] { vm.pause(); });
  f.sim.schedule_at(9 * sim::kSecond, [&] { vm.resume(); });
  f.sim.run();
  EXPECT_EQ(fired, 15 * sim::kSecond);
  EXPECT_EQ(vm.total_frozen(), 5 * sim::kSecond);
}

TEST(VirtualMachineTest, TimerScheduledWhilePausedWaitsForResume) {
  VmFixture f;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  vm.place_on(f.fabric.node(0));
  // Not yet resumed: scheduled work must not run while frozen.
  sim::Time fired = 0;
  vm.schedule(sim::kSecond, [&] { fired = f.sim.now(); });
  f.sim.schedule_at(5 * sim::kSecond, [&] { vm.resume(); });
  f.sim.run();
  EXPECT_EQ(fired, 6 * sim::kSecond);
}

TEST(VirtualMachineTest, CancelAndRemaining) {
  VmFixture f;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  vm.place_on(f.fabric.node(0));
  vm.resume();
  bool fired = false;
  const GuestTimerId id = vm.schedule(10 * sim::kSecond, [&] { fired = true; });
  f.sim.run_until(4 * sim::kSecond);
  EXPECT_EQ(vm.remaining(id), 6 * sim::kSecond);
  EXPECT_TRUE(vm.cancel(id));
  EXPECT_FALSE(vm.cancel(id));
  EXPECT_EQ(vm.remaining(id), 0);
  f.sim.run();
  EXPECT_FALSE(fired);
}

TEST(VirtualMachineTest, RemainingIsFrozenDuringPause) {
  VmFixture f;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  vm.place_on(f.fabric.node(0));
  vm.resume();
  const GuestTimerId id = vm.schedule(10 * sim::kSecond, [] {});
  f.sim.run_until(3 * sim::kSecond);
  vm.pause();
  f.sim.run_until(20 * sim::kSecond);
  EXPECT_EQ(vm.remaining(id), 7 * sim::kSecond);
}

TEST(VirtualMachineTest, ThawedTimersDueOnOneTickFireInIdOrder) {
  VmFixture f;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  vm.place_on(f.fabric.node(0));
  vm.resume();
  std::vector<GuestTimerId> fired;
  const auto record = [&](GuestTimerId* id) {
    return [&fired, id] { fired.push_back(*id); };
  };
  GuestTimerId a = kInvalidGuestTimer;
  GuestTimerId b = kInvalidGuestTimer;
  GuestTimerId c = kInvalidGuestTimer;
  // Due at 5 s, 11 s and 5 s; frozen at 3 s with 2 s, 8 s and 2 s to go.
  a = vm.schedule(5 * sim::kSecond, record(&a));
  f.sim.run_until(sim::kSecond);
  b = vm.schedule(10 * sim::kSecond, record(&b));
  f.sim.run_until(2 * sim::kSecond);
  c = vm.schedule(3 * sim::kSecond, record(&c));
  f.sim.run_until(3 * sim::kSecond);
  vm.pause();
  f.sim.run_until(10 * sim::kSecond);
  vm.resume();
  // a and c both fall due at 12 s: the lower id goes first.
  f.sim.run_until(12 * sim::kSecond);
  EXPECT_EQ(fired, (std::vector<GuestTimerId>{a, c}));
  f.sim.run();
  EXPECT_EQ(fired, (std::vector<GuestTimerId>{a, c, b}));
  EXPECT_EQ(f.sim.now(), 18 * sim::kSecond);
}

/// A guest-timer closure that counts its lives and calls; not trivially
/// copyable, so the table holds it behind an owning pointer.
struct Counted {
  int* live;
  int* calls;
  Counted(int* l, int* c) : live(l), calls(c) { ++*live; }
  Counted(const Counted& o) : Counted(o.live, o.calls) {}
  Counted& operator=(const Counted&) = delete;
  ~Counted() { --*live; }
  void operator()() const { ++*calls; }
};
static_assert(!sim::Callback::stores_inline<Counted>);

TEST(GuestTimerTableTest, BoxedClosureDiesExactlyOnce) {
  sim::Simulation s;
  int live = 0;
  int calls = 0;
  {
    GuestTimerTable timers(s);
    timers.add(sim::kSecond, Counted(&live, &calls), /*armed=*/true);
    const GuestTimerId cancelled =
        timers.add(2 * sim::kSecond, Counted(&live, &calls), true);
    timers.add(3 * sim::kSecond, Counted(&live, &calls), /*armed=*/false);
    EXPECT_EQ(live, 3);
    EXPECT_TRUE(timers.cancel(cancelled));
    EXPECT_EQ(live, 2);
    s.run();
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(live, 1);  // the fired one is gone, the frozen one waits
    timers.thaw();
    timers.freeze();
    timers.thaw();
    EXPECT_EQ(live, 1);
    timers.drop();
    EXPECT_EQ(live, 0);
    timers.add(sim::kSecond, Counted(&live, &calls), true);
    timers.add(sim::kSecond, Counted(&live, &calls), false);
    EXPECT_EQ(live, 2);
  }
  EXPECT_EQ(live, 0);  // pending ones die with their table
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(GuestTimerTableTest, MoveOnlyClosureRunsAcrossFreezeAndThaw) {
  sim::Simulation s;
  GuestTimerTable timers(s);
  int seen = 0;
  timers.add(sim::kSecond, [&seen, p = std::make_unique<int>(9)] {
    seen = *p;
  }, true);
  timers.freeze();
  timers.thaw();
  s.run();
  EXPECT_EQ(seen, 9);
}

/// Timer callbacks that schedule and cancel other timers, and the state a
/// fired timer leaves behind; the same contract for every context.
void check_timer_callbacks(sim::Simulation& sim, ExecutionContext& ctx) {
  std::vector<int> fired;
  GuestTimerId victim = kInvalidGuestTimer;
  const GuestTimerId first = ctx.schedule(sim::kSecond, [&] {
    fired.push_back(1);
    // Enough new timers to grow the table from inside a callback.
    for (int i = 0; i < 8; ++i) {
      ctx.schedule(sim::kSecond, [&fired, i] { fired.push_back(10 + i); });
    }
    EXPECT_TRUE(ctx.cancel(victim));
  });
  victim = ctx.schedule(2 * sim::kSecond, [&] { fired.push_back(2); });
  sim.run();
  EXPECT_EQ(fired,
            (std::vector<int>{1, 10, 11, 12, 13, 14, 15, 16, 17}));
  EXPECT_EQ(sim.now(), 2 * sim::kSecond);
  EXPECT_FALSE(ctx.cancel(first));  // already fired
  EXPECT_EQ(ctx.remaining(first), 0);
  EXPECT_FALSE(ctx.cancel(victim));  // already cancelled
  EXPECT_EQ(ctx.remaining(victim), 0);
}

TEST(VirtualMachineTest, TimerCallbacksMayScheduleAndCancel) {
  VmFixture f;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  vm.place_on(f.fabric.node(0));
  vm.resume();
  check_timer_callbacks(f.sim, vm);
}

TEST(VirtualMachineTest, NonVirtualizedWallClockJumpsAcrossPause) {
  VmFixture f;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  vm.place_on(f.fabric.node(0));
  vm.resume();
  const sim::Time t0 = vm.wall_now();
  f.sim.run_until(2 * sim::kSecond);
  vm.pause();
  f.sim.run_until(60 * sim::kSecond);
  vm.resume();
  // The guest's clock re-syncs to host time: the 58 s gap is visible.
  EXPECT_EQ(vm.wall_now() - t0, 60 * sim::kSecond);
}

TEST(VirtualMachineTest, VirtualizedWallClockHidesPause) {
  VmFixture f;
  f.cfg.virtualize_time = true;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  vm.place_on(f.fabric.node(0));
  vm.resume();
  const sim::Time t0 = vm.wall_now();
  f.sim.run_until(2 * sim::kSecond);
  vm.pause();
  f.sim.run_until(60 * sim::kSecond);
  vm.resume();
  EXPECT_EQ(vm.wall_now() - t0, 2 * sim::kSecond);
}

TEST(VirtualMachineTest, WatchdogTripsOnlyOnLongGaps) {
  VmFixture f;
  f.cfg.watchdog_period = 10 * sim::kSecond;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  vm.place_on(f.fabric.node(0));
  vm.resume();
  // Short pause: no timeout.
  f.sim.run_until(sim::kSecond);
  vm.pause();
  f.sim.run_until(2 * sim::kSecond);
  vm.resume();
  EXPECT_EQ(vm.watchdog_timeouts(), 0u);
  EXPECT_EQ(vm.kernel_messages_total(), 0u);
  // Long pause: one timeout, with two kernel log messages.
  vm.pause();
  f.sim.run_until(60 * sim::kSecond);
  vm.resume();
  EXPECT_EQ(vm.watchdog_timeouts(), 1u);
  EXPECT_EQ(vm.kernel_messages_total(), 2u);
  EXPECT_TRUE(vm.running());  // execution unaffected (paper §3.2)
}

TEST(VirtualMachineTest, WatchdogCanBeDisabled) {
  VmFixture f;
  f.cfg.watchdog_enabled = false;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  vm.place_on(f.fabric.node(0));
  vm.resume();
  vm.pause();
  f.sim.run_until(sim::kMinute);
  vm.resume();
  EXPECT_EQ(vm.watchdog_timeouts(), 0u);
}

TEST(VirtualMachineTest, KillDropsTimersAndNotifiesSoftware) {
  VmFixture f;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  FakeGuest guest;
  vm.set_guest_software(&guest);
  vm.place_on(f.fabric.node(0));
  vm.resume();
  bool fired = false;
  vm.schedule(sim::kSecond, [&] { fired = true; });
  vm.kill();
  f.sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(vm.state(), DomainState::kDead);
  EXPECT_EQ(guest.kills, 1);
  EXPECT_FALSE(f.fabric.network().host_up(vm.host()));
  // A dead VM refuses new timers.
  EXPECT_EQ(vm.schedule(sim::kSecond, [] {}), kInvalidGuestTimer);
}

TEST(VirtualMachineTest, RollbackRestoresSoftwareState) {
  VmFixture f;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  FakeGuest guest;
  vm.set_guest_software(&guest);
  vm.place_on(f.fabric.node(0));
  vm.resume();
  vm.kill();
  f.sim.run_until(sim::kMinute);
  vm.rollback_and_resume(std::any(std::string("ckpt-7")));
  EXPECT_TRUE(vm.running());
  EXPECT_EQ(guest.restores, 1);
  EXPECT_EQ(guest.last_restored, "ckpt-7");
  EXPECT_GE(vm.watchdog_timeouts(), 1u);  // restore gap trips the watchdog
}

TEST(VirtualMachineTest, DirtyTrackingCountsOnlyRunningTime) {
  VmFixture f;
  f.cfg.ram_bytes = 1ull << 30;
  f.cfg.dirty_rate_bps = 10e6;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  vm.place_on(f.fabric.node(0));
  vm.resume();
  // Before any image exists, "dirty" is the whole guest.
  EXPECT_EQ(vm.dirty_bytes_since_last_image(), f.cfg.ram_bytes);
  EXPECT_FALSE(vm.has_image_baseline());
  vm.mark_imaged();
  EXPECT_TRUE(vm.has_image_baseline());
  EXPECT_EQ(vm.dirty_bytes_since_last_image(), 0u);
  // 10 s of running at 10 MB/s = 100 MB dirty.
  f.sim.run_until(10 * sim::kSecond);
  EXPECT_NEAR(static_cast<double>(vm.dirty_bytes_since_last_image()),
              100e6, 1e6);
  // A 60 s freeze dirties nothing.
  vm.pause();
  f.sim.run_until(70 * sim::kSecond);
  vm.resume();
  EXPECT_NEAR(static_cast<double>(vm.dirty_bytes_since_last_image()),
              100e6, 1e6);
  // Dirty volume is clamped at guest RAM.
  f.sim.run_until(70 * sim::kSecond + 300 * sim::kSecond);
  EXPECT_EQ(vm.dirty_bytes_since_last_image(), f.cfg.ram_bytes);
}

// ---------------------------------------------------------------------------
// Hypervisor

struct HvFixture : VmFixture {
  HvFixture()
      : store(sim, {}),
        images(store),
        fleet(sim, fabric, {}, sim::Rng(5)) {
    fleet.set_metrics(&metrics);
  }

  telemetry::MetricsRegistry metrics;
  storage::SharedStore store;
  storage::ImageManager images;
  HypervisorFleet fleet;
};

TEST(HypervisorTest, BootTakesConfiguredTime) {
  HvFixture f;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  bool booted = false;
  f.fleet.on_node(0).boot_domain(vm, [&] { booted = true; });
  f.sim.run();
  EXPECT_TRUE(booted);
  EXPECT_TRUE(vm.running());
  EXPECT_EQ(vm.placed_on(), 0u);
  EXPECT_EQ(f.sim.now(), Hypervisor::kBootTime);
}

TEST(HypervisorTest, SaveCapturesSnapshotAndSealsImage) {
  HvFixture f;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  FakeGuest guest;
  vm.set_guest_software(&guest);
  f.fleet.on_node(0).boot_domain(vm, {});
  f.sim.run();

  const auto set = f.images.open_set("t", 1);
  bool ok = false;
  std::any snap;
  f.fleet.on_node(0).save_domain(vm, f.images, set, 0,
                                 [&](bool r, std::any s) {
                                   ok = r;
                                   snap = std::move(s);
                                 });
  f.sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(guest.snapshots, 1);
  EXPECT_EQ(std::any_cast<std::string>(snap), "state@1");
  EXPECT_EQ(vm.state(), DomainState::kSaved);
  ASSERT_NE(f.images.find_set(set), nullptr);
  EXPECT_TRUE(f.images.find_set(set)->sealed);
  EXPECT_EQ(f.images.find_set(set)->total_bytes(), f.cfg.ram_bytes);
  EXPECT_EQ(f.metrics.counter_value("vm.hypervisor.saves"), 1u);

  f.fleet.on_node(0).resume_domain(vm);
  EXPECT_TRUE(vm.running());
}

TEST(HypervisorTest, SaveOfDeadDomainReportsFailure) {
  HvFixture f;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  f.fleet.on_node(0).boot_domain(vm, {});
  f.sim.run();
  vm.kill();
  const auto set = f.images.open_set("t", 1);
  bool ok = true;
  f.fleet.on_node(0).save_domain(vm, f.images, set, 0,
                                 [&](bool r, std::any) { ok = r; });
  f.sim.run();
  EXPECT_FALSE(ok);
  EXPECT_FALSE(f.images.find_set(set)->sealed);
}

TEST(HypervisorTest, NodeFailureKillsResidentDomains) {
  HvFixture f;
  VirtualMachine vm1(f.sim, f.fabric.network(), 1, f.cfg);
  VirtualMachine vm2(f.sim, f.fabric.network(), 2, f.cfg);
  f.fleet.on_node(0).boot_domain(vm1, {});
  f.fleet.on_node(0).boot_domain(vm2, {});
  f.sim.run();
  EXPECT_EQ(f.fleet.on_node(0).resident_count(), 2u);
  f.fabric.fail_node(0);
  EXPECT_EQ(vm1.state(), DomainState::kDead);
  EXPECT_EQ(vm2.state(), DomainState::kDead);
  EXPECT_EQ(f.fleet.on_node(0).resident_count(), 0u);
}

TEST(HypervisorTest, RestoreMovesDomainToNewNode) {
  HvFixture f;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  FakeGuest guest;
  vm.set_guest_software(&guest);
  f.fleet.on_node(0).boot_domain(vm, {});
  f.sim.run();

  const auto set = f.images.open_set("t", 1);
  std::any snap;
  f.fleet.on_node(0).save_domain(vm, f.images, set, 0,
                                 [&](bool, std::any s) { snap = std::move(s); });
  f.sim.run();

  // The original node dies; the saved domain is adopted by node 1.
  f.fabric.fail_node(0);
  EXPECT_EQ(vm.state(), DomainState::kDead);
  bool restored = false;
  f.fleet.on_node(1).restore_domain(vm, f.images, set, 0, snap,
                                    [&](bool ok) { restored = ok; });
  f.sim.run();
  EXPECT_TRUE(restored);
  EXPECT_TRUE(vm.running());
  EXPECT_EQ(vm.placed_on(), 1u);
  EXPECT_EQ(guest.restores, 1);
  EXPECT_EQ(f.metrics.counter_value("vm.hypervisor.restores"), 1u);
  // The VM keeps its fabric identity across the move.
  EXPECT_TRUE(f.fabric.network().host_up(vm.host()));
}

TEST(HypervisorTest, RestoreFromUnsealedSetFails) {
  HvFixture f;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  const auto set = f.images.open_set("t", 2);  // will never seal
  f.images.add_member(set, 0, 100);
  f.sim.run();
  bool ok = true;
  f.fleet.on_node(1).restore_domain(vm, f.images, set, 0, {},
                                    [&](bool r) { ok = r; });
  f.sim.run();
  EXPECT_FALSE(ok);
}

TEST(HypervisorTest, EvictRejectsRunningDomain) {
  HvFixture f;
  VirtualMachine vm(f.sim, f.fabric.network(), 1, f.cfg);
  f.fleet.on_node(0).boot_domain(vm, {});
  f.sim.run();
  EXPECT_THROW(f.fleet.on_node(0).evict(vm), std::logic_error);
  vm.pause();
  EXPECT_NO_THROW(f.fleet.on_node(0).evict(vm));
  EXPECT_EQ(f.fleet.on_node(0).resident_count(), 0u);
}

TEST(NativeContextTest, RunsAtFullNodeSpeedAndTracksFailure) {
  VmFixture f;
  NativeContext ctx(f.sim, f.fabric, 0);
  EXPECT_DOUBLE_EQ(ctx.flops(), f.fabric.node(0).spec().flops);
  EXPECT_TRUE(ctx.running());
  sim::Time fired = 0;
  const GuestTimerId id = ctx.schedule(sim::kSecond, [&] { fired = f.sim.now(); });
  EXPECT_GT(ctx.remaining(id), 0);
  f.sim.run();
  EXPECT_EQ(fired, sim::kSecond);
  f.fabric.fail_node(0);
  EXPECT_FALSE(ctx.running());
}

TEST(NativeContextTest, CancelWorks) {
  VmFixture f;
  NativeContext ctx(f.sim, f.fabric, 0);
  bool fired = false;
  const GuestTimerId id = ctx.schedule(sim::kSecond, [&] { fired = true; });
  EXPECT_TRUE(ctx.cancel(id));
  f.sim.run();
  EXPECT_FALSE(fired);
}

TEST(NativeContextTest, TimerCallbacksMayScheduleAndCancel) {
  VmFixture f;
  NativeContext ctx(f.sim, f.fabric, 0);
  check_timer_callbacks(f.sim, ctx);
}

}  // namespace
}  // namespace dvc::vm
