// Allocation gate: a running ParallelApp's steady state (compute steps,
// messages, iterations) must not touch the heap, and a steady checkpoint
// round allocates per member only the records the checkpoint keeps. This
// binary replaces the global operator new with a counting one, so it links
// no other test.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "app/workload.hpp"
#include "hw/cluster.hpp"
#include "sim/simulation.hpp"
#include "storage/shared_store.hpp"
#include "tools/sweep.hpp"
#include "vm/native_context.hpp"
#include "vm/virtual_machine.hpp"

namespace {
std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++g_allocations;
  const auto a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (n + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dvc::app {
namespace {

constexpr RankId kRanks = 6;
/// Events run before counting: every rank pair the pattern uses is open
/// and every container has reached its high-water capacity.
constexpr std::uint64_t kWarmupEvents = 20'000;
constexpr std::uint64_t kMeasuredEvents = 5'000;

/// `kRanks` contexts of one kind on a one-cluster fabric, running one
/// long ParallelApp of the given pattern.
struct AppRig {
  AppRig(Pattern pattern, bool native) {
    fabric.add_cluster("a", kRanks);
    vm::GuestConfig cfg;
    cfg.ram_bytes = 1 << 20;
    for (RankId i = 0; i < kRanks; ++i) {
      if (native) {
        natives.push_back(
            std::make_unique<vm::NativeContext>(sim, fabric, i));
        contexts.push_back(natives.back().get());
      } else {
        vms.push_back(std::make_unique<vm::VirtualMachine>(
            sim, fabric.network(), i + 1, cfg));
        vms.back()->place_on(fabric.node(i));
        vms.back()->resume();
        contexts.push_back(vms.back().get());
      }
    }
    WorkloadSpec spec;
    spec.name = "alloc-gate";
    spec.ranks = kRanks;
    spec.iterations = 1'000'000;  // never finishes inside the window
    spec.flops_per_rank_iter = 1e7;
    spec.pattern = pattern;
    spec.bytes_per_msg = 64 << 10;
    app = std::make_unique<ParallelApp>(sim, fabric.network(), contexts,
                                        spec);
  }

  sim::Simulation sim;
  hw::Fabric fabric{sim, {}};
  std::vector<std::unique_ptr<vm::VirtualMachine>> vms;
  std::vector<std::unique_ptr<vm::NativeContext>> natives;
  std::vector<vm::ExecutionContext*> contexts;
  std::unique_ptr<ParallelApp> app;
};

struct Window {
  std::uint64_t events = 0;
  std::uint64_t allocations = 0;
};

/// Warms the rig up, then counts heap allocations over the next
/// kMeasuredEvents events.
Window measure(Pattern pattern, bool native) {
  AppRig rig(pattern, native);
  rig.app->start();
  rig.sim.run(kWarmupEvents);
  Window w;
  const std::uint64_t before = g_allocations;
  w.events = rig.sim.run(kMeasuredEvents);
  w.allocations = g_allocations - before;
  return w;
}

void expect_allocation_free(Pattern pattern, bool native) {
  const Window w = measure(pattern, native);
  ASSERT_EQ(w.events, kMeasuredEvents) << "the app stopped early";
  EXPECT_EQ(w.allocations, 0u)
      << static_cast<double>(w.allocations) / static_cast<double>(w.events)
      << " allocations per event";
}

TEST(AllocationGate, CounterSeesAllocations) {
  const std::uint64_t before = g_allocations;
  void* p = ::operator new(64);
  const std::uint64_t after = g_allocations;
  ::operator delete(p);
  EXPECT_EQ(after - before, 1u);
}

TEST(AllocationGate, VmNone) { expect_allocation_free(Pattern::kNone, false); }
TEST(AllocationGate, VmRing) { expect_allocation_free(Pattern::kRing, false); }
TEST(AllocationGate, VmBroadcast) {
  expect_allocation_free(Pattern::kBroadcast, false);
}
TEST(AllocationGate, VmTreeBroadcast) {
  expect_allocation_free(Pattern::kTreeBroadcast, false);
}
TEST(AllocationGate, VmAllToAll) {
  expect_allocation_free(Pattern::kAllToAll, false);
}
TEST(AllocationGate, NativeRing) {
  expect_allocation_free(Pattern::kRing, true);
}
TEST(AllocationGate, NativeAllToAll) {
  expect_allocation_free(Pattern::kAllToAll, true);
}

// ---- shared-store streams ---------------------------------------------------

/// Operations run before counting, and counted.
constexpr std::uint64_t kWarmupOps = 200;
constexpr std::uint64_t kMeasuredOps = 1'000;
/// Operations a stream keeps in flight at once.
constexpr int kStreams = 4;

/// A store under a steady stream of verified reads of one object (`read`)
/// or of writes whose completion removes the object it wrote: each
/// completion issues the next operation. Returns the allocations of
/// kMeasuredOps operations after kWarmupOps.
std::uint64_t store_stream_allocations(bool read) {
  struct Stream {
    sim::Simulation sim;
    storage::SharedStore store{sim, storage::SharedStore::Config{}};
    storage::ObjectId object = storage::kInvalidObject;
    std::uint64_t done = 0;
    bool ok = true;

    void next() {
      if (object != storage::kInvalidObject) {
        store.read_object(object, [this](storage::ReadError err) {
          ok = ok && err == storage::ReadError::kOk;
          ++done;
          next();
        });
      } else {
        store.write_object("ckpt", 1 << 20, 7, [this](storage::ObjectId id) {
          ok = ok && store.remove_object(id);
          ++done;
          next();
        });
      }
    }
    void run_to(std::uint64_t ops) {
      while (done < ops && sim.step()) {
      }
    }
  };
  Stream s;
  if (read) s.object = s.store.put_object("image", 1 << 20, 7);
  for (int i = 0; i < kStreams; ++i) s.next();
  s.run_to(kWarmupOps);
  const std::uint64_t before = g_allocations;
  s.run_to(kWarmupOps + kMeasuredOps);
  const std::uint64_t allocations = g_allocations - before;
  EXPECT_TRUE(s.ok);
  EXPECT_GE(s.done, kWarmupOps + kMeasuredOps) << "the stream stopped";
  return allocations;
}

TEST(AllocationGate, SharedStoreReadStream) {
  EXPECT_EQ(store_stream_allocations(/*read=*/true), 0u);
}

TEST(AllocationGate, SharedStoreWriteRemoveStream) {
  EXPECT_EQ(store_stream_allocations(/*read=*/false), 0u);
}

// ---- a checkpoint round ----------------------------------------------------

/// Rounds counted once pruning is active.
constexpr std::size_t kMeasuredRounds = 30;
/// Allowed growth of a round's allocations per added member: the guest
/// snapshot and the member's replica list, the two records a sealed
/// checkpoint keeps.
constexpr double kAllocationsPerMember = 2.0;

/// Heap allocations of a steady checkpoint round of a ckpt16-shaped cell
/// (HPL, no communication, two replica stores, three generations kept,
/// checker attached) with `members` guests, and, with `watchdog`, sweep26's
/// round watchdog and retry policy. After 200 s of warm-up it counts each
/// of the next kMeasuredRounds rounds from the event that ends one round
/// to the event that ends the next, and returns the median: a log that
/// doubles its capacity in one round is not a cost of every round.
double allocations_per_round(std::uint32_t members, bool watchdog = false) {
  const std::string n = std::to_string(members);
  const tools::ScenarioConfig cfg = tools::ScenarioConfig::parse(
      "trace = false\n"
      "seed = 7\n"
      "clusters = 1\n"
      "nodes_per_cluster = " + std::to_string(members + 4) + "\n"
      "store_write_mbps = 2000\n"
      "store_replicas = 2\n"
      "vc_size = " + n + "\n"
      "guest_ram_mib = 512\n"
      "workload = hpl\n"
      "pattern = none\n"
      "iterations = 100000\n"
      "iter_seconds = 1.0\n"
      "checkpoint_interval_s = 10\n"
      "keep_checkpoints = 3\n" +
      (watchdog ? "lsc.round_timeout_s = 30\n"
                  "lsc.max_round_retries = 2\n"
                : ""));
  tools::CellRig rig(tools::cell_spec(cfg));
  EXPECT_NE(rig.inv, nullptr) << "the checker must ride along";
  rig.start_recovery();
  sim::Simulation& sim = rig.room.sim;
  sim.run_until(200 * sim::kSecond);
  const telemetry::Counter& rounds =
      rig.room.metrics.counter("ckpt.lsc.rounds");
  EXPECT_GE(rounds.value(), 3u) << "pruning is not active yet";
  // Stop right after the event that ends a round.
  const auto next_round_end = [&] {
    const std::uint64_t seen = rounds.value();
    while (rounds.value() == seen) {
      if (!sim.step()) return false;
    }
    return true;
  };
  std::array<std::uint64_t, kMeasuredRounds> counts{};
  EXPECT_TRUE(next_round_end());
  for (std::uint64_t& count : counts) {
    const std::uint64_t before = g_allocations;
    if (!next_round_end()) {
      ADD_FAILURE() << "the cell stopped checkpointing";
      break;
    }
    count = g_allocations - before;
  }
  EXPECT_TRUE(rig.inv->ok()) << rig.inv->report();
  std::sort(counts.begin(), counts.end());
  return static_cast<double>(counts[kMeasuredRounds / 2]);
}

TEST(AllocationGate, CheckpointRoundPerMember) {
  const double at4 = allocations_per_round(4);
  const double at8 = allocations_per_round(8);
  const double per_member = (at8 - at4) / 4.0;
  std::printf("checkpoint round: %.0f allocations at 4 members, %.0f at 8, "
              "%.2f per added member\n",
              at4, at8, per_member);
  EXPECT_LE(per_member, kAllocationsPerMember);
  // The round watchdog is an event of the round's own operation: arming
  // and cancelling it allocates nothing.
  const double watched4 = allocations_per_round(4, /*watchdog=*/true);
  const double watched8 = allocations_per_round(8, /*watchdog=*/true);
  std::printf("with the round watchdog: %.0f at 4 members, %.0f at 8\n",
              watched4, watched8);
  EXPECT_EQ(watched4, at4);
  EXPECT_EQ(watched8, at8);
}

}  // namespace
}  // namespace dvc::app
