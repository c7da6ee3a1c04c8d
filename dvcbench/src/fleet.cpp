#include "fleet.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "app/workload.hpp"
#include "check/invariants.hpp"
#include "ckpt/lsc.hpp"
#include "core/machine_room.hpp"
#include "rm/scheduler.hpp"
#include "sim/rng.hpp"

namespace dvcbench {

namespace {

using dvc::sim::from_seconds;

// Machine room and traffic shape. Offered load is near the room's
// capacity so the burst queues and backfill has work to do.
constexpr std::uint32_t kClusters = 2;
constexpr std::uint32_t kNodesPerCluster = 32;
constexpr double kWindowS = 200.0;        // arrivals fall in [0, window)
constexpr double kMeanGapS = 5.0;         // Poisson inter-arrival mean
constexpr std::uint32_t kBurstJobs = 8;   // one burst, 1 s apart
constexpr std::uint32_t kMinRanks = 2;
constexpr std::uint32_t kMaxRanks = 16;
constexpr std::uint32_t kMinIters = 50;  // 0.1 sim s of compute each
constexpr std::uint32_t kMaxIters = 200;
constexpr double kCheckpointIntervalS = 30.0;
constexpr double kBootEstimateS = 20.0;
constexpr double kSliceS = 30.0;
constexpr double kHorizonS = 3.0 * 3600.0;
constexpr double kSettleS = 60.0;
constexpr std::uint64_t kDrainLimit = 2'000'000;
constexpr std::uint32_t kCells = 100;
constexpr std::size_t kTracedCells = 6;

struct FleetJob {
  dvc::rm::JobId id = dvc::rm::kInvalidJob;
  dvc::core::VirtualCluster* vc = nullptr;  ///< null before start, after end
  std::unique_ptr<dvc::app::ParallelApp> application;
  bool finishing = false;
  std::uint64_t completed = 0;  ///< 1 once the job completed
};

struct FleetArrival {
  double at_s = 0.0;  ///< due submission time (sim seconds)
  std::uint32_t ranks = 2;
  std::uint32_t iterations = 100;
  std::uint32_t home_cluster = 0;
};

/// One fleet cell's generated inputs.
struct FleetCell {
  std::string key;  ///< "fleet:<cell seed>"
  std::uint64_t seed = 0;
  std::vector<FleetArrival> arrivals;  ///< sorted by at_s
};

/// Poisson arrivals plus one burst, from `seed`.
FleetCell make_fleet_cell(std::uint64_t seed);

/// Runs one fleet cell. With `trace`/`tally` non-null, each call into a
/// layer gets a host span and the cell's layer counts are tallied.
CellResult run_fleet_cell(const FleetCell& cell, bool check,
                                        HostTrace* trace, LayerTally* tally);

/// A host span when tracing, nothing otherwise.
class MaybeScope final {
 public:
  MaybeScope(HostTrace* trace, const char* name) {
    if (trace != nullptr) scope_.emplace(*trace, name);
  }

 private:
  std::optional<HostTrace::Scope> scope_;
};

std::string fmt3(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(std::vector<FleetCell> cells)
      : cells_(std::move(cells)) {}

  const std::string& name() const noexcept override { return name_; }
  std::size_t size() const noexcept override { return cells_.size(); }
  std::size_t traced_cells() const noexcept override {
    return std::min(kTracedCells, cells_.size());
  }
  std::string key(std::size_t i) const override { return cells_.at(i).key; }

  CellResult run(std::size_t i) const override {
    return run_fleet_cell(cells_.at(i), true, nullptr, nullptr);
  }
  CellResult run_unchecked(std::size_t i) const override {
    return run_fleet_cell(cells_.at(i), false, nullptr, nullptr);
  }
  CellResult run_traced(std::size_t i, HostTrace& trace,
                        LayerTally& tally) const override {
    return run_fleet_cell(cells_.at(i), true, &trace, &tally);
  }

 private:
  std::string name_ = "fleet";
  std::vector<FleetCell> cells_;
};

FleetCell make_fleet_cell(std::uint64_t seed) {
  FleetCell cell;
  cell.seed = seed;
  cell.key = "fleet:" + std::to_string(seed);
  dvc::sim::Rng rng(seed);
  const auto job = [&rng](double at) {
    FleetArrival a;
    a.at_s = at;
    a.ranks = kMinRanks +
              static_cast<std::uint32_t>(rng.below(kMaxRanks - kMinRanks + 1));
    a.iterations = kMinIters + static_cast<std::uint32_t>(
                                   rng.below(kMaxIters - kMinIters + 1));
    a.home_cluster = static_cast<std::uint32_t>(rng.below(kClusters));
    return a;
  };
  for (double t = rng.exponential(kMeanGapS); t < kWindowS;
       t += rng.exponential(kMeanGapS)) {
    cell.arrivals.push_back(job(t));
  }
  const double burst = rng.uniform(0.0, kWindowS);
  for (std::uint32_t b = 0; b < kBurstJobs; ++b) {
    cell.arrivals.push_back(job(burst + b));
  }
  std::stable_sort(cell.arrivals.begin(), cell.arrivals.end(),
                   [](const FleetArrival& a, const FleetArrival& b) {
                     return a.at_s < b.at_s;
                   });
  return cell;
}

CellResult run_fleet_cell(const FleetCell& cell, bool check, HostTrace* trace,
                          LayerTally* tally) {
  using namespace dvc;  // NOLINT — brevity
  const MaybeScope whole(trace, "tools.cell");
  const auto t_drive = [&](auto&& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    {
      const MaybeScope s(trace, "sim.run_until");
      fn();
    }
    if (tally != nullptr) {
      tally->run_host_s += std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    }
  };

  std::optional<core::MachineRoom> room_slot;
  {
    const MaybeScope s(trace, "core.machine_room");
    core::MachineRoomOptions o;
    o.clusters = kClusters;
    o.nodes_per_cluster = kNodesPerCluster;
    o.seed = cell.seed;
    o.store.write_bps = 400e6;
    o.store.read_bps = 800e6;
    room_slot.emplace(o);
  }
  core::MachineRoom& room = *room_slot;

  rm::Scheduler::Config cfg;
  cfg.auto_run = false;
  cfg.allow_spanning = true;
  cfg.mold_oversized = false;
  cfg.fail_jobs_on_node_failure = false;
  cfg.easy_backfill = true;
  rm::Scheduler scheduler(room.sim, room.fabric, cfg);
  scheduler.set_metrics(&room.metrics);

  ckpt::NtpLscCoordinator lsc(room.sim, {}, sim::Rng(cell.seed ^ 0xD5C));
  lsc.set_metrics(&room.metrics);
  std::optional<check::Invariants> inv;
  if (check) {
    const MaybeScope s(trace, "check.attach");
    inv.emplace(check::Invariants::Wiring{&room.sim, room.dvc.get(),
                                          &room.images, &room.fence,
                                          &room.metrics});
    inv->attach();
    lsc.set_check(&*inv);
  }

  vm::GuestConfig guest;
  guest.ram_bytes = 128ULL << 20;

  // The job lifecycle core::VirtualJobRunner implements (provision a VC on
  // the allocation, run the workload, arm LSC auto-recovery), except that
  // teardown waits for an in-flight checkpoint or recovery to land: the
  // runner destroys the VC at once, and an LSC round still armed for it
  // then fires into freed VMs.
  std::vector<FleetJob> jobs(cell.arrivals.size());
  std::map<rm::JobId, std::size_t> job_of;
  std::size_t finished = 0;
  std::function<void(std::size_t, bool)> teardown =
      [&](std::size_t j, bool completed) {
        FleetJob& job = jobs[j];
        const core::VcState st = job.vc->state();
        if (st != core::VcState::kRunning && st != core::VcState::kFailed) {
          room.sim.schedule_after(sim::kSecond,
                                  [&teardown, j, completed] {
                                    teardown(j, completed);
                                  });
          return;
        }
        if (tally != nullptr && job.application != nullptr) {
          tally->add_app(*job.application, *job.vc);
        }
        room.dvc->destroy_vc(*job.vc);
        job.vc = nullptr;
        job.application.reset();
        if (completed) {
          ++job.completed;
          scheduler.complete(job.id);
        } else {
          scheduler.fail(job.id);
        }
        ++finished;
      };
  const auto finish = [&](std::size_t j, bool completed) {
    FleetJob& job = jobs[j];
    if (job.finishing) return;
    job.finishing = true;
    room.dvc->disable_auto_recovery(*job.vc);
    // Never tear down from inside the application's own call stack.
    room.sim.schedule_after(0, [&teardown, j, completed] {
      teardown(j, completed);
    });
  };
  scheduler.set_on_start([&](const rm::JobRecord& rec) {
    // A job can start inside submit(), before job_of knows its id.
    room.sim.schedule_after(0, [&, id = rec.id, nodes = rec.allocation.nodes] {
      const std::size_t j = job_of.at(id);
      FleetJob& job = jobs[j];
      const FleetArrival& a = cell.arrivals[j];
      core::VcSpec spec;
      spec.name = "job" + std::to_string(j);
      spec.size = a.ranks;
      spec.guest = guest;
      job.vc = &room.dvc->create_vc(spec, nodes, [&, j, a] {
        FleetJob& ready = jobs[j];
        app::WorkloadSpec w;
        w.name = "job" + std::to_string(j);
        w.ranks = a.ranks;
        w.iterations = a.iterations;
        w.flops_per_rank_iter = 1e9;
        w.pattern = app::Pattern::kRing;
        w.bytes_per_msg = 64 << 10;
        ready.application = std::make_unique<app::ParallelApp>(
            room.sim, room.fabric.network(), ready.vc->contexts(), w);
        room.dvc->attach_app(*ready.vc, *ready.application);
        ready.application->set_on_complete([&finish, j] { finish(j, true); });
        core::DvcManager::RecoveryPolicy policy;
        policy.coordinator = &lsc;
        policy.interval = from_seconds(kCheckpointIntervalS);
        room.dvc->enable_auto_recovery(*ready.vc, policy);
        ready.application->start();
      });
    });
  });

  for (std::size_t j = 0; j < cell.arrivals.size(); ++j) {
    const FleetArrival& a = cell.arrivals[j];
    room.sim.schedule_at(from_seconds(a.at_s), [&, j, a] {
      rm::JobRequest req;
      req.name = "job" + std::to_string(j);
      req.nodes_requested = a.ranks;
      req.home_cluster = a.home_cluster;
      // A user's walltime request: the bare compute plus half again, plus
      // boot, so estimates run long as real requests do.
      req.node_seconds_work = 1.5 * a.ranks * a.iterations * 0.1;
      req.startup_overhead = from_seconds(kBootEstimateS);
      const MaybeScope s(trace, "rm.submit");
      const rm::JobId id = scheduler.submit(req);
      jobs[j].id = id;
      job_of[id] = j;
      if (scheduler.job(id).state == rm::JobState::kFailed) ++finished;
    });
  }
  const sim::Time horizon = from_seconds(kHorizonS);
  std::uint64_t peak_pending = 0;
  while (finished < cell.arrivals.size() && room.sim.now() < horizon) {
    t_drive([&] { room.sim.run_until(room.sim.now() + from_seconds(kSliceS)); });
    peak_pending = std::max<std::uint64_t>(peak_pending, room.sim.pending());
    // A VC whose recovery gave up is a diagnosed, abandoned job.
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (jobs[j].vc != nullptr &&
          jobs[j].vc->state() == core::VcState::kFailed) {
        finish(j, false);
      }
    }
  }
  t_drive([&] { room.sim.run_until(room.sim.now() + from_seconds(kSettleS)); });
  const bool all_finished = finished == cell.arrivals.size();
  if (all_finished) t_drive([&] { room.sim.run(kDrainLimit); });
  if (inv) {
    const MaybeScope s(trace, "check.end_of_run");
    inv->end_of_run(/*expect_quiesced=*/all_finished);
  }

  CellResult r;
  {
    const MaybeScope s(trace, "telemetry.export");
    r.jobs = cell.arrivals.size();
    for (const FleetJob& job : jobs) r.jobs_completed += job.completed;
    r.completed = r.jobs_completed == r.jobs;
    r.sim_time_s = sim::to_seconds(room.sim.now());
    r.makespan_s = sim::to_seconds(scheduler.last_finish());
    r.busy_node_s = scheduler.busy_node_seconds();
    r.node_s = static_cast<double>(kClusters * kNodesPerCluster) *
               r.makespan_s;
    for (const FleetJob& job : jobs) {
      if (job.id == rm::kInvalidJob) continue;
      const rm::JobRecord& rec = scheduler.job(job.id);
      if (rec.state == rm::JobState::kQueued) continue;
      r.job_waits_s.push_back(sim::to_seconds(rec.started_at - rec.submitted_at));
    }
    const std::size_t violations = inv ? inv->violations().size() : 0;
    r.ok = all_finished && violations == 0;

    std::string j = "{\"cell\":\"" + cell.key + "\"";
    j += ",\"jobs\":" + std::to_string(r.jobs);
    j += ",\"completed\":" + std::to_string(r.jobs_completed);
    j += ",\"abandoned\":" + std::to_string(finished - r.jobs_completed);
    j += ",\"backfilled\":" + std::to_string(scheduler.backfilled());
    j += ",\"checkpoints\":" + std::to_string(room.dvc->checkpoints_taken());
    j += ",\"recoveries\":" + std::to_string(room.dvc->recoveries_performed());
    j += ",\"makespan_s\":" + fmt3(r.makespan_s);
    j += ",\"sim_time_s\":" + fmt3(r.sim_time_s);
    j += ",\"busy_node_s\":" + fmt3(r.busy_node_s);
    j += ",\"waits_s\":[";
    for (std::size_t k = 0; k < r.job_waits_s.size(); ++k) {
      if (k > 0) j += ",";
      j += fmt3(r.job_waits_s[k]);
    }
    j += "],\"violations\":[";
    if (inv) {
      for (std::size_t k = 0; k < inv->violations().size(); ++k) {
        if (k > 0) j += ",";
        j += "\"" + inv->violations()[k].invariant + "\"";
      }
    }
    j += "]}";
    r.outcome = std::move(j);

    if (tally != nullptr) {
      tally->add_registry(room.metrics);
      tally->events += room.sim.executed();
      tally->peak_pending = std::max(tally->peak_pending, peak_pending);
      tally->job_waits_s.insert(tally->job_waits_s.end(),
                                r.job_waits_s.begin(), r.job_waits_s.end());
      tally->busy_node_s += r.busy_node_s;
      tally->node_s += r.node_s;
    }
  }
  if (inv) inv->detach();
  return r;
}

}  // namespace

std::unique_ptr<Workload> make_fleet_workload(std::uint64_t seed) {
  std::vector<FleetCell> cells;
  cells.reserve(kCells);
  for (std::uint32_t j = 1; j <= kCells; ++j) {
    cells.push_back(make_fleet_cell(seed * 1000 + j));
  }
  return std::make_unique<FleetWorkload>(std::move(cells));
}

}  // namespace dvcbench
