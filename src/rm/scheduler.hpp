#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "hw/cluster.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "telemetry/telemetry.hpp"

namespace dvc::rm {

using JobId = std::uint64_t;

inline constexpr JobId kInvalidJob = 0;

/// What a user submits. Jobs are *moldable*: they carry total work in
/// node-seconds and may run on fewer nodes than requested (more slowly),
/// which is how a non-spanning cluster copes with jobs bigger than itself.
struct JobRequest {
  std::string name;
  std::uint32_t nodes_requested = 1;
  /// Total work: runtime on n nodes = work / n.
  double node_seconds_work = 3600.0;
  /// Cluster the user submitted to (preferred home).
  hw::ClusterId home_cluster = 0;
  /// Minimum nodes the job will accept when molded down (0 = any size).
  std::uint32_t min_nodes = 0;
  /// Per-job one-time startup cost added to the runtime (e.g. virtual
  /// cluster provisioning when running under DVC).
  sim::Duration startup_overhead = 0;
};

enum class JobState : std::uint8_t {
  kQueued,
  kRunning,
  kCompleted,
  kFailed,
};

/// A job's nodes, spanning one or more clusters.
struct Allocation {
  std::vector<hw::NodeId> nodes;
  bool spans_clusters = false;
};

/// Runtime record of one job.
struct JobRecord {
  JobId id = kInvalidJob;
  JobRequest request;
  JobState state = JobState::kQueued;
  Allocation allocation;
  sim::Time submitted_at = 0;
  sim::Time started_at = 0;
  /// Start plus the runtime estimated from the request (EASY backfill).
  sim::Time expected_end = 0;
  sim::Time finished_at = 0;
};

/// FIFO + first-fit cluster scheduler (Torque/Moab stand-in) with the two
/// DVC-relevant behaviours from the paper's §1:
///   * failed nodes are never allocated, and a node failure under a
///     running job fails (or, with DVC recovery above it, interrupts) it;
///   * with `allow_spanning`, one job may take nodes from several clusters
///     — the capability virtual clusters add.
class Scheduler final {
 public:
  struct Config {
    bool allow_spanning = false;
    /// Mold oversized jobs down to what a single cluster can ever hold
    /// (only relevant when spanning is off; otherwise they would wait
    /// forever).
    bool mold_oversized = true;
    /// Run jobs automatically for work/nodes seconds (benches); when off,
    /// the caller drives completion via complete().
    bool auto_run = true;
    /// Kill a running job when one of its nodes dies. Turn off when a DVC
    /// layer above recovers jobs transparently (paper §1: the RM keeps
    /// scheduling "in the presence of node faults by using virtualized
    /// remote nodes").
    bool fail_jobs_on_node_failure = true;
    /// EASY backfill: when the queue head is blocked, later jobs may jump
    /// ahead if they fit now and their estimated completion does not delay
    /// the head's earliest possible start (computed from the running
    /// jobs' estimated end times).
    bool easy_backfill = false;
  };

  [[nodiscard]] const Config& config() const noexcept { return cfg_; }

  Scheduler(sim::Simulation& sim, hw::Fabric& fabric, Config cfg);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Submits a job; scheduling is attempted immediately and on every
  /// release/repair event.
  JobId submit(JobRequest req);

  /// Marks a caller-driven job complete and frees its nodes.
  void complete(JobId id);

  /// Marks a caller-driven job failed/abandoned and frees its nodes.
  void fail(JobId id);

  /// Called when a job starts, with its allocation.
  void set_on_start(std::function<void(const JobRecord&)> fn) {
    on_start_ = std::move(fn);
  }
  /// Called when a job finishes (completed or failed).
  void set_on_finish(std::function<void(const JobRecord&)> fn) {
    on_finish_ = std::move(fn);
  }

  [[nodiscard]] const JobRecord& job(JobId id) const { return jobs_.at(id); }
  [[nodiscard]] std::size_t queued() const noexcept { return queue_.size(); }
  [[nodiscard]] std::size_t running() const noexcept {
    return running_.size();
  }
  [[nodiscard]] std::uint64_t completed() const noexcept {
    return completed_count_;
  }
  [[nodiscard]] std::uint64_t failed() const noexcept {
    return failed_count_;
  }

  /// Mean time jobs spent queued (seconds).
  [[nodiscard]] const sim::SummaryStats& wait_stats() const noexcept {
    return waits_;
  }
  /// Busy node-seconds accumulated so far (utilisation numerator).
  [[nodiscard]] double busy_node_seconds() const;

  /// Completion time of the last job to finish (makespan measurements).
  [[nodiscard]] sim::Time last_finish() const noexcept {
    return last_finish_;
  }

  [[nodiscard]] std::uint64_t backfilled() const noexcept {
    return backfill_count_;
  }

  /// Attaches an optional metrics registry: job lifecycle counters and the
  /// placement-wait histogram land in `rm.scheduler.*`; each running job
  /// appears as a span on the "rm" timeline track.
  void set_metrics(telemetry::MetricsRegistry* m) noexcept { metrics_ = m; }

 private:
  void try_schedule();
  void try_backfill(const JobRecord& head);
  [[nodiscard]] sim::Time head_shadow_time(std::uint32_t head_need) const;
  [[nodiscard]] std::optional<Allocation> find_allocation(
      const JobRequest& req, std::uint32_t nodes) const;
  void start_job(JobRecord& job, Allocation alloc);
  /// Ends a running job (no-op for any other state) and re-runs the queue.
  void finish_job(JobId id, JobState final_state);
  void on_node_failure(hw::NodeId node);
  void accumulate_busy();

  sim::Simulation* sim_;
  hw::Fabric* fabric_;
  Config cfg_;
  JobId next_id_ = 1;
  std::map<JobId, JobRecord> jobs_;
  std::deque<JobId> queue_;
  std::size_t busy_nodes_ = 0;  ///< nodes the running jobs hold
  /// Every running job and its span on the "rm" timeline track.
  std::map<JobId, telemetry::MetricsRegistry::SpanId> running_;
  std::uint64_t backfill_count_ = 0;
  std::uint64_t completed_count_ = 0;
  std::uint64_t failed_count_ = 0;
  sim::SummaryStats waits_{/*keep_samples=*/false};
  sim::Time last_finish_ = 0;
  // Utilisation integral: busy-node-count integrated over time.
  mutable double busy_node_seconds_ = 0.0;
  mutable sim::Time busy_accum_mark_ = 0;
  std::function<void(const JobRecord&)> on_start_;
  std::function<void(const JobRecord&)> on_finish_;
  telemetry::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace dvc::rm
