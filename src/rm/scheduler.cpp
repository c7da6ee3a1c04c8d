#include "rm/scheduler.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dvc::rm {

namespace {
/// Size of the biggest physical cluster: the most one job can ever get
/// without spanning.
std::uint32_t largest_cluster(const hw::Fabric& fabric) {
  std::size_t biggest = 0;
  for (hw::ClusterId c = 0; c < fabric.cluster_count(); ++c) {
    biggest = std::max(biggest, fabric.cluster(c).nodes.size());
  }
  return static_cast<std::uint32_t>(biggest);
}
}  // namespace

Scheduler::Scheduler(sim::Simulation& sim, hw::Fabric& fabric, Config cfg)
    : sim_(&sim), fabric_(&fabric), cfg_(cfg) {
  fabric.subscribe_failures([this](hw::NodeId n) { on_node_failure(n); });
}

JobId Scheduler::submit(JobRequest req) {
  if (req.nodes_requested == 0) {
    throw std::invalid_argument("a job needs at least one node");
  }
  const JobId id = next_id_++;
  JobRecord rec;
  rec.id = id;
  rec.request = std::move(req);
  rec.submitted_at = sim_->now();
  telemetry::count(metrics_, "rm.scheduler.jobs_submitted");

  // Reject jobs that could never run under this configuration (a rigid
  // request bigger than any single cluster on a non-spanning system),
  // instead of head-blocking the FCFS queue forever.
  const std::uint32_t max_feasible =
      cfg_.allow_spanning ? static_cast<std::uint32_t>(fabric_->node_count())
                          : largest_cluster(*fabric_);
  const std::uint32_t floor_nodes =
      cfg_.mold_oversized
          ? (rec.request.min_nodes > 0 ? rec.request.min_nodes : 1)
          : rec.request.nodes_requested;
  if (floor_nodes > max_feasible) {
    rec.state = JobState::kFailed;
    rec.finished_at = sim_->now();
    ++failed_count_;
    telemetry::count(metrics_, "rm.scheduler.jobs_rejected");
    auto [it, inserted] = jobs_.emplace(id, std::move(rec));
    if (on_finish_) on_finish_(it->second);
    return id;
  }

  jobs_.emplace(id, std::move(rec));
  queue_.push_back(id);
  telemetry::gauge_set(metrics_, "rm.scheduler.queue_depth",
                       static_cast<double>(queue_.size()));
  try_schedule();
  return id;
}

void Scheduler::accumulate_busy() {
  const sim::Time now = sim_->now();
  busy_node_seconds_ +=
      sim::to_seconds(now - busy_accum_mark_) *
      static_cast<double>(busy_nodes_);
  busy_accum_mark_ = now;
}

double Scheduler::busy_node_seconds() const {
  const_cast<Scheduler*>(this)->accumulate_busy();
  return busy_node_seconds_;
}

std::optional<Allocation> Scheduler::find_allocation(
    const JobRequest& req, std::uint32_t nodes) const {
  // Home cluster first, then any single cluster (virtual clusters give
  // every job its own software stack, so a foreign cluster is as good as
  // home — paper goal 2), then spanning if the configuration allows it.
  auto picked = fabric_->place(
      nodes, [this](hw::NodeId n) { return !fabric_->node(n).held(); },
      req.home_cluster, cfg_.allow_spanning);
  if (!picked) return std::nullopt;
  const bool spans = fabric_->spans_clusters(*picked);
  return Allocation{std::move(*picked), spans};
}

void Scheduler::try_schedule() {
  // Strict FCFS: the head of the queue blocks later jobs (no backfill),
  // which keeps fairness semantics simple and makes the spanning benefit
  // visible rather than hidden by backfill.
  while (!queue_.empty()) {
    JobRecord& job = jobs_.at(queue_.front());
    std::uint32_t want = job.request.nodes_requested;

    auto alloc = find_allocation(job.request, want);
    if (!alloc && cfg_.mold_oversized && !cfg_.allow_spanning) {
      // Mold an oversized request down to the largest single-cluster slice
      // that could ever satisfy it, bounded below by min_nodes.
      const std::uint32_t biggest = largest_cluster(*fabric_);
      const std::uint32_t floor_nodes =
          job.request.min_nodes > 0 ? job.request.min_nodes : 1;
      if (biggest < want && floor_nodes <= biggest) {
        want = biggest;
        alloc = find_allocation(job.request, want);
      }
    }
    if (!alloc) {
      // Head blocked: optionally let later jobs jump ahead if they cannot
      // delay the head's earliest possible start.
      if (cfg_.easy_backfill) try_backfill(job);
      return;
    }

    queue_.pop_front();
    start_job(job, std::move(*alloc));  // which updates the queue gauge
  }
}

sim::Time Scheduler::head_shadow_time(std::uint32_t head_need) const {
  // Release running jobs in estimated end order until enough nodes are
  // free for the head.
  std::size_t free_now = 0;
  for (const hw::NodeId n : fabric_->healthy_nodes()) {
    if (!fabric_->node(n).held()) ++free_now;
  }
  std::vector<std::pair<sim::Time, std::size_t>> ends;  // end, nodes freed
  for (const auto& [id, span] : running_) {
    const JobRecord& job = jobs_.at(id);
    ends.emplace_back(job.expected_end, job.allocation.nodes.size());
  }
  std::sort(ends.begin(), ends.end());
  for (const auto& [end, freed] : ends) {
    if (free_now >= head_need) break;
    free_now += freed;
    if (free_now >= head_need) return end;
  }
  // Either it already fits by count (placement constraints blocked it) or
  // it never will; either way, do not let backfill delay anything.
  return sim_->now();
}

void Scheduler::try_backfill(const JobRecord& head) {
  const sim::Time shadow = head_shadow_time(head.request.nodes_requested);
  if (shadow <= sim_->now()) return;
  for (std::size_t qi = 1; qi < queue_.size();) {
    JobRecord& job = jobs_.at(queue_[qi]);
    const double est_runtime_s =
        job.request.node_seconds_work /
            static_cast<double>(job.request.nodes_requested) +
        sim::to_seconds(job.request.startup_overhead);
    const bool finishes_in_shadow =
        sim_->now() + sim::from_seconds(est_runtime_s) <= shadow;
    auto alloc = finishes_in_shadow
                     ? find_allocation(job.request,
                                       job.request.nodes_requested)
                     : std::nullopt;
    if (alloc) {
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(qi));
      ++backfill_count_;
      telemetry::count(metrics_, "rm.scheduler.jobs_backfilled");
      start_job(job, std::move(*alloc));
      // start_job -> (on completion) try_schedule may have restructured
      // the queue; restart the scan conservatively.
      qi = 1;
    } else {
      ++qi;
    }
  }
}

void Scheduler::start_job(JobRecord& job, Allocation alloc) {
  accumulate_busy();
  job.state = JobState::kRunning;
  job.started_at = sim_->now();
  job.allocation = std::move(alloc);
  fabric_->hold(hw::Holder::kJob, job.allocation.nodes, job.id);
  busy_nodes_ += job.allocation.nodes.size();
  const sim::Duration run =
      sim::from_seconds(job.request.node_seconds_work /
                        static_cast<double>(job.allocation.nodes.size())) +
      job.request.startup_overhead;
  job.expected_end = job.started_at + run;
  running_[job.id] = telemetry::begin_span(
      metrics_, job.started_at, "rm",
      job.request.name.empty() ? "job" : job.request.name);
  waits_.add(sim::to_seconds(job.started_at - job.submitted_at));
  telemetry::count(metrics_, "rm.scheduler.jobs_started");
  telemetry::observe(metrics_, "rm.scheduler.placement_wait_s",
                     sim::to_seconds(job.started_at - job.submitted_at));
  telemetry::gauge_set(metrics_, "rm.scheduler.queue_depth",
                       static_cast<double>(queue_.size()));
  telemetry::gauge_set(metrics_, "rm.scheduler.running",
                       static_cast<double>(running()));
  if (on_start_) on_start_(job);

  if (cfg_.auto_run) {
    const JobId id = job.id;
    sim_->schedule_after(run,
                         [this, id] { finish_job(id, JobState::kCompleted); });
  }
}

void Scheduler::complete(JobId id) { finish_job(id, JobState::kCompleted); }

void Scheduler::fail(JobId id) { finish_job(id, JobState::kFailed); }

void Scheduler::finish_job(JobId id, JobState final_state) {
  JobRecord& job = jobs_.at(id);
  if (job.state != JobState::kRunning) return;
  accumulate_busy();
  job.state = final_state;
  job.finished_at = sim_->now();
  last_finish_ = std::max(last_finish_, job.finished_at);
  fabric_->release(hw::Holder::kJob, job.allocation.nodes, job.id);
  busy_nodes_ -= job.allocation.nodes.size();
  telemetry::end_span(metrics_, running_.at(job.id), sim_->now());
  running_.erase(job.id);
  if (final_state == JobState::kCompleted) {
    ++completed_count_;
    telemetry::count(metrics_, "rm.scheduler.jobs_completed");
  } else {
    ++failed_count_;
    telemetry::count(metrics_, "rm.scheduler.jobs_failed");
  }
  telemetry::gauge_set(metrics_, "rm.scheduler.running",
                       static_cast<double>(running()));
  if (on_finish_) on_finish_(job);
  try_schedule();
}

void Scheduler::on_node_failure(hw::NodeId node) {
  // A failed node takes down whatever ran on it (unless a DVC layer above
  // recovers the job — that layer resubmits). The node also leaves the
  // allocatable pool, which try_schedule respects via healthy_nodes().
  const JobId owner = fabric_->node(node).job();
  if (owner != kInvalidJob && cfg_.fail_jobs_on_node_failure &&
      jobs_.at(owner).state == JobState::kRunning) {
    finish_job(owner, JobState::kFailed);
    return;  // finish_job already re-runs the queue
  }
  try_schedule();
}

}  // namespace dvc::rm
