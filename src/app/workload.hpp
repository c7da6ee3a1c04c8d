#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "app/mpi_job.hpp"
#include "sim/simulation.hpp"
#include "vm/virtual_machine.hpp"

namespace dvc::app {

/// Communication pattern executed each iteration.
enum class Pattern : std::uint8_t {
  kNone,           ///< embarrassingly parallel / sequential
  kRing,           ///< nearest-neighbour ring exchange
  kBroadcast,      ///< rotating root sends to every peer (flat bcast)
  kTreeBroadcast,  ///< rotating root, binomial-tree relay (log P rounds)
  kAllToAll,       ///< full transpose exchange (PTRANS-like)
};

namespace detail {
/// Lowest set bit of `v` (0 for 0).
[[nodiscard]] constexpr RankId lowbit(RankId v) noexcept {
  return v & (~v + 1);
}
}  // namespace detail

/// Binomial-tree helpers (relabelled so `root` maps to virtual rank 0).
/// Exposed for tests and for anyone building their own collectives.
[[nodiscard]] RankId tree_parent(RankId rank, RankId root, RankId ranks);

/// Calls `visit(child)` for each child of `rank` in the binomial tree
/// rooted at `root`, nearest first, without allocating. Children of
/// virtual rank v are v + 2^k for 2^k below v's lowest set bit (the root,
/// v = 0, fans out to every power of two).
template <typename Visit>
void for_each_tree_child(RankId rank, RankId root, RankId ranks,
                         Visit&& visit) {
  const RankId v = (rank + ranks - root) % ranks;
  const RankId limit = v == 0 ? ranks : detail::lowbit(v);
  for (RankId step = 1; step < limit && v + step < ranks; step <<= 1) {
    visit(static_cast<RankId>((v + step + root) % ranks));
  }
}

/// The children for_each_tree_child visits, in the same order.
[[nodiscard]] std::vector<RankId> tree_children(RankId rank, RankId root,
                                                RankId ranks);

/// Static description of a bulk-synchronous parallel workload: per
/// iteration, every rank computes then communicates per the pattern.
struct WorkloadSpec {
  std::string name = "synthetic";
  RankId ranks = 1;
  std::uint32_t iterations = 10;
  double flops_per_rank_iter = 1e9;
  Pattern pattern = Pattern::kNone;
  std::uint32_t bytes_per_msg = 0;
  std::uint64_t working_set_bytes_per_rank = 256ull << 20;
  /// Whether the application ships its own checkpoint code (paper §2:
  /// "not all applications provide this capability").
  bool supports_app_checkpoint = false;
  double total_flops() const {
    return flops_per_rank_iter * ranks * iterations;
  }
};

/// HPL-like workload: compute-dominated LU factorisation; each iteration a
/// rotating root broadcasts its panel share. `n` is the matrix order.
[[nodiscard]] WorkloadSpec make_hpl(std::uint64_t n, RankId ranks,
                                    std::uint32_t iterations = 16);

/// PTRANS-like workload: communication-heavy parallel matrix transpose;
/// every iteration is an all-to-all of the rank's block row/column.
[[nodiscard]] WorkloadSpec make_ptrans(std::uint64_t n, RankId ranks,
                                       std::uint32_t iterations = 8);

/// Single-rank compute job (the "sequential job" case of the paper).
[[nodiscard]] WorkloadSpec make_sequential(double total_flops,
                                           std::uint32_t iterations = 10);

/// Where a rank is in its bulk-synchronous loop. Plain data: this, plus the
/// transport snapshot, is the whole recoverable guest state. The per-tag
/// bookkeeping lives in tag-ordered vectors: each holds an entry or two at
/// a time and keeps its capacity, so iterations do not allocate.
struct RankState {
  struct TagCount {
    std::uint32_t tag;
    std::uint32_t count;
  };

  std::uint32_t iter = 0;
  enum class Phase : std::uint8_t { kCompute, kComm, kDone } phase =
      Phase::kCompute;
  sim::Duration compute_remaining = 0;  ///< valid when phase == kCompute
  std::vector<TagCount> recv_count;  ///< per-iter arrivals, ascending tag
  /// Tree-bcast panels already relayed, ascending tag.
  std::vector<std::uint32_t> forwarded;
};

/// Everything a whole-guest image captures for one rank.
struct RankSnapshot {
  RankState state;
  RankTransportSnapshot transport;
};

class ParallelApp;

/// One rank of a parallel application: a bulk-synchronous state machine
/// driven by guest timers (compute) and the MPI mesh (communication).
/// Implements GuestSoftware so a VM checkpoint images it transparently.
class Rank final : public vm::GuestSoftware {
 public:
  Rank(ParallelApp& app, RankId id);

  void start();

  [[nodiscard]] RankId id() const noexcept { return id_; }
  [[nodiscard]] const RankState& state() const noexcept { return st_; }
  [[nodiscard]] bool done() const noexcept {
    return st_.phase == RankState::Phase::kDone;
  }
  /// Parked at an iteration boundary by the quiesce protocol.
  [[nodiscard]] bool held() const noexcept { return held_; }

  /// Resumes a rank parked by the quiesce protocol (no-op otherwise).
  void resume_from_hold();

  /// Simulator telemetry (not guest state): completed compute, including
  /// work redone after rollbacks.
  [[nodiscard]] double compute_done_seconds() const noexcept {
    return compute_done_s_;
  }
  [[nodiscard]] sim::Time started_wall() const noexcept {
    return started_wall_;
  }
  [[nodiscard]] sim::Time finished_wall() const noexcept {
    return finished_wall_;
  }

  /// Pid of this rank's process in its guest's process table (invalid
  /// when running natively).
  [[nodiscard]] vm::Pid guest_pid() const noexcept { return guest_pid_; }

  // GuestSoftware:
  [[nodiscard]] std::any snapshot_state() const override;
  void restore_state(const std::any& state) override;
  void on_killed() override;

  void on_message(const net::Message& m);

 private:
  void begin_compute(sim::Duration d);
  void on_compute_done(sim::Duration d);
  void enter_comm();
  void send_pattern_messages();
  void forward_tree_panel(std::uint32_t tag);
  [[nodiscard]] std::uint32_t expected_recvs() const;
  void check_comm_done();
  void advance_iteration();
  void finish();
  void register_guest_process();

  ParallelApp* app_;
  RankId id_;
  RankState st_;
  bool held_ = false;  ///< parked at a boundary by the quiesce protocol
  vm::Pid guest_pid_ = vm::kInvalidPid;
  vm::GuestTimerId compute_timer_ = vm::kInvalidGuestTimer;
  double compute_done_s_ = 0.0;
  sim::Time started_wall_ = 0;
  sim::Time finished_wall_ = 0;
};

/// End-of-job statistics.
struct JobStats {
  double makespan_s = 0.0;          ///< true elapsed (simulated) time
  double reported_elapsed_s = 0.0;  ///< what the app's own clock reports
  double compute_done_s = 0.0;      ///< max over ranks, incl. redone work
  double reported_gflops = 0.0;     ///< app-visible rate (HPL's own metric)
  std::uint64_t messages = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t duplicates = 0;
};

/// A parallel application instance: the MPI mesh plus one Rank per context.
/// The launcher binds each Rank to its VM (vm.set_guest_software) so that
/// whole-guest checkpoints capture application and transport state.
class ParallelApp final : private MpiJob::Receiver {
 public:
  ParallelApp(sim::Simulation& sim, net::Network& net,
              std::vector<vm::ExecutionContext*> contexts, WorkloadSpec spec,
              net::ReliableConfig transport = {});

  ParallelApp(const ParallelApp&) = delete;
  ParallelApp& operator=(const ParallelApp&) = delete;

  void start();

  [[nodiscard]] const WorkloadSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] MpiJob& mesh() noexcept { return job_; }
  [[nodiscard]] Rank& rank(RankId r) { return *ranks_.at(r); }
  [[nodiscard]] RankId size() const noexcept { return spec_.ranks; }

  [[nodiscard]] bool completed() const noexcept { return completed_; }
  [[nodiscard]] bool failed() const noexcept { return failed_; }

  void set_on_complete(std::function<void()> fn) {
    on_complete_ = std::move(fn);
  }
  void set_on_failure(std::function<void(std::string)> fn) {
    on_failure_ = std::move(fn);
  }

  /// Marks the job failed from outside the transport (e.g. the control
  /// plane abandoning recovery after exhausting every checkpoint
  /// generation). No-op on a completed job; fires the failure callback so
  /// the run ends diagnosed instead of wedged.
  void mark_failed(std::string why);

  /// Starts a whole-job rollback: bumps the transport epoch every restored
  /// endpoint must use and clears the failure flag. Ranks are then restored
  /// individually via their VMs' rollback_and_resume.
  std::uint32_t begin_rollback();

  // ---- quiesce protocol (CoCheck/BLCR-style checkpoint support) --------
  // A checkpoint *library* linked into the application (paper §2.1) stops
  // the ranks at their next iteration boundary and lets the network drain,
  // instead of freezing whole guests. This is the cooperation such
  // libraries require — and exactly what DVC's transparency avoids.

  /// Asks every rank to hold at its next iteration boundary; `on_all_held`
  /// fires once every rank is parked (or finished).
  void request_quiesce(std::function<void()> on_all_held);

  /// Resumes every held rank.
  void release_quiesce();

  /// True once every rank's outgoing channels have fully drained
  /// (no unacknowledged messages anywhere in the mesh).
  [[nodiscard]] bool mesh_drained() const { return job_.drained(); }

  [[nodiscard]] std::uint32_t rollback_epoch() const noexcept {
    return rollback_epoch_;
  }

  [[nodiscard]] JobStats stats() const;

 private:
  friend class Rank;
  // MpiJob::Receiver:
  void on_message(RankId to, RankId from, const net::Message& m) override;
  void on_abort(RankId rank, std::string_view why) override;

  void notify_rank_done();
  void note_rank_held();

  sim::Simulation* sim_;
  WorkloadSpec spec_;
  std::vector<vm::ExecutionContext*> contexts_;
  MpiJob job_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  bool completed_ = false;
  bool failed_ = false;
  bool quiescing_ = false;
  std::function<void()> on_all_held_;
  std::uint32_t rollback_epoch_ = 0;
  sim::Time started_sim_ = 0;
  sim::Time finished_sim_ = 0;
  std::function<void()> on_complete_;
  std::function<void(std::string)> on_failure_;
};

}  // namespace dvc::app
