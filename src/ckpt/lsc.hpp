#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "check/hooks.hpp"
#include "clocksync/host_clock.hpp"
#include "sim/id_table.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "storage/image_manager.hpp"
#include "telemetry/telemetry.hpp"
#include "vm/hypervisor.hpp"
#include "vm/virtual_machine.hpp"

namespace dvc::ckpt {

/// One virtual machine to be saved in a coordinated checkpoint.
struct SaveTarget {
  vm::Hypervisor* hypervisor = nullptr;
  vm::VirtualMachine* machine = nullptr;
  /// The host clock of the node running the VM (needed by the NTP
  /// coordinator; the naive coordinator ignores it).
  clocksync::HostClock* clock = nullptr;
  std::uint64_t member = 0;  ///< index within the checkpoint set
  /// Write only memory dirtied since the member's last image (the restore
  /// chain then spans back to its last full image).
  bool incremental = false;
  /// Issuing coordinator's fencing token, stamped into the checkpoint set
  /// and every save command. Defaults to unfenced for library users
  /// driving the coordinator directly.
  std::uint64_t epoch = storage::kUnfencedEpoch;
};

/// Outcome of one coordinated checkpoint attempt.
struct LscResult {
  bool ok = false;  ///< every member image durable (set sealed)
  /// Round abandoned before any guest froze (health check tripped, or
  /// every save aborted pre-freeze); distinct from a failed save: an
  /// aborted round is harmless.
  bool aborted_cleanly = false;
  /// The round's watchdog expired before every member reported; the
  /// stragglers' late completions are swallowed.
  bool timed_out = false;
  storage::CheckpointSetId set = storage::kInvalidCheckpointSet;
  /// Spread between the first and the last guest freeze — the quantity
  /// that races the transport retry budget.
  sim::Duration pause_skew = 0;
  /// First freeze to last image durable: how long the checkpoint took.
  sim::Duration total_time = 0;
  /// Guest software snapshots, indexed like the targets vector. Restart
  /// hands these back to the restored guests. core::DvcManager moves them
  /// into the VC's recovery point, so its own continuation gets none.
  std::vector<std::any> app_snapshots;
  int attempts = 1;  ///< rounds used (health-checked retries)
  /// Whole-round retries started (RetryPolicy), one that Retarget then
  /// abandoned included: each counts once in ckpt.lsc.round_retries.
  int retries = 0;
  /// Members whose guest froze but whose image never became durable (work
  /// was disturbed) vs. members whose save aborted before the freeze.
  int members_failed = 0;
  int members_aborted = 0;
};

/// The `ckpt.lsc.*` instruments of one coordinator, shared by all of its
/// rounds and resolved on first use (telemetry::Handle).
struct LscInstruments {
  telemetry::CounterHandle members_saved{"ckpt.lsc.members_saved"};
  telemetry::CounterHandle members_failed{"ckpt.lsc.members_failed"};
  telemetry::CounterHandle members_aborted{"ckpt.lsc.members_aborted"};
  telemetry::CounterHandle rounds{"ckpt.lsc.rounds"};
  telemetry::CounterHandle rounds_aborted{"ckpt.lsc.rounds_aborted"};
  telemetry::CounterHandle rounds_failed{"ckpt.lsc.rounds_failed"};
  telemetry::HistogramHandle pause_skew_s{"ckpt.lsc.pause_skew_s"};
  telemetry::HistogramHandle round_s{"ckpt.lsc.round_s"};
  telemetry::CounterHandle late_completions{"ckpt.lsc.late_completions"};
  telemetry::CounterHandle round_retries{"ckpt.lsc.round_retries"};
  telemetry::CounterHandle retries_abandoned{"ckpt.lsc.retries_abandoned"};
  telemetry::CounterHandle round_timeouts{"ckpt.lsc.round_timeouts"};
  telemetry::CounterHandle health_check_retries{
      "ckpt.lsc.health_check_retries"};
};

class RoundTracker;

/// Coordinated whole-virtual-cluster checkpointing ("Lazy Synchronous
/// Checkpointing", paper §3): save every VM "simultaneously enough" that
/// the guests' reliable transport masks the cut. Implementations differ
/// only in how the simultaneous trigger is achieved.
///
/// Each checkpoint() call is one operation (Op) in a sim::IdTable the
/// coordinator owns, from the call until its `done` runs or abort() ends
/// it. Its rounds, round watchdog, backoff retry and health-check deferral
/// all resolve through that one entry.
class LscCoordinator {
 public:
  /// Whole-round failure handling, shared by every implementation. All
  /// defaults are off: one round, no watchdog, failures reported bare.
  struct RetryPolicy {
    /// Extra rounds attempted after a failed one (0 = report the bare
    /// failure). Each retry asks the caller's `Retarget` hook for a fresh
    /// target list (members may have been relocated by a recovery since
    /// the round started); without a hook the last round's targets are
    /// re-fired as-is.
    int max_round_retries = 0;
    /// Exponential backoff before each retry: first wait `backoff`, then
    /// twice as long before each further one.
    sim::Duration backoff = 2 * sim::kSecond;
    /// Abandon a round whose members have not all reported within this
    /// budget (0 = wait forever). A timed-out round reports (or retries
    /// as) a failure; late straggler completions are counted and dropped.
    sim::Duration round_timeout = 0;
  };

  /// Re-resolves the save targets for a retried round, when its backoff
  /// ends. A recovery may have relocated members between attempts, leaving
  /// the original targets pointing at dead hypervisors — retrying those
  /// pauses the survivors while the relocated member runs free, the exact
  /// asymmetry LSC exists to avoid. Returning nullopt abandons the
  /// remaining retries (e.g. a recovery is mid-flight and will
  /// re-checkpoint on its own schedule): `done` then gets a clean abort.
  /// It runs inside the coordinator and must not call back into it. Once
  /// abort() has ended the checkpoint it is never asked.
  using Retarget =
      std::function<std::optional<std::vector<SaveTarget>>()>;

  /// What an operation's events and its rounds' reports carry besides the
  /// coordinator: the op and the round (retry number) they belong to. A
  /// settled round moves its op on to the next round or ends it, so a ref
  /// to it resolves to nothing.
  struct OpRef {
    std::uint32_t op;
    int round_no;
  };

  virtual ~LscCoordinator();

  /// Runs one coordinated checkpoint of `targets`. Every VM is resumed as
  /// soon as its own image is durable (stop-and-copy). `done` fires when
  /// the set seals or the attempt is abandoned — after exhausting the
  /// retry policy, if one is set.
  /// `resume_after_save` selects stop-and-copy-and-continue (true, the
  /// checkpointing case) or save-and-hold (false, the migration case: the
  /// frozen domains are about to move, so nobody thaws them here).
  void checkpoint(std::string label, std::vector<SaveTarget> targets,
                  storage::ImageManager& images,
                  std::function<void(LscResult)> done,
                  bool resume_after_save = true, Retarget retarget = nullptr);

  /// Ends every checkpoint labelled `label` unreported: its live rounds'
  /// sets are aborted, and its pending fires and save reports, its round
  /// watchdog, a backoff retry and a health-check deferral all find
  /// nothing. Neither `done` nor `Retarget` is called again. For an owner
  /// tearing the round's guests down (core::DvcManager::destroy_vc).
  void abort(std::string_view label);

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Attaches an optional metrics registry. Rounds appear as spans on the
  /// "lsc" timeline track; skew and duration land in `ckpt.lsc.*`.
  void set_metrics(telemetry::MetricsRegistry* m) noexcept { metrics_ = m; }

  void set_retry_policy(RetryPolicy p) noexcept { retry_ = p; }
  [[nodiscard]] const RetryPolicy& retry_policy() const noexcept {
    return retry_;
  }

  /// Attaches an optional invariant checker (null to detach), notified
  /// once per checkpoint() call when the round's final outcome is settled
  /// (after the retry policy ran its course).
  void set_check(check::Checker* c) noexcept { check_ = c; }

 protected:
  explicit LscCoordinator(sim::Simulation& sim) noexcept : sim_(&sim) {}

  /// One checkpoint() call.
  struct Op {
    std::uint32_t id = 0;
    std::string label;
    std::vector<SaveTarget> targets;  ///< the current round's
    storage::ImageManager* images = nullptr;
    std::function<void(LscResult)> done;
    Retarget retarget;
    bool resume_after_save = true;
    int round_no = 0;           ///< whole-round retries started so far
    sim::Duration backoff = 0;  ///< wait before the next retry
    int attempt_no = 1;         ///< health-checked attempt of this round
    sim::EventId watchdog = sim::kInvalidEvent;  ///< this round's
  };

  /// Throws std::invalid_argument unless this trigger can fire `targets`.
  virtual void check_targets(const std::vector<SaveTarget>& targets) const;
  /// Starts attempt `op.attempt_no` of the op's current round
  /// (implementation-specific trigger): it opens the round (open_round),
  /// or defers or abandons the attempt through an event carrying ref_of(op).
  virtual void start_round(Op& op) = 0;

  [[nodiscard]] static OpRef ref_of(const Op& op) noexcept {
    return {op.id, op.round_no};
  }
  /// The op `ref` names, or null once its round has settled or abort()
  /// ended it.
  [[nodiscard]] Op* live_op(OpRef ref);
  /// Settles the round `ref` names with `r`: a retry, or the op's end.
  /// A round already settled counts `r` as a late completion.
  void concluded(OpRef ref, LscResult r);

  /// Opens the op's current round, owned by this coordinator until its
  /// last member reports. Its members are fired with schedule_fire, each
  /// at its own instant. The reference holds until the next round opens
  /// or ends.
  RoundTracker& open_round(const Op& op);
  /// Fires member `i` of `round` at `at`.
  void schedule_fire(sim::Time at, const RoundTracker& round, std::size_t i);

  telemetry::MetricsRegistry* metrics_ = nullptr;
  LscInstruments instruments_;
  check::Checker* check_ = nullptr;
  sim::Simulation* sim_;

 private:
  /// One member of one live round: with the coordinator's `this`, all a
  /// firing event or a save callback carries (16 trivially copyable
  /// bytes, so std::function stores it without allocating).
  struct MemberRef {
    std::uint32_t round;
    std::uint32_t member;
  };

  void fire_member(MemberRef ref);
  void member_durable(MemberRef ref, bool ok, std::any state);

  /// Arms the op's round watchdog (if the policy sets one) and starts the
  /// round's first attempt.
  void run_round(Op& op);
  void watchdog_expired(OpRef ref);
  void retry_round(OpRef ref);
  /// Ends `op`: the checker hears `r`'s outcome, the op leaves the table,
  /// and its `done` gets `r`.
  void report(Op& op, LscResult r);

  RetryPolicy retry_{};
  sim::IdTable<Op, std::uint32_t> ops_;
  sim::IdTable<RoundTracker, std::uint32_t> rounds_;
};

/// The paper's first prototype (§3.1 "Naive approach"): one program opens a
/// terminal to every node and writes `vm save` down each in a loop. The
/// per-terminal dispatch delays accumulate, so the k-th guest freezes
/// roughly k dispatch-delays after the first — and once the cumulative
/// skew exceeds the transport retry budget, a still-running guest aborts a
/// connection to a frozen one and the application dies. This reproduces
/// "did not scale beyond 8 nodes" (T1).
class NaiveLscCoordinator final : public LscCoordinator {
 public:
  NaiveLscCoordinator(sim::Simulation& sim, sim::Rng rng)
      : LscCoordinator(sim), rng_(rng) {}

  [[nodiscard]] std::string_view name() const override { return "naive"; }

 protected:
  void start_round(Op& op) override;

 private:
  sim::Rng rng_;
};

/// The paper's working prototype (§3.1 "Current prototype"): all hosts are
/// NTP-synchronised; an agent on each node arms a microsecond-precision
/// timer for a common *local* wall-clock instant and fires `vm save`
/// locally. Skew is then bounded by clock error plus timer jitter — a few
/// milliseconds — so the transport never times out (T2).
///
/// The paper's §4 future work (error checking, "coordinated health check of
/// checkpoint processes", robustness on loaded servers) is implemented
/// behind Config::health_check (ablation A3).
class NtpLscCoordinator final : public LscCoordinator {
 public:
  struct Config {
    /// Loaded-host model: probability that an agent is starved and fires
    /// late by an extra 30 s on average — the unaddressed drawback the
    /// paper names ("a heavily loaded server which may not be able to
    /// service a checkpoint request immediately").
    double stall_prob = 0.0;
    /// Future-work feature: shortly before the deadline the coordinator
    /// polls every agent; if one is starved, the round is abandoned before
    /// any guest freezes and retried at a later instant, up to three
    /// attempts in all.
    bool health_check = false;
  };

  NtpLscCoordinator(sim::Simulation& sim, Config cfg, sim::Rng rng)
      : LscCoordinator(sim), cfg_(cfg), rng_(rng) {}

  [[nodiscard]] std::string_view name() const override { return "ntp"; }

 protected:
  void check_targets(const std::vector<SaveTarget>& targets) const override;
  void start_round(Op& op) override;

 private:
  /// The health check of a deferred or abandoned attempt, at the instant
  /// its poll ran: the op's next attempt, or a clean abort once every
  /// attempt is spent.
  void health_checked(OpRef ref);

  Config cfg_;
  sim::Rng rng_;
};

/// Shared bookkeeping for one in-flight coordinated round: collects pause
/// times and snapshots, resumes guests as their images seal, and reports.
/// The issuing coordinator owns it (LscCoordinator::open_round) and routes
/// every firing and save callback to it by id, until finish().
class RoundTracker final {
 public:
  /// `instruments` belongs to the issuing coordinator, which outlives
  /// the round. `op` is the operation and round this one reports to.
  RoundTracker(sim::Simulation& sim, LscCoordinator::OpRef op,
               std::vector<SaveTarget> targets,
               storage::ImageManager& images, std::string label,
               int attempt_no, bool resume_after_save,
               telemetry::MetricsRegistry* metrics,
               LscInstruments& instruments);

  /// The round's key in its coordinator's round table. Only
  /// IdTable::open sets it. The table holds rounds by value and moves
  /// them as rounds open and end, so every event carries this id, never
  /// a reference to the round.
  std::uint32_t id = 0;

  [[nodiscard]] LscCoordinator::OpRef op() const noexcept { return op_; }

  /// Issues the save for target `i` now (hypervisor adds local latency);
  /// `on_durable` reports it. Returns false, issuing nothing, when the
  /// round's set never opened: the member then counts as aborted.
  bool fire(std::size_t i, std::function<void(bool, std::any)> on_durable);

  /// Records member `i`'s outcome. Returns true once every member has
  /// reported; the owner then calls finish().
  bool on_member_durable(std::size_t i, bool ok, std::any state);

  /// Seals the round's outcome and returns it.
  LscResult finish();

  /// Ends the round without reporting it: aborts its set and closes its
  /// span (LscCoordinator::abort).
  void abort();

  [[nodiscard]] const std::vector<SaveTarget>& targets() const noexcept {
    return targets_;
  }
  [[nodiscard]] const std::string& label() const noexcept { return label_; }

 private:
  sim::Simulation* sim_;
  LscCoordinator::OpRef op_;
  std::vector<SaveTarget> targets_;
  storage::ImageManager* images_;
  std::string label_;
  storage::CheckpointSetId set_;
  LscResult result_;
  std::size_t outstanding_;
  bool resume_after_save_;
  /// Failed-save split: a member whose guest froze before its save died
  /// lost real work; one whose save aborted pre-freeze cost nothing. The
  /// pause counter recorded at fire() time tells the two apart.
  int members_failed_ = 0;
  int members_aborted_ = 0;
  std::vector<std::uint64_t> pauses_at_fire_;
  sim::Time first_pause_ = 0;
  sim::Time last_pause_ = 0;
  bool saw_pause_ = false;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  LscInstruments* instruments_;
  telemetry::MetricsRegistry::SpanId round_span_ =
      telemetry::MetricsRegistry::kInvalidSpan;
};

}  // namespace dvc::ckpt
