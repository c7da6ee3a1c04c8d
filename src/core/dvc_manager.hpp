#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "app/workload.hpp"
#include "check/hooks.hpp"
#include "ckpt/lsc.hpp"
#include "clocksync/ntp.hpp"
#include "core/intent_log.hpp"
#include "core/virtual_cluster.hpp"
#include "hw/cluster.hpp"
#include "sim/id_table.hpp"
#include "sim/simulation.hpp"
#include "sim/trace.hpp"
#include "storage/epoch_fence.hpp"
#include "storage/image_manager.hpp"
#include "telemetry/telemetry.hpp"
#include "vm/hypervisor.hpp"

namespace dvc::core {

/// The Dynamic Virtual Clustering control plane — the paper's primary
/// contribution. It provisions whole virtual clusters onto physical nodes
/// (within or across physical clusters), checkpoints them with LSC,
/// restores or migrates them onto *different* node sets, and recovers them
/// automatically when a hosting node dies.
///
/// Each boot, LSC round, restore and live move is one operation (Op) in a
/// sim::IdTable the manager owns, from the call until its last member
/// reports or destroy_vc ends it. Every event count lands in the registry
/// the manager is built with (`core.dvc.*` counters, the "dvc" timeline
/// track), and the introspection accessors read it back from there.
class DvcManager final {
 public:
  /// `metrics` (the room's registry) receives every count the manager
  /// makes and must outlive it.
  DvcManager(sim::Simulation& sim, hw::Fabric& fabric,
             vm::HypervisorFleet& fleet, storage::ImageManager& images,
             clocksync::ClusterTimeService& time,
             telemetry::MetricsRegistry& metrics);

  DvcManager(const DvcManager&) = delete;
  DvcManager& operator=(const DvcManager&) = delete;

  // ---- provisioning ----------------------------------------------------

  /// Picks `count` free nodes (see node_free) through hw::Fabric::place:
  /// packed into one physical cluster, lowest cluster id first, spilling
  /// over to others (spanning) if needed.
  [[nodiscard]] std::optional<std::vector<hw::NodeId>> pick_nodes(
      std::uint32_t count) const;

  /// Creates a virtual cluster on an explicit placement and boots every
  /// VM. `on_ready` fires once all guests are running.
  VirtualCluster& create_vc(VcSpec spec, std::vector<hw::NodeId> placement,
                            std::function<void()> on_ready);

  /// Tears a VC down and releases its nodes. Safe in every state: it
  /// takes the VC out of the manager's table first (every pending callback
  /// then resolves to nothing), aborts its in-flight LSC checkpoint (its
  /// rounds, round watchdog, pending retry and health-check deferral),
  /// ends each guest's in-flight boot, save and restore before freeing
  /// them, and erases every operation record of the VC.
  void destroy_vc(VirtualCluster& vc);

  /// Binds a parallel application to a VC: rank i becomes the guest
  /// software of member i. The app's contexts must be vc.contexts().
  void attach_app(VirtualCluster& vc, app::ParallelApp& application);

  // ---- checkpoint / restore / migrate -----------------------------------
  // Each refuses a kFailed VC: `done` reports failure at once.

  /// Coordinated whole-VC checkpoint via the given LSC implementation.
  /// On success the set becomes the VC's recovery point. An `incremental`
  /// checkpoint writes only memory dirtied since each guest's last image;
  /// restore then stages the whole chain back to the last full image.
  void checkpoint_vc(VirtualCluster& vc, ckpt::LscCoordinator& lsc,
                     std::function<void(ckpt::LscResult)> done,
                     bool incremental = false);

  /// Restores a VC from its last checkpoint onto `new_placement` (which
  /// may equal, overlap, or be disjoint from the current one). All guests
  /// roll back to the checkpoint; the attached app resumes from there.
  void restore_vc(VirtualCluster& vc, std::vector<hw::NodeId> new_placement,
                  std::function<void(bool)> done);

  /// Whole-VC migration via the checkpoint path (paper §4 future work):
  /// LSC save-and-hold, then restore on the target nodes. No work is
  /// lost; the guests experience one freeze of (save + stage + restore)
  /// duration.
  void migrate_vc(VirtualCluster& vc, ckpt::LscCoordinator& lsc,
                  std::vector<hw::NodeId> new_placement,
                  std::function<void(bool)> done);

  /// Parameters of Xen-style iterative pre-copy live migration.
  struct LiveMigrationConfig {
    /// Aggregate host-to-host migration bandwidth shared by the VC's
    /// members (direct streams, not through the image store).
    double bandwidth_bps = 250e6;
    /// Give up pre-copying after this many rounds and stop-and-copy the
    /// residual (guests that dirty faster than their bandwidth share
    /// never converge). Pre-copy also ends once a member's residual is
    /// under 16 MiB.
    int max_precopy_rounds = 5;
  };

  struct LiveMigrationStats {
    bool ok = false;
    sim::Duration total_time = 0;    ///< first round to last resume
    sim::Duration max_downtime = 0;  ///< worst per-guest freeze
    double bytes_moved = 0.0;        ///< pre-copy amplification shows here
  };

  /// Pre-copy live migration (extension): guests keep *running* while
  /// their memory streams to the target nodes; each is paused only for
  /// its final residual. Downtime is typically sub-second versus the
  /// whole save+stage+restore freeze of migrate_vc, at the price of
  /// re-sending dirtied memory.
  void live_migrate_vc(VirtualCluster& vc,
                       std::vector<hw::NodeId> new_placement,
                       LiveMigrationConfig cfg,
                       std::function<void(LiveMigrationStats)> done);

  [[nodiscard]] std::uint64_t live_migrations_performed() const {
    return metrics_->counter_value(kLiveMigrations);
  }

  // ---- reliability policy ----------------------------------------------

  struct RecoveryPolicy {
    /// Checkpoint every `interval` using this coordinator.
    ckpt::LscCoordinator* coordinator = nullptr;
    sim::Duration interval = 10 * sim::kMinute;
    /// Re-place the whole VC on fresh nodes at recovery (true, the paper's
    /// "restart ... on a different set of physical nodes") or reuse the
    /// surviving nodes and only replace the dead ones (false).
    bool relocate_all = false;
    /// Keep this many sealed sets; older ones are pruned.
    std::size_t keep_checkpoints = 2;
    /// Write incremental checkpoints (dirty memory only), with a full
    /// image every `full_every`-th round to bound the restore chain.
    bool incremental = false;
    int full_every = 5;
    /// React to hardware failure *predictions* by migrating the whole VC
    /// off the suspect node before it dies (paper §1: "avoidance of job
    /// failure when hardware faults can be predicted"). Evacuation loses
    /// no work; reactive recovery loses up to one checkpoint interval.
    bool proactive_migration = false;
    /// Periodic liveness sweep over the VC's members (0 = disabled). The
    /// failure feed covers node death; the watchdog additionally catches a
    /// member VM that died without its node failing (guest crash, killed
    /// domain) and any failure the feed-triggered recovery missed, and
    /// restores the whole VC from its last complete checkpoint.
    sim::Duration watchdog_interval = 0;
    /// Consecutive restore failures tolerated per recovery point before
    /// the VC is declared failed (kFailed) instead of retrying forever.
    /// Damaged checkpoint data does not consume this budget — it triggers
    /// a generation fallback, which resets the count. Waiting for spare
    /// nodes is not a restore failure and stays unbounded.
    int max_restore_retries = 4;
  };

  /// Arms periodic checkpointing and automatic failure recovery for a VC.
  void enable_auto_recovery(VirtualCluster& vc, RecoveryPolicy policy);

  /// Stops the periodic checkpointing loop for a VC.
  void disable_auto_recovery(VirtualCluster& vc);

  /// Rolls a VC back to its last checkpoint immediately — the hook for
  /// callers that detect *application-level* failure themselves (the
  /// paper's "software errors" case; node death is handled automatically).
  void recover_now(VirtualCluster& vc);

  // ---- coordinator fault domain ------------------------------------------

  /// Attaches the cluster-wide coordinator-epoch fence. The same fence
  /// must be wired into the image manager and hypervisor fleet; until a
  /// head node is designated the manager issues unfenced commands and
  /// nothing changes.
  void set_fence(storage::EpochFence* fence) noexcept;

  /// Makes the control plane itself a fault domain: the manager now "runs"
  /// on `head` (dies with it, reboots when it is repaired), journals every
  /// state-changing intent to the shared store before acting, and fences
  /// all storage/hypervisor commands with the current coordinator epoch.
  /// `lease` is the incarnation's epoch lease, measured on the head node's
  /// *synced* clock: a successor waits the lease out before advancing the
  /// epoch, so a deposed-but-alive incarnation is fenced, never raced.
  void designate_head_node(hw::NodeId head,
                           sim::Duration lease = 10 * sim::kSecond);

  /// Kills the control-plane process (fault-injection hook). In-flight
  /// rounds lose their coordinator; member-side agents keep running. With
  /// `down_for` > 0 a reboot is scheduled; with 0 the coordinator stays
  /// down until reboot_coordinator() (or, after a head-node death, until
  /// the node is repaired).
  void crash_coordinator(sim::Duration down_for);

  /// Boots a new coordinator incarnation: waits out the previous lease,
  /// advances the epoch fence (deposing any zombie), replays the intent
  /// log against store/hypervisor ground truth, and aborts-or-completes
  /// every half-open operation.
  void reboot_coordinator();

  [[nodiscard]] bool coordinator_up() const noexcept {
    return coordinator_up_;
  }
  /// Epoch this incarnation stamps into commands (kUnfencedEpoch until a
  /// fence is attached).
  [[nodiscard]] std::uint64_t coordinator_epoch() const noexcept {
    return epoch_;
  }
  [[nodiscard]] std::uint64_t coordinator_crashes() const {
    return metrics_->counter_value(kCoordinatorCrashes);
  }
  [[nodiscard]] std::uint64_t coordinator_reboots() const {
    return metrics_->counter_value(kCoordinatorReboots);
  }
  /// Continuations dropped at the door because the incarnation that
  /// issued them is dead or deposed, or their VC is gone (see resolve).
  [[nodiscard]] std::uint64_t stale_completions() const {
    return metrics_->counter_value(kStaleCompletions);
  }
  /// Checkpoint sets found ownerless by a reboot's reconciliation pass:
  /// sealed orphans discarded, half-open rounds aborted.
  [[nodiscard]] std::uint64_t orphan_sets_discarded() const {
    return metrics_->counter_value(kOrphanSetsDiscarded);
  }
  [[nodiscard]] std::uint64_t orphan_rounds_aborted() const {
    return metrics_->counter_value(kOrphanRoundsAborted);
  }
  /// The write-ahead intent log (null until a head node is designated).
  [[nodiscard]] const IntentLog* intent_log() const noexcept {
    return wal_.get();
  }

  // ---- introspection -----------------------------------------------------

  [[nodiscard]] std::uint64_t recoveries_performed() const {
    return metrics_->counter_value(kRecoveries);
  }
  /// Sealed rounds that became recovery points: every sealed checkpoint
  /// round but the ones quarantined around a failed application.
  [[nodiscard]] std::uint64_t checkpoints_taken() const {
    return metrics_->counter_value(kCheckpoints) -
           metrics_->counter_value(kQuarantined);
  }
  [[nodiscard]] std::uint64_t migrations_performed() const {
    return metrics_->counter_value(kMigrations);
  }
  [[nodiscard]] std::uint64_t evacuations_performed() const {
    return metrics_->counter_value(kEvacuations);
  }
  /// Dead members first noticed by the watchdog sweep (not the feed).
  [[nodiscard]] std::uint64_t watchdog_detections() const {
    return metrics_->counter_value(kWatchdogDetections);
  }
  /// Recoveries that had to walk back to an older checkpoint generation
  /// because the newer one was damaged (torn / corrupted / unreadable).
  [[nodiscard]] std::uint64_t restore_fallbacks() const {
    return metrics_->counter_value(kRestoreFallbacks);
  }
  /// Recoveries abandoned after exhausting every generation and the retry
  /// budget; the VC ends in VcState::kFailed with its app marked failed.
  [[nodiscard]] std::uint64_t recoveries_abandoned() const {
    return metrics_->counter_value(kRecoveriesAbandoned);
  }
  /// Boots, LSC rounds, restores and live moves still in flight (each one
  /// record until its last member reports). A quiesced run has none.
  [[nodiscard]] std::size_t operations_in_flight() const noexcept {
    return ops_.size();
  }
  [[nodiscard]] hw::Fabric& fabric() noexcept { return *fabric_; }

  /// The LSC save-target list for a VC (hypervisor, machine, host clock per
  /// member). Exposed so benches/tests can drive coordinators directly.
  /// `incremental` holds only if every member has an image baseline.
  [[nodiscard]] std::vector<ckpt::SaveTarget> save_targets(
      VirtualCluster& vc, bool incremental = false);

  /// Attaches an optional structured trace sink (null to detach).
  void set_trace(sim::TraceLog* log) noexcept { trace_ = log; }

  /// Attaches an optional invariant checker (null to detach), notified of
  /// every VcState edge, round seal, restore completion and recovery
  /// resolution (success or abandonment).
  void set_check(check::Checker* c) noexcept { check_ = c; }

  /// Every VC the manager still tracks, id-ordered (destroyed VCs are
  /// erased and do not appear).
  [[nodiscard]] std::vector<const VirtualCluster*> live_vcs() const;

 private:
  struct VcRuntime {
    std::unique_ptr<VirtualCluster> vc;
    app::ParallelApp* app = nullptr;
    std::optional<RecoveryPolicy> policy;
    bool recovery_in_flight = false;
    bool checkpoint_in_flight = false;
    int ckpt_round = 0;
    /// Consecutive failed restores of the *current* recovery point.
    int restore_attempts = 0;
  };

  /// What a callback that outlives its call holds instead of a reference
  /// to its VC: the VC's id and the coordinator epoch that issued it.
  ///
  /// A callback's control-plane effects (state edges, intent closes,
  /// counters, checker boundaries, the caller's `done`, starting a restore
  /// or a retry) go through resolve(), which drops them once the VC is
  /// gone or the issuing incarnation is dead or deposed. Ground-truth
  /// bookkeeping (the node ledger following a moved guest, ending a span)
  /// resolves by id only, through runtime(), and so do the self-re-arming
  /// daemons (periodic checkpoint, watchdog) and the boot completion: a
  /// guest's boot and those loops must outlive a coordinator incarnation.
  /// An operation's record (Op) holds its Issued.
  struct Issued {
    VcId id = 0;
    std::uint64_t epoch = storage::kUnfencedEpoch;
  };
  [[nodiscard]] Issued issue(VcId id) const noexcept { return {id, epoch_}; }

  /// One in-flight operation: a boot (create_vc), an LSC round
  /// (checkpoint_vc, migrate_vc), a restore (restore_vc, or the one that
  /// ends a cold migration) or a live move (live_migrate_vc). Records are
  /// keyed by operation, not by VC: a rebooted coordinator may restore a VC
  /// while the deposed incarnation's member restores still land. A record
  /// ends when its last member reports, even when resolve() then drops the
  /// outcome as stale, or when destroy_vc erases it. Completions and
  /// pre-copy events carry `(this, id[, member])` and look it up.
  struct Op {
    /// One live-moving member's pre-copy state.
    struct Precopy {
      double residual = 0.0;  ///< the next round's bytes, once round > 0
      int round = 0;          ///< pre-copy rounds sent so far
      /// Its stop-and-copy freeze, set once it is copying to its target.
      std::optional<sim::Duration> downtime;
    };

    std::uint32_t id = 0;
    bool migration = false;  ///< a cold migration (its round or restore)
    Issued issued{};
    /// The coordinator of its LSC round while the round runs; destroy_vc
    /// aborts it.
    ckpt::LscCoordinator* lsc = nullptr;
    std::uint64_t lsn = 0;          ///< the operation's intent
    std::uint64_t restore_lsn = 0;  ///< its restore's intent
    telemetry::MetricsRegistry::SpanId span{};  ///< 0: kInvalidSpan
    sim::Time started = 0;  ///< when a restore or live move began
    /// Members (or chain sets being staged) still to report, and whether
    /// every report so far succeeded.
    std::uint32_t pending = 0;
    bool all_ok = true;
    bool can_increment = false;  ///< a checkpoint's members all could
    storage::CheckpointSetId set = 0;  ///< the recovery point restored
    /// What the member restores read in place (see restore_domain).
    std::shared_ptr<const std::vector<std::any>> snapshots{};
    std::vector<hw::NodeId> from{};  ///< a live move's sources
    std::vector<hw::NodeId> to{};    ///< the new placement
    LiveMigrationConfig cfg{};       ///< a live move's, as are the next two
    LiveMigrationStats stats{};
    std::vector<Precopy> members{};
    // The caller's `done`, by operation.
    std::function<void()> ready{};                    ///< boot
    std::function<void(ckpt::LscResult)> sealed{};    ///< checkpoint
    std::function<void(bool)> done{};                 ///< restore, migration
    std::function<void(LiveMigrationStats)> moved{};  ///< live move
  };
  /// The runtime record of VC `id`, or null once it is destroyed.
  [[nodiscard]] VcRuntime* runtime(VcId id);
  /// The one staleness check: the runtime record of `op`'s VC, or null
  /// when the VC is gone, the coordinator is down or its epoch has moved
  /// since `op` was issued. A drop is counted as a stale completion unless
  /// `count` is false, which retarget passes: the round's completion that
  /// follows an abandoned retry counts it.
  [[nodiscard]] VcRuntime* resolve(Issued op, bool count = true);
  /// The only writer of VirtualCluster::state_: moves the VC to `to` and
  /// publishes the edge to the attached checker.
  void transition(VcRuntime& rt, VcState to);
  /// The one test for a node a guest may be placed on: healthy, not
  /// condemned, and held by VC `self` or, if by no VC, by no job either
  /// (ids start at 1, so the default matches no VC).
  [[nodiscard]] bool node_free(hw::NodeId n, VcId self = 0) const;
  /// Member `i` has no host node, its host failed, or its domain is dead.
  [[nodiscard]] bool member_lost(const VirtualCluster& vc,
                                 std::uint32_t i) const;
  [[nodiscard]] bool any_member_lost(const VirtualCluster& vc) const;
  void on_node_failure(hw::NodeId node);
  void on_failure_prediction(hw::NodeId node, sim::Duration lead);
  /// Marks recovery in flight and rolls the VC back to its recovery point.
  void recover(VcRuntime& rt);
  /// Marks recovery in flight and re-runs recover() after `delay`, if
  /// `rt`'s VC and the issuing incarnation still exist then.
  void recover_after(VcRuntime& rt, sim::Duration delay);
  /// Spare nodes for `vc`'s recovery: free to it (node_free) and not in
  /// `placement`, and, if `avoid_current`, not in its current mapping. The
  /// pool stays in flat node-id order rather than packing by cluster.
  [[nodiscard]] std::vector<hw::NodeId> free_pool(
      const VirtualCluster& vc, const std::vector<hw::NodeId>& placement,
      bool avoid_current) const;
  /// The save targets for a retried round of operation `id` (see
  /// ckpt::LscCoordinator::Retarget), or nullopt to abandon the retry.
  /// Never asked for a destroyed VC: destroy_vc's abort ends the retry.
  std::optional<std::vector<ckpt::SaveTarget>> retarget(std::uint32_t id,
                                                         bool incremental);
  // ---- restore and live-move steps (see Op) -------------------------------
  /// Rolls `rt`'s VC back onto `op.to`, then files `op`.
  void restore(VcRuntime& rt, Op op);
  void restore_members(Op op);
  /// Ends a restore (and the cold migration it completes, if any).
  void restore_ended(Op op);
  /// Member `i`'s next step in live move `id`: a pre-copy round, its
  /// stop-and-copy, or its landing on the target.
  void move_member(std::uint32_t id, std::uint32_t i);
  void member_moved(std::uint32_t id, bool ok);
  // ---- coordinator fault domain ------------------------------------------
  /// Journals an intent (no-op without a WAL); returns 0 when not logged.
  std::uint64_t journal(IntentKind kind, VcId vc, const std::string& label);
  void close_intent(std::uint64_t lsn);
  void renew_lease();
  void lease_renewal_tick();
  void watch_head_repair();
  void poll_head_repair();
  /// The reboot's reconciliation pass: replays the WAL against store and
  /// hypervisor ground truth, disposes of orphaned checkpoint sets, and
  /// aborts-or-completes every operation the crash left half-open.
  void recover_control_plane();
  void reconcile_vc(VcRuntime& rt);
  void schedule_periodic_checkpoint(VcId id);
  /// Starts a policy checkpoint round unless the VC is busy or the
  /// coordinator is down; `first` marks the full checkpoint #0.
  void start_policy_checkpoint(VcRuntime& rt, bool first);
  void schedule_member_watchdog(VcId id);
  // ---- generation history ------------------------------------------------
  /// Makes `g` the VC's recovery point and trims the list to the policy's
  /// keep window, oldest first.
  void push_generation(VcRuntime& rt, VcGeneration g);
  /// Erases generation `i` of `vc`, then discards each set of its chain
  /// that no remaining generation lists. Set ids are per VC (each set is
  /// filed under its VC's label), so no other VC can list them.
  void release_generation(VirtualCluster& vc, std::size_t i);
  /// Missing from the store, or torn/corrupted beyond replica repair.
  [[nodiscard]] bool set_damaged(storage::CheckpointSetId s) const;
  [[nodiscard]] bool chain_damaged(
      const std::vector<storage::CheckpointSetId>& chain) const;
  /// Drops the damaged current recovery point and every older generation
  /// already known to be damaged. False = none left.
  bool fall_back_generation(VcRuntime& rt);
  void abandon_recovery(VcRuntime& rt, const std::string& why);

  sim::Simulation* sim_;
  hw::Fabric* fabric_;
  vm::HypervisorFleet* fleet_;
  storage::ImageManager* images_;
  clocksync::ClusterTimeService* time_;
  VcId next_vc_ = 1;
  std::map<VcId, VcRuntime> vcs_;
  /// In-flight operations. A member's or an LSC round's report joins its
  /// record (sim::IdTable::join), which the last one takes out.
  sim::IdTable<Op, std::uint32_t> ops_;
  // ---- coordinator fault domain ------------------------------------------
  storage::EpochFence* fence_ = nullptr;
  /// Epoch stamped into every command this incarnation issues. Stays
  /// kUnfencedEpoch (admitted everywhere) until a fence is attached, so
  /// library users driving the manager directly see no fencing at all.
  std::uint64_t epoch_ = storage::kUnfencedEpoch;
  bool coordinator_up_ = true;
  hw::NodeId head_node_ = hw::kInvalidNode;
  sim::Duration lease_ = 10 * sim::kSecond;
  /// When the current lease runs out, on the *head node's* clock.
  sim::Time lease_expiry_local_ = 0;
  bool lease_daemon_armed_ = false;
  bool repair_watch_armed_ = false;
  std::unique_ptr<IntentLog> wal_;
  sim::TraceLog* trace_ = nullptr;
  telemetry::MetricsRegistry* metrics_;
  // One counter name per event, shared by its count site and accessor.
  using Name = std::string_view;
  static constexpr Name kRecoveries = "core.dvc.recoveries";
  static constexpr Name kCheckpoints = "core.dvc.checkpoints";
  static constexpr Name kQuarantined = "core.dvc.checkpoints_quarantined";
  static constexpr Name kMigrations = "core.dvc.migrations";
  static constexpr Name kEvacuations = "core.dvc.evacuations";
  static constexpr Name kLiveMigrations = "core.dvc.live_migrations";
  static constexpr Name kWatchdogDetections = "core.dvc.watchdog_detections";
  static constexpr Name kRestoreFallbacks = "core.dvc.restore_fallbacks";
  static constexpr Name kRecoveriesAbandoned = "core.dvc.recoveries_abandoned";
  static constexpr Name kCoordinatorCrashes = "core.dvc.coordinator_crashes";
  static constexpr Name kCoordinatorReboots = "core.dvc.coordinator_reboots";
  static constexpr Name kStaleCompletions = "core.dvc.stale_completions";
  static constexpr Name kOrphanSetsDiscarded = "core.dvc.orphan_sets_discarded";
  static constexpr Name kOrphanRoundsAborted = "core.dvc.orphan_rounds_aborted";
  telemetry::CounterHandle checkpoints_c_{std::string(kCheckpoints)};
  telemetry::CounterHandle checkpoint_failures_c_{
      "core.dvc.checkpoint_failures"};
  check::Checker* check_ = nullptr;
};

}  // namespace dvc::core
