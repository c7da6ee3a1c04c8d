#include "core/dvc_manager.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

namespace dvc::core {

namespace {
/// Time from a node dying to the DVC monitor noticing (heartbeat period).
constexpr sim::Duration kFailureDetectionDelay = 1 * sim::kSecond;
/// Backoff before retrying a recovery that could not find nodes.
constexpr sim::Duration kRecoveryRetryDelay = 30 * sim::kSecond;
/// How often a headless control plane checks whether its head is back.
constexpr sim::Duration kRepairPoll = 5 * sim::kSecond;

/// The recovery point a sealed round leaves behind: `chain` followed by the
/// round's set. It takes over the round's guest snapshots (moved, never
/// copied), so the round's own continuation sees an empty `app_snapshots`.
VcGeneration adopt_checkpoint(ckpt::LscResult& r,
                              std::vector<storage::CheckpointSetId> chain,
                              sim::Time at) {
  chain.push_back(r.set);
  return VcGeneration{std::move(chain),
                      std::make_shared<const std::vector<std::any>>(
                          std::move(r.app_snapshots)),
                      at};
}

/// Nothing leaves kFailed: true, with `done` told of failure, for such a VC.
template <class Done>
bool refuse_failed(const VirtualCluster& vc, const Done& done) {
  if (vc.state() != VcState::kFailed) return false;
  if (done) done({});
  return true;
}

void require_size(std::size_t vc_size, std::size_t placement_size) {
  if (placement_size != vc_size) {
    throw std::invalid_argument("placement size != vc size");
  }
}
}  // namespace

DvcManager::DvcManager(sim::Simulation& sim, hw::Fabric& fabric,
                       vm::HypervisorFleet& fleet,
                       storage::ImageManager& images,
                       clocksync::ClusterTimeService& time,
                       telemetry::MetricsRegistry& metrics)
    : sim_(&sim),
      fabric_(&fabric),
      fleet_(&fleet),
      images_(&images),
      time_(&time),
      metrics_(&metrics) {
  if (time.size() < fabric.node_count()) {
    throw std::invalid_argument(
        "time service must cover every fabric node (clock per NodeId)");
  }
  fabric.subscribe_failures([this](hw::NodeId n) { on_node_failure(n); });
  fabric.subscribe_predictions([this](hw::NodeId n, sim::Duration lead) {
    on_failure_prediction(n, lead);
  });
}

std::optional<std::vector<hw::NodeId>> DvcManager::pick_nodes(
    std::uint32_t count) const {
  return fabric_->place(count,
                        [this](hw::NodeId n) { return node_free(n); });
}

bool DvcManager::node_free(hw::NodeId n, VcId self) const {
  const hw::PhysicalNode& node = fabric_->node(n);
  return (node.vc() == 0 ? node.job() == 0 : node.vc() == self) &&
         !node.condemned() && !node.failed();
}

bool DvcManager::member_lost(const VirtualCluster& vc, std::uint32_t i) const {
  const hw::NodeId n = vc.placement(i);
  return n == hw::kInvalidNode || fabric_->node(n).failed() ||
         vc.machine(i).state() == vm::DomainState::kDead;
}

bool DvcManager::any_member_lost(const VirtualCluster& vc) const {
  for (std::uint32_t i = 0; i < vc.size(); ++i) {
    if (member_lost(vc, i)) return true;
  }
  return false;
}

DvcManager::VcRuntime* DvcManager::runtime(VcId id) {
  const auto it = vcs_.find(id);
  return it == vcs_.end() ? nullptr : &it->second;
}

DvcManager::VcRuntime* DvcManager::resolve(Issued op, bool count) {
  VcRuntime* rt = runtime(op.id);
  if (rt != nullptr && coordinator_up_ && op.epoch == epoch_) return rt;
  if (count) telemetry::count(metrics_, kStaleCompletions);
  return nullptr;
}

void DvcManager::transition(VcRuntime& rt, VcState to) {
  const VcState from = rt.vc->state_;
  rt.vc->state_ = to;
  if (check_ != nullptr) {
    check_->on_vc_transition(rt.vc->id(), static_cast<std::uint8_t>(from),
                             static_cast<std::uint8_t>(to));
  }
}

VirtualCluster& DvcManager::create_vc(VcSpec spec,
                                      std::vector<hw::NodeId> placement,
                                      std::function<void()> on_ready) {
  require_size(spec.size, placement.size());
  const VcId id = next_vc_++;
  sim::trace(trace_, sim_->now(), sim::TraceLevel::kInfo, "dvc",
             "provisioning vc#" + std::to_string(id) + " (" +
                 std::to_string(placement.size()) + " guests)");
  telemetry::count(metrics_, "core.dvc.vcs_created");
  telemetry::instant(metrics_, sim_->now(), "dvc", "provision_vc");
  VcRuntime& rt = vcs_[id];
  rt.vc = std::make_unique<VirtualCluster>(*sim_, fabric_->network(), id,
                                           std::move(spec));
  VirtualCluster& vc = *rt.vc;
  vc.placement_ = std::move(placement);
  vc.instantiations_ = 1;
  fabric_->hold(hw::Holder::kVc, vc.placement_, id);

  const std::uint32_t boot = ops_.open(
      {.issued = issue(id),
       .lsn = journal(IntentKind::kProvision, id, vc.checkpoint_label()),
       .pending = vc.size(), .ready = std::move(on_ready)}).id;
  for (std::uint32_t i = 0; i < vc.size(); ++i) {
    fleet_->on_node(vc.placement(i)).boot_domain(vc.machine(i), [this, boot] {
      if (std::optional<Op> booted = ops_.join(boot, true)) {
        // By id, not resolve(): see Issued.
        transition(*runtime(booted->issued.id), VcState::kRunning);
        close_intent(booted->lsn);
        if (booted->ready) booted->ready();
      }
    });
  }
  return vc;
}

void DvcManager::destroy_vc(VirtualCluster& vc) {
  // Out of the table first: every callback the teardown triggers, and
  // every one still pending, resolves to nothing.
  auto entry = vcs_.extract(vc.id());
  if (entry.empty()) return;
  const auto of_vc = [id = vc.id()](const Op& o) { return o.issued.id == id; };
  for (const Op& op : ops_) {
    if (of_vc(op) && op.lsc != nullptr) op.lsc->abort(vc.checkpoint_label());
  }
  // Ends each guest's in-flight boot, save and restore, on any node.
  std::vector<vm::VirtualMachine*> guests;
  guests.reserve(vc.size());
  for (std::uint32_t i = 0; i < vc.size(); ++i) {
    guests.push_back(&vc.machine(i));
  }
  fleet_->destroy_domains(guests);
  // Nothing reports to the VC's operations any more.
  ops_.erase_if(of_vc);
  // A live migration in flight also holds its targets: give back every
  // node the VC holds.
  std::vector<hw::NodeId> held;
  for (hw::NodeId n = 0; n < fabric_->node_count(); ++n) {
    if (fabric_->node(n).vc() == vc.id()) held.push_back(n);
  }
  fabric_->release(hw::Holder::kVc, held, vc.id());
  // Retire the VC's retained generations, oldest first: each set leaves
  // the store with the last generation that lists it.
  while (!vc.generations_.empty()) release_generation(vc, 0);
}  // `entry` frees the VirtualCluster and its VMs

std::vector<const VirtualCluster*> DvcManager::live_vcs() const {
  std::vector<const VirtualCluster*> out;
  out.reserve(vcs_.size());
  for (const auto& [id, rt] : vcs_) out.push_back(rt.vc.get());
  return out;
}

void DvcManager::attach_app(VirtualCluster& vc,
                            app::ParallelApp& application) {
  if (application.size() != vc.size()) {
    throw std::invalid_argument("app rank count != vc size");
  }
  for (std::uint32_t i = 0; i < vc.size(); ++i) {
    vc.machine(i).set_guest_software(&application.rank(i));
  }
  vcs_.at(vc.id()).app = &application;
}

std::vector<ckpt::SaveTarget> DvcManager::save_targets(VirtualCluster& vc,
                                                       bool incremental) {
  // An incremental round needs a baseline on every member.
  for (std::uint32_t i = 0; i < vc.size(); ++i) {
    incremental = incremental && vc.machine(i).has_image_baseline();
  }
  std::vector<ckpt::SaveTarget> targets;
  targets.reserve(vc.size());
  for (std::uint32_t i = 0; i < vc.size(); ++i) {
    const hw::NodeId node = vc.placement(i);
    ckpt::SaveTarget t{&fleet_->on_node(node), &vc.machine(i),
                       &time_->clock(node), i};
    // Stamp the issuing incarnation's fencing token: if this coordinator
    // is deposed before the save lands, the stale epoch is rejected at
    // the hypervisor and image-manager doors.
    t.epoch = epoch_;
    t.incremental = incremental;
    targets.push_back(t);
  }
  return targets;
}

void DvcManager::checkpoint_vc(VirtualCluster& vc,
                               ckpt::LscCoordinator& lsc,
                               std::function<void(ckpt::LscResult)> done,
                               bool incremental) {
  if (refuse_failed(vc, done)) return;
  transition(vcs_.at(vc.id()), VcState::kCheckpointing);
  std::vector<ckpt::SaveTarget> targets = save_targets(vc, incremental);
  const bool can_increment =
      incremental &&
      std::ranges::all_of(targets, &ckpt::SaveTarget::incremental);
  const auto span =
      telemetry::begin_span(metrics_, sim_->now(), "dvc", "checkpoint");
  const std::uint32_t id = ops_.open(
      {.issued = issue(vc.id()), .lsc = &lsc,
       .lsn = journal(IntentKind::kCheckpoint, vc.id(), vc.checkpoint_label()),
       .span = span, .pending = 1, .can_increment = can_increment,
       .sealed = std::move(done)}).id;
  lsc.checkpoint(
      vc.checkpoint_label(), std::move(targets), *images_,
      [this, id](ckpt::LscResult r) {
        const std::optional<Op> round = ops_.join(id, r.ok);
        if (round) telemetry::end_span(metrics_, round->span, sim_->now());
        VcRuntime* live = round ? resolve(round->issued) : nullptr;
        if (live == nullptr) {
          // Without `round` the VC is gone. Without `live` the issuing
          // coordinator died mid-round. Nobody may adopt the result: the
          // app snapshots it carries belong to an incarnation whose view
          // of the cluster is gone, and the recovery point must come from
          // reconciliation, not a ghost. The set (if any) is swept as an
          // orphan by recover_control_plane.
          return;
        }
        close_intent(round->lsn);
        telemetry::count(metrics_,
                         r.ok ? checkpoints_c_ : checkpoint_failures_c_);
        VirtualCluster& vc = *live->vc;
        if (vc.state_ == VcState::kCheckpointing) {
          transition(*live, VcState::kRunning);
        }
        if (r.ok && live->app != nullptr && live->app->failed()) {
          // The set sealed around an application that had already
          // reported transport failure: its ranks may be wedged
          // mid-exchange with messages neither delivered nor pending
          // retransmission. Restoring such an image resurrects the
          // wedge, so quarantine the set and keep the previous
          // recovery point.
          images_->discard_set(r.set, epoch_);
          telemetry::count(metrics_, kQuarantined);
          sim::trace(trace_, sim_->now(), sim::TraceLevel::kWarn, "dvc",
                     "vc#" + std::to_string(vc.id()) +
                         " checkpoint quarantined (app failed)");
          r.ok = false;
        } else if (r.ok) {
          sim::trace(trace_, sim_->now(), sim::TraceLevel::kInfo, "dvc",
                     "vc#" + std::to_string(vc.id()) + " checkpoint " +
                         (round->can_increment ? "(incremental) " : "") +
                         "sealed, skew " +
                         std::to_string(sim::to_milliseconds(r.pause_skew)) +
                         " ms");
          // An incremental set extends the current recovery point's
          // chain; a full one starts a chain of its own.
          std::vector<storage::CheckpointSetId> base;
          if (round->can_increment && !vc.generations_.empty()) {
            base = vc.generations_.back().chain;
          }
          push_generation(*live,
                          adopt_checkpoint(r, std::move(base), sim_->now()));
          if (check_ != nullptr) {
            check_->on_vc_boundary(check::Boundary::kRoundSeal, vc.id());
          }
        }
        if (round->sealed) round->sealed(std::move(r));
      },
      /*resume_after_save=*/true,
      [this, id, incremental] { return retarget(id, incremental); });
}

std::optional<std::vector<ckpt::SaveTarget>> DvcManager::retarget(
    std::uint32_t id, bool incremental) {
  // Retried rounds must not re-fire the targets the round started with:
  // the failure that sank the previous round may have relocated members,
  // and a stale mapping pauses the survivors while the moved member runs
  // on. Re-resolve from the live placement, or abandon the retry: with
  // the incarnation that started the round (the reboot's reconciliation
  // owns the cluster now), and while a member is dead or a recovery is
  // rewinding the cluster.
  const Op* op = ops_.find(id);
  VcRuntime* rt = op == nullptr ? nullptr : resolve(op->issued, false);
  if (rt == nullptr || rt->recovery_in_flight ||
      rt->vc->state_ == VcState::kRecovering || any_member_lost(*rt->vc)) {
    return std::nullopt;
  }
  return save_targets(*rt->vc, incremental);
}

void DvcManager::restore_vc(VirtualCluster& vc,
                            std::vector<hw::NodeId> new_placement,
                            std::function<void(bool)> done) {
  if (vc.state_ == VcState::kFailed || !vc.has_checkpoint()) {
    if (done) done(false);
    return;
  }
  restore(vcs_.at(vc.id()), {.issued = issue(vc.id()),
                             .to = std::move(new_placement),
                             .done = std::move(done)});
}

void DvcManager::restore(VcRuntime& rt, Op op) {
  VirtualCluster& vc = *rt.vc;
  require_size(vc.size(), op.to.size());
  const VcGeneration& point = vc.generations_.back();
  transition(rt, VcState::kRecovering);
  sim::trace(trace_, sim_->now(), sim::TraceLevel::kWarn, "dvc",
             "vc#" + std::to_string(vc.id()) +
                 " rolling back to checkpoint set " +
                 std::to_string(point.set()));

  // The entire cluster rolls back: freeze survivors, detach everything
  // from its old node, bump the transport epoch, then restore every member
  // from the checkpoint set on its new node.
  if (rt.app != nullptr) rt.app->begin_rollback();
  for (std::uint32_t i = 0; i < vc.size(); ++i) {
    vm::VirtualMachine& m = vc.machine(i);
    if (m.state() == vm::DomainState::kRunning) m.pause();
    const hw::NodeId old_node = vc.placement(i);
    if (old_node != hw::kInvalidNode) fleet_->on_node(old_node).evict(m);
  }
  fabric_->release(hw::Holder::kVc, vc.placement_, vc.id());
  vc.placement_ = std::move(op.to);
  fabric_->hold(hw::Holder::kVc, vc.placement_, vc.id());
  ++vc.instantiations_;

  op.set = point.set();
  op.restore_lsn =
      journal(IntentKind::kRestore, vc.id(), vc.checkpoint_label());
  op.span = telemetry::begin_span(metrics_, sim_->now(), "dvc", "restore");
  op.started = sim_->now();
  // Incremental chains first stage every earlier set back to the last
  // full image; the newest set is staged by restore_domain itself.
  std::vector<storage::CheckpointSetId> prior_sets(point.chain.begin(),
                                                   point.chain.end() - 1);
  if (prior_sets.empty()) {
    restore_members(std::move(op));
    return;
  }
  op.pending = static_cast<std::uint32_t>(prior_sets.size());
  const std::uint32_t id = ops_.open(std::move(op)).id;
  for (const storage::CheckpointSetId s : prior_sets) {
    images_->stage_set(s, [this, id](bool ok) {
      if (std::optional<Op> staged = ops_.join(id, ok)) {
        staged->all_ok ? restore_members(std::move(*staged))
                       : restore_ended(std::move(*staged));
      }
    });
  }
}

// The member restores continue a restore already issued (the ledger
// already names their nodes), so they resolve by id; the hypervisors'
// epoch fence is what turns away a deposed incarnation's.
void DvcManager::restore_members(Op op) {
  VirtualCluster& vc = *runtime(op.issued.id)->vc;
  const std::uint32_t n = vc.size();
  op.pending = n;
  // The record holds the snapshots until its last member reports, even if
  // the VC's generations move on.
  op.snapshots = vc.generations_.back().app_snapshots;
  // A member restore may report at once, but only the last report ends
  // (and so moves) the record: `filed` holds for every call below.
  const Op& filed = ops_.open(std::move(op));
  const std::uint32_t id = filed.id;
  for (std::uint32_t i = 0; i < n; ++i) {
    fleet_->on_node(vc.placement(i))
        .restore_domain(vc.machine(i), *images_, filed.set, i,
                        filed.snapshots->at(i),
                        [this, id](bool ok) {
                          if (std::optional<Op> restored = ops_.join(id, ok)) {
                            restore_ended(std::move(*restored));
                          }
                        },
                        filed.issued.epoch);
  }
}

void DvcManager::restore_ended(Op op) {
  const bool ok = op.all_ok;
  telemetry::end_span(metrics_, op.span, sim_->now());
  VcRuntime* live = resolve(op.issued);
  if (live == nullptr) {
    // Issued by a dead or deposed incarnation: the guests are where the
    // restore put them, but the VC's state is the reboot's
    // reconciliation to decide.
    return;
  }
  transition(*live, ok ? VcState::kRunning : VcState::kProvisioning);
  close_intent(op.restore_lsn);
  telemetry::count(metrics_,
                   ok ? "core.dvc.restores" : "core.dvc.restore_failures");
  telemetry::observe(metrics_, "core.dvc.restore_s",
                     sim::to_seconds(sim_->now() - op.started));
  if (check_ != nullptr) {
    check_->on_vc_boundary(check::Boundary::kRestore, op.issued.id);
  }
  close_intent(op.lsn);  // a cold migration's (a restore has none)
  if (op.migration && !ok && live->vc->has_checkpoint() &&
      !live->recovery_in_flight && live->vc->state_ != VcState::kFailed) {
    // The hold-save sealed but the restore side died (target node or
    // store fault mid-stage). The members are frozen with a durable
    // recovery point: roll the whole VC back from it rather than leave
    // the cluster wedged between two placements.
    recover(*live);
  }
  if (op.done) op.done(ok);
}

void DvcManager::migrate_vc(VirtualCluster& vc, ckpt::LscCoordinator& lsc,
                            std::vector<hw::NodeId> new_placement,
                            std::function<void(bool)> done) {
  if (refuse_failed(vc, done)) return;
  transition(vcs_.at(vc.id()), VcState::kMigrating);
  const std::uint32_t id = ops_.open(
      {.migration = true, .issued = issue(vc.id()), .lsc = &lsc,
       .lsn = journal(IntentKind::kMigrate, vc.id(), vc.checkpoint_label()),
       .pending = 1, .to = std::move(new_placement), .done = std::move(done)})
          .id;
  lsc.checkpoint(
      vc.checkpoint_label(), save_targets(vc), *images_,
      [this, id](ckpt::LscResult r) {
        std::optional<Op> move = ops_.join(id, r.ok);
        VcRuntime* live = move ? resolve(move->issued) : nullptr;
        if (live == nullptr) {
          // The coordinator that ordered the move died while the members
          // were saving. The held domains are reconciled (resumed in
          // place or recovered) by the reboot pass, not here.
          return;
        }
        if (!r.ok) {
          close_intent(move->lsn);
          transition(*live, VcState::kRunning);
          if (move->done) move->done(false);
          return;
        }
        // The migration image is the VC's recovery point from here on:
        // a full set, so a chain of its own.
        push_generation(*live, adopt_checkpoint(r, {}, sim_->now()));
        telemetry::count(metrics_, kMigrations);
        move->lsc = nullptr;  // the round is over
        restore(*live, std::move(*move));
      },
      /*resume_after_save=*/false,
      [this, id] { return retarget(id, /*incremental=*/false); });
}

void DvcManager::live_migrate_vc(
    VirtualCluster& vc, std::vector<hw::NodeId> new_placement,
    LiveMigrationConfig cfg, std::function<void(LiveMigrationStats)> done) {
  require_size(vc.size(), new_placement.size());
  if (refuse_failed(vc, done)) return;
  transition(vcs_.at(vc.id()), VcState::kMigrating);
  // Reserve the targets up front so nothing else lands on them mid-move.
  fabric_->hold(hw::Holder::kVc, new_placement, vc.id());
  const std::uint32_t n = vc.size();
  const std::uint32_t id = ops_.open(
      {.issued = issue(vc.id()), .started = sim_->now(), .pending = n,
       .from = vc.placements(), .to = std::move(new_placement), .cfg = cfg,
       .members = std::vector<Op::Precopy>(n), .moved = std::move(done)})
          .id;
  for (std::uint32_t i = 0; i < n; ++i) move_member(id, i);
}

// Iterative pre-copy: stream the whole guest while it runs, then stream
// what it dirtied meanwhile, and so on until the residual is small (or we
// give up and eat a longer stop-and-copy); then freeze the guest, send the
// residual and resume it on its target. A member's steps look its VC up by
// id: they move guests, which is ground truth.
void DvcManager::move_member(std::uint32_t id, std::uint32_t i) {
  Op* op = ops_.find(id);
  if (op == nullptr) return;
  VirtualCluster& vc = *runtime(op->issued.id)->vc;
  vm::VirtualMachine& m = vc.machine(i);
  const hw::NodeId dst = op->to[i];
  Op::Precopy& p = op->members[i];
  if (m.state() == vm::DomainState::kDead || fabric_->node(dst).failed()) {
    // A copy that never landed leaves the guest carrying on at its source.
    if (p.downtime) fleet_->on_node(op->from[i]).resume_domain(m);
    member_moved(id, false);
    return;
  }
  if (p.downtime) {
    op->stats.max_downtime = std::max(op->stats.max_downtime, *p.downtime);
    fleet_->on_node(op->from[i]).evict(m);
    fleet_->on_node(dst).adopt(m);
    vc.placement_[i] = dst;
    m.resume();
    member_moved(id, true);
    return;
  }
  // Residual below which the final stop-and-copy round is taken.
  constexpr double kStopCopyThreshold = 16 << 20;
  const double per_vm_bw = op->cfg.bandwidth_bps / op->members.size();
  // Round 0 streams the whole guest.
  const double residual =
      p.round == 0 ? static_cast<double>(m.config().ram_bytes) : p.residual;
  if (residual > kStopCopyThreshold &&
      p.round < op->cfg.max_precopy_rounds) {
    const double t = residual / per_vm_bw;
    op->stats.bytes_moved += residual;
    p.residual = std::min(residual, m.config().dirty_rate_bps * t);
    ++p.round;
    sim_->schedule_after(sim::from_seconds(t),
                         [this, id, i] { move_member(id, i); });
    return;
  }
  // Final stop-and-copy of the residual: the only downtime the guest sees.
  m.pause();
  op->stats.bytes_moved += residual;
  p.downtime = sim::from_seconds(residual / per_vm_bw) +
               vm::Hypervisor::kRestoreOverhead;
  sim_->schedule_after(*p.downtime, [this, id, i] { move_member(id, i); });
}

void DvcManager::member_moved(std::uint32_t id, bool ok) {
  std::optional<Op> move = ops_.join(id, ok);
  if (!move) return;
  const VcId vc = move->issued.id;
  // A member whose move failed stayed on its source node: the ledger
  // follows where every member actually ended up.
  fabric_->release(hw::Holder::kVc, move->from, vc);
  fabric_->release(hw::Holder::kVc, move->to, vc);
  fabric_->hold(hw::Holder::kVc, runtime(vc)->vc->placement_, vc);
  move->stats.ok = move->all_ok;
  move->stats.total_time = sim_->now() - move->started;
  VcRuntime* live = resolve(move->issued);
  if (live == nullptr) return;
  transition(*live, !move->all_ok && any_member_lost(*live->vc)
                        ? VcState::kProvisioning
                        : VcState::kRunning);
  if (move->stats.ok) {
    telemetry::count(metrics_, kLiveMigrations);
    telemetry::observe(metrics_, "core.dvc.live_migrate_downtime_s",
                       sim::to_seconds(move->stats.max_downtime));
  }
  if (move->moved) move->moved(move->stats);
}

void DvcManager::enable_auto_recovery(VirtualCluster& vc,
                                      RecoveryPolicy policy) {
  if (policy.coordinator == nullptr) {
    throw std::invalid_argument("recovery policy needs a coordinator");
  }
  vcs_.at(vc.id()).policy = policy;
  // Take checkpoint #0 right away: a failure in the first interval would
  // otherwise find nothing to roll back to and lose the whole run.
  const VcId id = vc.id();
  sim_->schedule_after(0, [this, id] {
    VcRuntime* rt = runtime(id);
    if (rt != nullptr && rt->policy) {
      start_policy_checkpoint(*rt, /*first=*/true);
    }
  });
  schedule_periodic_checkpoint(vc.id());
  schedule_member_watchdog(vc.id());
}

void DvcManager::disable_auto_recovery(VirtualCluster& vc) {
  if (VcRuntime* rt = runtime(vc.id())) rt->policy.reset();
}

void DvcManager::schedule_periodic_checkpoint(VcId id) {
  const VcRuntime* rt = runtime(id);
  if (rt == nullptr || !rt->policy) return;
  // Periodic checkpointing is housekeeping: it protects foreground work
  // but must not keep the simulation alive once that work is done.
  sim_->schedule_daemon_after(rt->policy->interval, [this, id] {
    VcRuntime* live = runtime(id);
    if (live == nullptr || !live->policy) return;
    // A downed coordinator skips the tick but keeps the loop alive: the
    // cadence resumes by itself once a new incarnation boots.
    start_policy_checkpoint(*live, /*first=*/false);
    schedule_periodic_checkpoint(id);
  });
}

void DvcManager::start_policy_checkpoint(VcRuntime& rt, bool first) {
  if (!coordinator_up_ || rt.vc->state_ != VcState::kRunning ||
      rt.recovery_in_flight || rt.checkpoint_in_flight) {
    return;
  }
  rt.checkpoint_in_flight = true;
  // Checkpoint #0 is full; later rounds are incremental between periodic
  // full images (bounding the restore chain). push_generation trims old
  // generations, and a shared base full image stays in the store for as
  // long as a retained chain still lists it.
  const bool incremental =
      !first && rt.policy->incremental &&
      (++rt.ckpt_round % std::max(rt.policy->full_every, 1)) != 0;
  checkpoint_vc(
      *rt.vc, *rt.policy->coordinator,
      [this, op = issue(rt.vc->id())](const ckpt::LscResult&) {
        if (VcRuntime* live = resolve(op)) live->checkpoint_in_flight = false;
      },
      incremental);
}

void DvcManager::schedule_member_watchdog(VcId id) {
  const VcRuntime* watched = runtime(id);
  if (watched == nullptr || !watched->policy ||
      watched->policy->watchdog_interval <= 0) {
    return;
  }
  // A daemon, like the checkpoint loop: supervision must not keep an
  // otherwise-finished run alive.
  sim_->schedule_daemon_after(watched->policy->watchdog_interval,
                              [this, id] {
    VcRuntime* rt = runtime(id);
    if (rt == nullptr || !rt->policy) return;
    if (coordinator_up_ && !rt->recovery_in_flight &&
        rt->vc->has_checkpoint() &&
        rt->vc->state_ != VcState::kRecovering &&
        rt->vc->state_ != VcState::kFailed) {
      const bool member_dead = any_member_lost(*rt->vc);
      // An application-level abort (a rank's transport gave up) with every
      // member nominally alive: nothing else in the failure feed will ever
      // fire, so the watchdog is the only path back to the checkpoint.
      const bool app_failed = rt->app != nullptr && rt->app->failed() &&
                              !rt->app->completed();
      // Never roll back a finished job, even with a dead member: the
      // results are in, only idle guests would be resurrected.
      const bool job_live = rt->app == nullptr || !rt->app->completed();
      if ((member_dead && job_live) || app_failed) {
        telemetry::count(metrics_, kWatchdogDetections);
        telemetry::instant(metrics_, sim_->now(), "dvc", "watchdog_detect");
        sim::trace(trace_, sim_->now(), sim::TraceLevel::kWarn, "dvc",
                   "vc#" + std::to_string(id) +
                       (member_dead ? " watchdog: dead member,"
                                    : " watchdog: application failure,") +
                       " restoring from last checkpoint");
        recover(*rt);
      }
    }
    schedule_member_watchdog(id);
  });
}

void DvcManager::on_node_failure(hw::NodeId node) {
  if (node == head_node_ && coordinator_up_) {
    // The control plane lives on this node: the coordinator dies with it
    // and comes back only when the hardware does.
    sim::trace(trace_, sim_->now(), sim::TraceLevel::kError, "dvc",
               "head node " + std::to_string(node) +
                   " died; coordinator down with it");
    crash_coordinator(/*down_for=*/0);
    watch_head_repair();
  }
  VcRuntime* rt = runtime(fabric_->node(node).vc());
  if (rt == nullptr) return;
  if (!coordinator_up_) {
    // Nobody is home to run the failure feed. The member's death is not
    // lost: the reboot's reconciliation pass re-derives it from ground
    // truth, and the watchdog re-checks every sweep.
    telemetry::count(metrics_, "core.dvc.failures_while_headless");
    return;
  }
  if (!rt->policy || rt->recovery_in_flight || !rt->vc->has_checkpoint()) {
    return;
  }
  // A finished job has nothing left to protect: rolling it back would
  // resurrect ranks just to redo work whose results already exist.
  if (rt->app != nullptr && rt->app->completed()) return;
  recover_after(*rt, kFailureDetectionDelay);
}

void DvcManager::on_failure_prediction(hw::NodeId node,
                                       sim::Duration /*lead*/) {
  const VcId id = fabric_->node(node).vc();
  VcRuntime* rt = runtime(id);
  if (rt == nullptr || !coordinator_up_ || !rt->policy ||
      !rt->policy->proactive_migration || rt->recovery_in_flight ||
      rt->vc->state_ != VcState::kRunning) {
    return;
  }

  // Evacuate: the same mapping with the suspect node swapped for a spare.
  VirtualCluster& vc = *rt->vc;
  // Cluster-ordered node ids are sequential, so this is the lowest-id
  // free node.
  const auto spare = pick_nodes(1);
  if (!spare) return;  // reactive recovery will handle it
  std::vector<hw::NodeId> placement = vc.placements();
  const auto slot = std::find(placement.begin(), placement.end(), node);
  if (slot == placement.end()) return;
  *slot = spare->front();

  rt->recovery_in_flight = true;
  migrate_vc(vc, *rt->policy->coordinator, std::move(placement),
             [this, op = issue(id)](bool ok) {
               VcRuntime* live = resolve(op);
               if (live == nullptr) return;
               if (!ok) {
                 // The fault struck mid-evacuation: fall back to reactive
                 // rollback from the last durable checkpoint (recovery
                 // stays in flight).
                 recover(*live);
                 return;
               }
               live->recovery_in_flight = false;
               telemetry::count(metrics_, kEvacuations);
               sim::trace(trace_, sim_->now(), sim::TraceLevel::kInfo, "dvc",
                          "vc#" + std::to_string(op.id) +
                              " evacuated ahead of the fault");
             });
}

void DvcManager::recover(VcRuntime& rt) {
  rt.recovery_in_flight = true;
  VirtualCluster& vc = *rt.vc;
  const bool relocate_all = rt.policy && rt.policy->relocate_all;

  // Build the new mapping: keep healthy nodes unless the policy relocates
  // everything; replace dead (or relinquished) slots from the free pool.
  std::vector<hw::NodeId> placement(vc.size(), hw::kInvalidNode);
  std::vector<std::uint32_t> needs_new;
  for (std::uint32_t i = 0; i < vc.size(); ++i) {
    const hw::NodeId n = vc.placement(i);
    if (!relocate_all && n != hw::kInvalidNode && !fabric_->node(n).failed()) {
      placement[i] = n;
    } else {
      needs_new.push_back(i);
    }
  }
  if (!needs_new.empty()) {
    // Free pool: free to this VC (node_free), not already reused.
    // When relocating everything, prefer nodes outside the current mapping
    // ("restart ... on a different set of physical nodes"), falling back
    // to reuse only if fresh nodes are scarce.
    std::vector<hw::NodeId> pool = free_pool(vc, placement, relocate_all);
    if (relocate_all && pool.size() < needs_new.size()) {
      pool = free_pool(vc, placement, false);
    }
    if (pool.size() < needs_new.size()) {
      // Not enough spares right now; retry later (a repair or another VC's
      // teardown may free nodes).
      recover_after(rt, kRecoveryRetryDelay);
      return;
    }
    for (std::size_t k = 0; k < needs_new.size(); ++k) {
      placement[needs_new[k]] = pool[k];
    }
  }

  restore_vc(vc, std::move(placement), [this, op = issue(vc.id())](bool ok) {
    VcRuntime* live = resolve(op);
    if (live == nullptr) return;
    VcRuntime& rt = *live;
    const VcId id = op.id;
    rt.recovery_in_flight = false;
    if (ok) {
      rt.restore_attempts = 0;
      ++rt.vc->recoveries_;
      telemetry::count(metrics_, kRecoveries);
      telemetry::instant(metrics_, sim_->now(), "dvc", "recovered");
      sim::trace(trace_, sim_->now(), sim::TraceLevel::kInfo, "dvc",
                 "vc#" + std::to_string(id) + " recovered");
      if (check_ != nullptr) {
        check_->on_vc_boundary(check::Boundary::kRecovery, id);
      }
      return;
    }
    const std::vector<VcGeneration>& gens = rt.vc->generations_;
    if (gens.empty() || chain_damaged(gens.back().chain)) {
      // The recovery point itself is bad (torn or corrupted images that
      // no replica could mask). Retrying it would wedge forever; walk
      // back a generation and re-run the lost work instead.
      telemetry::count(metrics_, kRestoreFallbacks);
      telemetry::instant(metrics_, sim_->now(), "dvc", "restore_fallback");
      if (!fall_back_generation(rt)) {
        abandon_recovery(rt, "every checkpoint generation is damaged");
        return;
      }
      sim::trace(trace_, sim_->now(), sim::TraceLevel::kWarn, "dvc",
                 "vc#" + std::to_string(id) +
                     " checkpoint damaged; falling back to set " +
                     std::to_string(gens.back().set()));
      rt.restore_attempts = 0;
      recover_after(rt, kFailureDetectionDelay);
      return;
    }
    // A transient restore-path fault (e.g. another node died mid-restore):
    // retry with re-resolved placement, but only within the budget — an
    // unbounded loop here is indistinguishable from a hang.
    const int budget = rt.policy ? rt.policy->max_restore_retries
                                 : RecoveryPolicy{}.max_restore_retries;
    if (++rt.restore_attempts > budget) {
      abandon_recovery(rt, "restore retry budget exhausted");
      return;
    }
    recover_after(rt, kRecoveryRetryDelay);
  });
}

void DvcManager::recover_after(VcRuntime& rt, sim::Duration delay) {
  rt.recovery_in_flight = true;
  // A retry from an incarnation that has since died is dropped: the
  // reboot's reconciliation already re-derived what recovery is needed.
  sim_->schedule_after(delay, [this, op = issue(rt.vc->id())] {
    if (VcRuntime* live = resolve(op)) recover(*live);
  });
}

std::vector<hw::NodeId> DvcManager::free_pool(
    const VirtualCluster& vc, const std::vector<hw::NodeId>& placement,
    bool avoid_current) const {
  const auto in = [](const std::vector<hw::NodeId>& v, hw::NodeId n) {
    return std::find(v.begin(), v.end(), n) != v.end();
  };
  std::vector<hw::NodeId> pool;
  for (hw::NodeId n = 0; n < fabric_->node_count(); ++n) {
    if (node_free(n, vc.id()) && !in(placement, n) &&
        !(avoid_current && in(vc.placement_, n))) {
      pool.push_back(n);
    }
  }
  return pool;
}

void DvcManager::push_generation(VcRuntime& rt, VcGeneration g) {
  VirtualCluster& vc = *rt.vc;
  vc.generations_.push_back(std::move(g));
  if (!rt.policy) return;
  const std::size_t keep =
      std::max<std::size_t>(1, rt.policy->keep_checkpoints);
  while (vc.generations_.size() > keep) release_generation(vc, 0);
}

void DvcManager::release_generation(VirtualCluster& vc, std::size_t i) {
  const VcGeneration g = std::move(vc.generations_[i]);
  vc.generations_.erase(vc.generations_.begin() +
                        static_cast<std::ptrdiff_t>(i));
  for (const storage::CheckpointSetId s : g.chain) {
    if (vc.retains(s)) continue;
    const std::uint64_t lsn =
        journal(IntentKind::kRetire, 0, "set#" + std::to_string(s));
    images_->discard_set(s, epoch_);
    close_intent(lsn);
  }
}

bool DvcManager::set_damaged(storage::CheckpointSetId s) const {
  const storage::CheckpointSet* cs = images_->find_set(s);
  return cs == nullptr || cs->damaged;
}

bool DvcManager::chain_damaged(
    const std::vector<storage::CheckpointSetId>& chain) const {
  return std::any_of(
      chain.begin(), chain.end(),
      [this](storage::CheckpointSetId s) { return set_damaged(s); });
}

bool DvcManager::fall_back_generation(VcRuntime& rt) {
  VirtualCluster& vc = *rt.vc;
  // Quarantine the current recovery point, then every older one already
  // known to be damaged.
  while (!vc.generations_.empty()) {
    release_generation(vc, vc.generations_.size() - 1);
    if (!vc.generations_.empty() &&
        !chain_damaged(vc.generations_.back().chain)) {
      return true;
    }
  }
  return false;
}

void DvcManager::abandon_recovery(VcRuntime& rt, const std::string& why) {
  VirtualCluster& vc = *rt.vc;
  transition(rt, VcState::kFailed);
  rt.recovery_in_flight = false;
  telemetry::count(metrics_, kRecoveriesAbandoned);
  telemetry::instant(metrics_, sim_->now(), "dvc", "recovery_abandoned");
  sim::trace(trace_, sim_->now(), sim::TraceLevel::kError, "dvc",
             "vc#" + std::to_string(vc.id()) + " recovery abandoned: " + why);
  // End the run *diagnosed*: downstream supervisors (dvcsim, the soak
  // harness, the RM) key off the application's failure flag.
  if (rt.app != nullptr) rt.app->mark_failed("recovery abandoned: " + why);
  if (check_ != nullptr) {
    check_->on_vc_boundary(check::Boundary::kRecovery, vc.id());
  }
}

void DvcManager::recover_now(VirtualCluster& vc) {
  VcRuntime& rt = vcs_.at(vc.id());
  if (!coordinator_up_ || rt.recovery_in_flight || !vc.has_checkpoint()) {
    return;
  }
  recover(rt);
}

// ---- coordinator fault domain ----------------------------------------------

void DvcManager::set_fence(storage::EpochFence* fence) noexcept {
  fence_ = fence;
  epoch_ = fence == nullptr ? storage::kUnfencedEpoch : fence->current();
}

void DvcManager::designate_head_node(hw::NodeId head, sim::Duration lease) {
  if (head >= fabric_->node_count()) {
    throw std::invalid_argument("head node outside the fabric");
  }
  if (lease <= 0) throw std::invalid_argument("lease must be positive");
  head_node_ = head;
  lease_ = lease;
  if (fence_ != nullptr) epoch_ = fence_->current();
  if (wal_ == nullptr) {
    wal_ = std::make_unique<IntentLog>(images_->store());
    wal_->set_metrics(metrics_);
  }
  renew_lease();
  if (!lease_daemon_armed_) {
    lease_daemon_armed_ = true;
    sim_->schedule_daemon_after(lease_ / 2, [this] { lease_renewal_tick(); });
  }
  sim::trace(trace_, sim_->now(), sim::TraceLevel::kInfo, "dvc",
             "coordinator head = node " + std::to_string(head) +
                 ", epoch " + std::to_string(epoch_));
}

void DvcManager::renew_lease() {
  if (head_node_ == hw::kInvalidNode) return;
  lease_expiry_local_ = time_->clock(head_node_).local_now() + lease_;
}

// Renews at half-lease cadence on the head node's synced clock; a crashed
// coordinator simply stops renewing and its lease runs out.
void DvcManager::lease_renewal_tick() {
  if (head_node_ == hw::kInvalidNode) return;  // un-designated
  if (coordinator_up_ && !fabric_->node(head_node_).failed()) {
    renew_lease();
  }
  sim_->schedule_daemon_after(lease_ / 2, [this] { lease_renewal_tick(); });
}

void DvcManager::crash_coordinator(sim::Duration down_for) {
  if (!coordinator_up_) return;
  coordinator_up_ = false;
  telemetry::count(metrics_, kCoordinatorCrashes);
  telemetry::instant(metrics_, sim_->now(), "dvc", "coordinator_crash");
  sim::trace(trace_, sim_->now(), sim::TraceLevel::kError, "dvc",
             "coordinator crashed (epoch " + std::to_string(epoch_) + ")");
  if (down_for > 0) {
    sim_->schedule_after(down_for, [this] { reboot_coordinator(); });
  }
}

void DvcManager::watch_head_repair() {
  if (repair_watch_armed_) return;
  repair_watch_armed_ = true;
  sim_->schedule_daemon_after(kRepairPoll, [this] { poll_head_repair(); });
}

void DvcManager::poll_head_repair() {
  repair_watch_armed_ = false;
  if (coordinator_up_ || head_node_ == hw::kInvalidNode) return;
  if (fabric_->node(head_node_).failed()) {
    watch_head_repair();
  } else {
    reboot_coordinator();
  }
}

void DvcManager::reboot_coordinator() {
  if (coordinator_up_) return;
  if (head_node_ != hw::kInvalidNode &&
      fabric_->node(head_node_).failed()) {
    // The head's hardware is still dark: boot when it is repaired.
    watch_head_repair();
    return;
  }
  if (head_node_ != hw::kInvalidNode) {
    // Wait out the deposed incarnation's lease on the head node's synced
    // clock before fencing: an incarnation that merely lost touch may
    // keep issuing admitted writes until *its* clock passes the expiry,
    // and advancing the epoch earlier would race it instead of fencing it.
    clocksync::HostClock& clock = time_->clock(head_node_);
    if (clock.local_now() < lease_expiry_local_) {
      // The local->sim mapping truncates, so the mapped instant can read
      // one local tick short of the expiry; nudge the wake-up strictly
      // forward so the wait always terminates.
      const sim::Time wake =
          std::max(clock.to_sim(lease_expiry_local_), sim_->now()) + 1;
      sim_->schedule_at(wake, [this] { reboot_coordinator(); });
      return;
    }
  }
  if (fence_ != nullptr) epoch_ = fence_->advance();
  coordinator_up_ = true;
  telemetry::count(metrics_, kCoordinatorReboots);
  telemetry::instant(metrics_, sim_->now(), "dvc", "coordinator_reboot");
  sim::trace(trace_, sim_->now(), sim::TraceLevel::kWarn, "dvc",
             "coordinator rebooted, epoch " + std::to_string(epoch_));
  renew_lease();
  recover_control_plane();
}

std::uint64_t DvcManager::journal(IntentKind kind, VcId vc,
                                  const std::string& label) {
  if (wal_ == nullptr || !coordinator_up_) return 0;
  return wal_->append(kind, vc, label, epoch_);
}

void DvcManager::close_intent(std::uint64_t lsn) {
  if (wal_ == nullptr || lsn == 0) return;
  wal_->close(lsn);
}

void DvcManager::recover_control_plane() {
  // Phase 1: read back the journal. Every open entry names an operation
  // the dead incarnation started but never finished; the entries drive
  // telemetry and tracing, while the authoritative repair below works
  // from store and hypervisor ground truth (the journal records intent,
  // not effect).
  if (wal_ != nullptr) {
    for (const auto& [lsn, e] : wal_->open_intents()) {
      telemetry::count(metrics_, "core.dvc.wal_replayed");
      sim::trace(trace_, sim_->now(), sim::TraceLevel::kWarn, "dvc",
                 "wal: open " + std::string(to_string(e.kind)) + " intent " +
                     "#" + std::to_string(lsn) + " (" + e.label + ")");
    }
  }
  // Phase 2: reconcile every VC against ground truth.
  for (auto& [id, rt] : vcs_) reconcile_vc(rt);
  // Phase 3: the journal is now fully resolved.
  if (wal_ != nullptr) {
    while (!wal_->open_intents().empty()) {
      wal_->close(wal_->open_intents().begin()->first);
    }
  }
}

void DvcManager::reconcile_vc(VcRuntime& rt) {
  VirtualCluster& vc = *rt.vc;
  if (vc.state_ == VcState::kFailed) return;
  // The dead incarnation's in-flight flags mean nothing now.
  rt.checkpoint_in_flight = false;
  rt.recovery_in_flight = false;

  // Orphaned checkpoint sets: anything in the store under this VC's label
  // that no retained generation lists was written by a round whose
  // coordinator died. A sealed orphan is discarded — its app snapshots
  // lived in coordinator memory, so it can never be restored and would
  // only shadow the real recovery point as latest_sealed(). A half-open
  // orphan is aborted so its members are garbage-collected instead of
  // waiting forever to seal.
  for (const storage::CheckpointSet* s :
       images_->sets_with_label(vc.checkpoint_label())) {
    if (s->aborted || vc.retains(s->id)) continue;
    if (s->sealed) {
      telemetry::count(metrics_, kOrphanSetsDiscarded);
      images_->discard_set(s->id, epoch_);
    } else {
      telemetry::count(metrics_, kOrphanRoundsAborted);
      images_->abort_set(s->id, epoch_);
    }
  }

  // Domain reconcile: decide between resume-in-place and whole-VC
  // recovery from the surviving recovery point.
  const bool member_dead = any_member_lost(vc);
  bool member_paused = false;
  for (std::uint32_t i = 0; i < vc.size(); ++i) {
    member_paused = member_paused || !vc.machine(i).running();
  }
  const bool job_live = rt.app == nullptr || !rt.app->completed();
  if (!job_live) return;  // results are in; never resurrect idle guests
  const bool app_failed = rt.app != nullptr && rt.app->failed();

  // Only a transitional control-plane state may have frozen members to
  // thaw; a VC still provisioning has legitimately-paused guests whose
  // boots are in flight, and must not be "resumed" past them.
  const bool transitional = vc.state_ == VcState::kCheckpointing ||
                            vc.state_ == VcState::kMigrating ||
                            vc.state_ == VcState::kRecovering;
  if (!member_dead && !app_failed) {
    if (member_paused && transitional) {
      // A round (checkpoint save, or a migration's save-and-hold) froze
      // members and died before resuming or moving them. Everybody is
      // alive and the images are swept, so thaw the cluster in place.
      telemetry::count(metrics_, "core.dvc.reconcile_resumes");
      sim::trace(trace_, sim_->now(), sim::TraceLevel::kWarn, "dvc",
                 "vc#" + std::to_string(vc.id()) +
                     " reconciled: resuming held members in place");
      for (std::uint32_t i = 0; i < vc.size(); ++i) {
        fleet_->on_node(vc.placement(i)).resume_domain(vc.machine(i));
      }
    }
    if (transitional) transition(rt, VcState::kRunning);
    return;
  }
  // A member is gone (or the app aborted): the only consistent path is a
  // whole-VC rollback to the last durable recovery point.
  if (vc.has_checkpoint()) {
    telemetry::count(metrics_, "core.dvc.reconcile_recoveries");
    sim::trace(trace_, sim_->now(), sim::TraceLevel::kWarn, "dvc",
               "vc#" + std::to_string(vc.id()) +
                   " reconciled: recovering from last checkpoint");
    recover(rt);
  } else {
    abandon_recovery(rt, "coordinator rebooted over a degraded VC with no "
                         "durable checkpoint");
  }
}

}  // namespace dvc::core
