#include "check/invariants.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

namespace dvc::check {

namespace {
/// Catalog names, indexed by Invariants::Invariant.
constexpr std::string_view kInvariantNames[] = {
    "generation-monotonicity",
    "retention-liveness",
    "epoch-fence",
    "image-completeness",
    "member-conservation",
    "queue-hygiene",
    "ledger-consistency",
    "vc-state-legal",
    "placement-agreement",
};

/// VcState names, indexed by the raw enum value.
constexpr std::string_view kStateNames[] = {
    "provisioning", "running", "checkpointing", "recovering", "migrating",
    "failed",
};

/// Every legal lifecycle edge (docs/ARCHITECTURE.md, "VC lifecycle"). Any
/// live state may fail; nothing leaves kFailed.
struct Edge {
  core::VcState from;
  core::VcState to;
};
using S = core::VcState;
constexpr Edge kLegalEdges[] = {
    {S::kProvisioning, S::kRunning},      // every guest booted
    {S::kProvisioning, S::kRecovering},   // recovery retries a failed restore
    {S::kProvisioning, S::kFailed},
    {S::kRunning, S::kCheckpointing},     // checkpoint_vc
    {S::kRunning, S::kMigrating},         // migrate_vc, live_migrate_vc
    {S::kRunning, S::kRecovering},        // restore_vc
    {S::kRunning, S::kFailed},
    {S::kCheckpointing, S::kRunning},     // the round concluded, or reconcile
    {S::kCheckpointing, S::kRecovering},  // restore_vc mid-round
    {S::kCheckpointing, S::kFailed},
    {S::kMigrating, S::kRunning},         // moved, or failed in place
    {S::kMigrating, S::kRecovering},      // migrate_vc's restore
    {S::kMigrating, S::kProvisioning},    // a live move lost a member
    {S::kMigrating, S::kFailed},
    {S::kRecovering, S::kRunning},        // restored, or reconcile
    {S::kRecovering, S::kProvisioning},   // the restore failed
    {S::kRecovering, S::kRecovering},     // re-recovery over a deposed restore
    {S::kRecovering, S::kFailed},
};

std::string_view state_name(std::uint8_t s) {
  return s < std::size(kStateNames) ? kStateNames[s] : "?";
}
}  // namespace

Invariants::Invariants(Wiring w)
    : w_(w),
      epoch_seen_(w.fence != nullptr ? w.fence->current()
                                     : storage::kUnfencedEpoch) {
  static_assert(std::size(kInvariantNames) ==
                static_cast<std::size_t>(Invariant::kPlacementAgreement) + 1);
  static_assert(std::size(kStateNames) ==
                static_cast<std::size_t>(core::VcState::kFailed) + 1);
  for (const std::string_view name : kInvariantNames) {
    violation_c_.emplace_back("check.violation." + std::string(name));
  }
}

void Invariants::attach() {
  if (w_.dvc != nullptr) w_.dvc->set_check(this);
  if (w_.images != nullptr) w_.images->set_check(this);
  if (w_.fence != nullptr) w_.fence->set_check(this);
}

void Invariants::detach() {
  if (w_.dvc != nullptr) w_.dvc->set_check(nullptr);
  if (w_.images != nullptr) w_.images->set_check(nullptr);
  if (w_.fence != nullptr) w_.fence->set_check(nullptr);
}

void Invariants::violate(Invariant invariant, std::string detail,
                         Boundary b) {
  const auto i = static_cast<std::size_t>(invariant);
  telemetry::count(w_.metrics, "check.violations");
  telemetry::count(w_.metrics, violation_c_[i]);
  violations_.push_back(
      Violation{std::string(kInvariantNames[i]), std::move(detail), b,
                w_.sim != nullptr ? w_.sim->now() : 0});
}

// ---- hook entry points ------------------------------------------------------

void Invariants::on_vc_boundary(Boundary boundary, std::uint64_t vc) {
  if (boundary == Boundary::kRoundSeal && w_.dvc != nullptr) {
    // Watermark the freshly sealed recovery point: set ids allocate
    // monotonically, so a seal below the previous one means the control
    // plane adopted a stale set as its newest recovery point.
    for (const core::VirtualCluster* v : w_.dvc->live_vcs()) {
      if (v->id() != vc || v->generations().empty()) continue;
      const storage::CheckpointSetId set = v->generations().back().set();
      auto [it, fresh] = seal_watermark_.try_emplace(vc, set);
      if (!fresh) {
        if (set <= it->second) {
          violate(Invariant::kGenerationMonotonicity,
                  "vc#" + std::to_string(vc) + " sealed set#" +
                      std::to_string(set) + " at or below watermark set#" +
                      std::to_string(it->second),
                  boundary);
        }
        it->second = set;
      }
    }
  }
  sweep(boundary);
}

void Invariants::on_admitted_mutation(std::string_view op,
                                      std::uint64_t epoch) {
  // Independently re-verify the fence discipline: an *admitted* mutation
  // stamped with anything but the unfenced epoch or the epoch the checker
  // itself has watched the fence reach is a deposed-incarnation write that
  // slipped the fence (or a forged future epoch).
  if (epoch == storage::kUnfencedEpoch) return;
  const std::uint64_t current =
      w_.fence != nullptr ? w_.fence->current() : epoch_seen_;
  if (epoch != current || (w_.fence != nullptr && current != epoch_seen_)) {
    violate(Invariant::kEpochFence,
            "admitted " + std::string(op) + " stamped epoch " +
                std::to_string(epoch) + " (fence at " +
                std::to_string(current) + ", checker saw " +
                std::to_string(epoch_seen_) + ")",
            Boundary::kRoundSeal);
  }
}

void Invariants::on_epoch_advance(std::uint64_t new_epoch) {
  if (new_epoch <= epoch_seen_) {
    violate(Invariant::kEpochFence,
            "fence advanced to epoch " + std::to_string(new_epoch) +
                " which is not above " + std::to_string(epoch_seen_),
            Boundary::kRecovery);
  }
  epoch_seen_ = new_epoch;
}

void Invariants::on_round_complete(bool ok, std::uint64_t set) {
  // A round that reports success must name a set that exists and sealed;
  // the coordinator otherwise promoted a phantom recovery point.
  if (!ok || w_.images == nullptr) return;
  const storage::CheckpointSet* s = w_.images->find_set(set);
  if (s == nullptr || !s->sealed || s->aborted) {
    violate(Invariant::kImageCompleteness,
            "LSC round reported ok with set#" + std::to_string(set) +
                (s == nullptr ? " missing from the store"
                              : (s->aborted ? " aborted" : " unsealed")),
            Boundary::kRoundSeal);
  }
}

void Invariants::on_vc_transition(std::uint64_t vc, std::uint8_t from,
                                  std::uint8_t to) {
  for (const Edge& e : kLegalEdges) {
    if (static_cast<std::uint8_t>(e.from) == from &&
        static_cast<std::uint8_t>(e.to) == to) {
      return;
    }
  }
  violate(Invariant::kVcStateLegal,
          "vc#" + std::to_string(vc) + " moved " +
              std::string(state_name(from)) + " -> " +
              std::string(state_name(to)) + ", not a lifecycle edge",
          Boundary::kTransition);
}

// ---- sweeps -----------------------------------------------------------------

void Invariants::sweep(Boundary b) {
  if (w_.dvc == nullptr) return;
  const std::vector<const core::VirtualCluster*> vcs = w_.dvc->live_vcs();
  for (const core::VirtualCluster* vc : vcs) {
    check_generations(*vc, b);
    check_chains(*vc, b);
  }
  check_membership(vcs, b);
}

void Invariants::check_generations(const core::VirtualCluster& vc,
                                   Boundary b) {
  const auto& gens = vc.generations();
  storage::CheckpointSetId prev_set = 0;
  sim::Time prev_taken = 0;
  for (std::size_t i = 0; i < gens.size(); ++i) {
    const core::VcGeneration& g = gens[i];
    // Built only when a violation fires: the clean path makes no string.
    const auto who = [&] {
      return "vc#" + std::to_string(vc.id()) + " generation[" +
             std::to_string(i) + "]";
    };
    if (g.chain.empty()) {
      violate(Invariant::kGenerationMonotonicity,
              who() + " has an empty chain", b);
      continue;
    }
    if (g.set() <= prev_set) {
      violate(Invariant::kGenerationMonotonicity,
              who() + " set#" + std::to_string(g.set()) +
                  " does not advance past set#" + std::to_string(prev_set),
              b);
    }
    if (g.taken_at < prev_taken) {
      violate(Invariant::kGenerationMonotonicity,
              who() + " taken_at moves backwards", b);
    }
    prev_set = g.set();
    prev_taken = g.taken_at;
  }
}

void Invariants::check_chains(const core::VirtualCluster& vc, Boundary b) {
  if (w_.images == nullptr) return;
  // Every set a retained chain lists must still be in the store, sealed and
  // unaborted: the manager discards a set only once no generation of its VC
  // lists it (retention-liveness). And every restorable generation must be
  // stageable end to end, each set of its chain fully populated
  // (image-completeness). A *damaged* set is a legal fault effect (recovery
  // falls back past it); a sealed set missing members is corruption of the
  // seal protocol itself.
  for (const core::VcGeneration& g : vc.generations()) {
    for (const storage::CheckpointSetId s : g.chain) {
      const storage::CheckpointSet* cs = w_.images->find_set(s);
      const auto who = [&] {
        return "vc#" + std::to_string(vc.id()) + " chain set#" +
               std::to_string(s);
      };
      if (cs == nullptr || !cs->sealed || cs->aborted) {
        const std::string lost =
            who() + (cs == nullptr ? " missing from the store"
                     : cs->aborted ? " aborted inside a retained chain"
                                   : " unsealed inside a retained chain");
        violate(Invariant::kRetentionLiveness, lost, b);
        violate(Invariant::kImageCompleteness, lost, b);
        continue;
      }
      if (cs->members.size() != cs->expected_members) {
        violate(Invariant::kImageCompleteness,
                who() + " sealed with " + std::to_string(cs->members.size()) +
                    "/" + std::to_string(cs->expected_members) + " members",
                b);
      }
    }
  }
}

void Invariants::check_membership(
    const std::vector<const core::VirtualCluster*>& vcs, Boundary b) {
  const hw::Fabric& fabric = w_.dvc->fabric();
  for (const core::VirtualCluster* vc : vcs) {
    if (vc->state() != core::VcState::kRunning) continue;
    // A running VC must have a complete, duplicate-free placement whose
    // every node the ledger gives to it, and the nodes a job holds among
    // them must all be held by one job: the scheduler's and the manager's
    // view of the VC agree.
    seen_nodes_.clear();
    std::uint32_t first_job_member = vc->size();
    for (std::uint32_t i = 0; i < vc->size(); ++i) {
      const hw::NodeId n = vc->placement(i);
      const auto who = [&] {
        return "vc#" + std::to_string(vc->id()) + " member " +
               std::to_string(i);
      };
      if (n == hw::kInvalidNode) {
        violate(Invariant::kMemberConservation, who() + " has no host node",
                b);
        continue;
      }
      if (std::find(seen_nodes_.begin(), seen_nodes_.end(), n) !=
          seen_nodes_.end()) {
        violate(Invariant::kMemberConservation,
                who() + " shares node " + std::to_string(n) +
                    " with another member",
                b);
      } else {
        seen_nodes_.push_back(n);
      }
      const hw::PhysicalNode& node = fabric.node(n);
      if (node.vc() != vc->id()) {
        violate(Invariant::kMemberConservation,
                who() + " runs on node " + std::to_string(n) +
                    " which the claim table gives to " +
                    (node.vc() == 0 ? std::string("nobody")
                                    : "vc#" + std::to_string(node.vc())),
                b);
      }
      if (node.job() == 0) continue;
      if (first_job_member == vc->size()) {
        first_job_member = i;
        continue;
      }
      const hw::NodeId first = vc->placement(first_job_member);
      if (node.job() != fabric.node(first).job()) {
        violate(Invariant::kPlacementAgreement,
                who() + " runs on node " + std::to_string(n) + " of job " +
                    std::to_string(node.job()) + ", member " +
                    std::to_string(first_job_member) + " on node " +
                    std::to_string(first) + " of job " +
                    std::to_string(fabric.node(first).job()),
                b);
      }
    }
  }
  // `vcs` is id-ordered: a claimant is live if a binary search finds it.
  const auto by_id = [](const core::VirtualCluster* vc, core::VcId id) {
    return vc->id() < id;
  };
  for (hw::NodeId node = 0; node < fabric.node_count(); ++node) {
    const core::VcId id = fabric.node(node).vc();
    if (id == 0) continue;
    const auto it = std::lower_bound(vcs.begin(), vcs.end(), id, by_id);
    if (it == vcs.end() || (*it)->id() != id) {
      violate(Invariant::kMemberConservation,
              "node " + std::to_string(node) + " claimed by dead vc#" +
                  std::to_string(id),
              b);
    }
  }
}

// ---- harness entry points ---------------------------------------------------

void Invariants::end_of_run(bool expect_quiesced) {
  sweep(Boundary::kEndOfRun);
  if (!expect_quiesced) return;
  if (w_.sim != nullptr && w_.sim->pending_foreground() != 0) {
    violate(Invariant::kQueueHygiene,
            std::to_string(w_.sim->pending_foreground()) +
                " foreground event(s) leaked past job completion",
            Boundary::kEndOfRun);
  }
  if (w_.dvc != nullptr && w_.dvc->operations_in_flight() != 0) {
    violate(Invariant::kQueueHygiene,
            std::to_string(w_.dvc->operations_in_flight()) +
                " control-plane operation(s) still open past job completion",
            Boundary::kEndOfRun);
  }
}

bool Invariants::verify_ledger(const ckpt::MessageLedger& ledger,
                               bool allow_in_flight) {
  const ckpt::MessageLedger::Verdict v = ledger.check(allow_in_flight);
  if (!v.consistent) {
    violate(Invariant::kLedgerConsistency, v.reason, Boundary::kEndOfRun);
  }
  return v.consistent;
}

std::string Invariants::report() const {
  std::string out;
  for (const Violation& v : violations_) {
    out += "[" + std::string(to_string(v.boundary)) + " t=" +
           std::to_string(v.at) + "] " + v.invariant + ": " + v.detail +
           "\n";
  }
  return out;
}

}  // namespace dvc::check
