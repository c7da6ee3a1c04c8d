#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "check/hooks.hpp"
#include "ckpt/ledger.hpp"
#include "core/dvc_manager.hpp"
#include "sim/simulation.hpp"
#include "storage/epoch_fence.hpp"
#include "storage/image_manager.hpp"
#include "telemetry/telemetry.hpp"

namespace dvc::check {

/// One invariant violation, recorded (never thrown) so a sweep cell can
/// finish its run and report every breakage it saw.
struct Violation {
  std::string invariant;  ///< stable kebab-case name, e.g. "epoch-fence"
  std::string detail;     ///< what was observed vs. what must hold
  Boundary boundary = Boundary::kEndOfRun;
  sim::Time at = 0;
};

/// The always-compiled simulation invariant checker: a Checker
/// implementation that re-derives cross-subsystem consistency from ground
/// truth at every boundary the subsystems announce, instead of trusting
/// any one subsystem's bookkeeping.
///
/// Invariant catalog (see docs/ARCHITECTURE.md for the full rationale):
///   generation-monotonicity  per-VC recovery points strictly advance
///   retention-liveness       every set a retained chain lists exists,
///                            sealed, unaborted
///   epoch-fence              fence advances strictly; no deposed-epoch
///                            mutation is ever *admitted*
///   image-completeness       every restorable generation's chain is fully
///                            populated (members == expected_members)
///   member-conservation      placements are valid, duplicate-free, and
///                            agree with the node ledger's VC holders
///   queue-hygiene            no foreground event or DvcManager operation
///                            outlives the run
///   ledger-consistency       (on demand) message ledger verdict holds
///   vc-state-legal           every VcState change is a legal lifecycle edge
///   placement-agreement      a running VC's job-held nodes all carry one job
///
/// Violations are collected, counted into `check.violations` /
/// `check.violation.<name>`, and exposed for the harness to report with a
/// reproducing command line. A fault-free run must produce zero.
class Invariants final : public Checker {
 public:
  struct Wiring {
    sim::Simulation* sim = nullptr;
    core::DvcManager* dvc = nullptr;
    storage::ImageManager* images = nullptr;
    storage::EpochFence* fence = nullptr;
    telemetry::MetricsRegistry* metrics = nullptr;
  };

  explicit Invariants(Wiring w);

  /// Attaches this checker to every wired subsystem (fence, image manager,
  /// DVC manager). Call once after the machine room is assembled.
  void attach();
  /// Detaches from every wired subsystem (safe to call in any order with
  /// subsystem teardown as long as the subsystems outlive the checker).
  void detach();

  // ---- Checker hooks ----------------------------------------------------
  void on_vc_boundary(Boundary boundary, std::uint64_t vc) override;
  void on_admitted_mutation(std::string_view op,
                            std::uint64_t epoch) override;
  void on_epoch_advance(std::uint64_t new_epoch) override;
  void on_round_complete(bool ok, std::uint64_t set) override;
  void on_vc_transition(std::uint64_t vc, std::uint8_t from,
                        std::uint8_t to) override;

  // ---- harness-driven checks --------------------------------------------

  /// Final sweep once the harness stops driving the simulation. With
  /// `expect_quiesced` (the default for completed jobs) a non-empty
  /// foreground queue is a leak: some subsystem scheduled work that
  /// nothing will ever consume. So is an operation DvcManager still
  /// holds open (a boot, round, restore or live move nothing will end).
  void end_of_run(bool expect_quiesced = true);

  /// Checks a message ledger's verdict at a cut the caller believes
  /// consistent. Returns true when it is.
  bool verify_ledger(const ckpt::MessageLedger& ledger,
                     bool allow_in_flight);

  // ---- results ----------------------------------------------------------
  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] bool ok() const noexcept { return violations_.empty(); }
  /// Human-readable one-line-per-violation summary ("" when clean).
  [[nodiscard]] std::string report() const;

 private:
  /// The catalog above, in its order.
  enum class Invariant : std::uint8_t {
    kGenerationMonotonicity,
    kRetentionLiveness,
    kEpochFence,
    kImageCompleteness,
    kMemberConservation,
    kQueueHygiene,
    kLedgerConsistency,
    kVcStateLegal,
    kPlacementAgreement,
  };

  void violate(Invariant invariant, std::string detail, Boundary b);
  void sweep(Boundary b);
  void check_generations(const core::VirtualCluster& vc, Boundary b);
  void check_chains(const core::VirtualCluster& vc, Boundary b);
  void check_membership(const std::vector<const core::VirtualCluster*>& vcs,
                        Boundary b);

  Wiring w_;
  /// Fence epoch as independently tracked by the checker (not read back
  /// from the fence at comparison time): a forged or detached fence shows
  /// up as a divergence instead of being believed.
  std::uint64_t epoch_seen_;
  /// Per-VC newest recovery-point set id observed at a round seal. Set
  /// ids allocate monotonically, so a freshly sealed recovery point below
  /// the watermark means the control plane resurrected an old one.
  std::map<core::VcId, storage::CheckpointSetId> seal_watermark_;
  std::vector<Violation> violations_;
  /// Sweep scratch, kept for its capacity: one VC's placed nodes
  /// (check_membership).
  std::vector<hw::NodeId> seen_nodes_;
  /// `check.violation.<name>`, indexed by Invariant.
  std::vector<telemetry::CounterHandle> violation_c_;
};

}  // namespace dvc::check
