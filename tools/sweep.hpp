#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "app/workload.hpp"
#include "check/invariants.hpp"
#include "ckpt/lsc.hpp"
#include "core/machine_room.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "tools/scenario_config.hpp"

namespace dvc::tools {

/// How one sweep cell ended.
enum class CellStatus : std::uint8_t {
  kCompleted,          ///< job ran to completion, zero violations
  kDiagnosed,          ///< job lost, but with an explicit diagnosis
  kInvariantViolation, ///< the checker caught a broken invariant
  kWedged,             ///< horizon hit with neither completion nor diagnosis
};

[[nodiscard]] const char* to_string(CellStatus s) noexcept;

/// Parses an unsigned decimal strictly: digits only (no sign, blank or
/// suffix) and at most `max`. Empty on anything else.
[[nodiscard]] std::optional<std::uint64_t> parse_decimal(std::string_view text,
                                                         std::uint64_t max)
    noexcept;

/// One cell of a sweep grid: a fully resolved scenario (base keys + mix
/// overrides + seed) plus the identity that names it in the aggregate.
struct SweepCell {
  std::string key;   ///< "<grid>:<mix>:<seed>" — the stable cell identity
  std::string grid;  ///< grid stem the cell came from
  std::string mix;   ///< fault-mix name ("base" when the grid has none)
  std::uint64_t seed = 0;
  ScenarioConfig cfg;
};

/// Outcome of one cell: status, the headline counters the soak teeth
/// assert over, and every invariant violation with a reproducing command.
struct CellOutcome {
  std::string key;
  std::string mix;
  std::uint64_t seed = 0;
  CellStatus status = CellStatus::kWedged;
  std::string error;  ///< non-empty when the cell threw instead of running

  std::uint32_t iterations = 0;  ///< rank-0 iterations completed
  double sim_time_s = 0.0;
  std::uint64_t checkpoints = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t watchdog = 0;
  std::uint64_t lsc_retries = 0;
  std::uint64_t faults_injected = 0;
  std::uint64_t faults_lifted = 0;
  std::uint64_t verify_failures = 0;
  std::uint64_t failovers = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t damage_planted = 0;
  std::uint64_t coordinator_crashes = 0;
  std::uint64_t coordinator_reboots = 0;
  std::uint64_t stale_completions = 0;
  std::uint64_t orphans_swept = 0;
  std::uint64_t fenced_writes = 0;

  std::vector<check::Violation> violations;
  std::string repro;  ///< `dvcsweep --repro <key> <grid-file>`

  /// One deterministic JSON object (keys in fixed order, no wall-clock or
  /// thread-dependent data).
  [[nodiscard]] std::string to_json() const;
};

/// A sweep grid: a base scenario plus `sweep.seeds`, optional
/// `sweep.mixes = m1 m2 ...` and per-mix `mix.<name>.<key> = value`
/// override lines. Expands to the cross product mixes × seeds.
class SweepGrid final {
 public:
  /// Parses grid text. `name` becomes the cell-key stem and should be the
  /// grid file's path (or any stable name in tests). Throws on unknown
  /// keys, malformed seed ranges, or overrides for undeclared mixes. Seeds
  /// are unsigned decimals no larger than the `seed` key can hold (2^63 - 1),
  /// at most a million per grid.
  static SweepGrid load(std::string name, const std::string& text);

  /// Replaces the grid's seed list (the CLI's --seeds override).
  void set_seeds(std::vector<std::uint64_t> seeds);

  /// All cells, sorted by key — the expansion order is part of the
  /// aggregate's byte-determinism contract.
  [[nodiscard]] std::vector<SweepCell> cells() const;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<std::string>& mixes() const noexcept {
    return mixes_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& seeds() const noexcept {
    return seeds_;
  }

 private:
  std::string name_;
  std::string stem_;  ///< name_ minus directory and .scn suffix
  ScenarioConfig base_;
  std::vector<std::string> mixes_;
  std::map<std::string, std::map<std::string, std::string>> overrides_;
  std::vector<std::uint64_t> seeds_;
};

/// Deletes a checker after detaching it from the room it watches.
struct DetachChecker {
  void operator()(check::Invariants* inv) const;
};
/// A check::Invariants attached to a machine room. It detaches itself when
/// released, so it must go before the room does.
using CheckerPtr = std::unique_ptr<check::Invariants, DetachChecker>;

/// A checker wired to every subsystem of `room`, attached.
[[nodiscard]] CheckerPtr attach_checker(core::MachineRoom& room);

/// Closes one trial of a paper-table program: the checker's final sweep
/// (`end_of_run(false)`: a table stops its room mid-job, so pending events
/// are no leak), then, if any invariant broke during the trial, prints
/// every violation naming `program` and `trial` to stderr and exits 1.
void check_trial(check::Invariants& inv, std::string_view program,
                 std::string_view trial);

/// Everything a cell is built from, as plain values: the one input of
/// `CellRig`. `cell_spec` fills it from scenario keys for dvcsim and
/// run_cell; the paper-table programs in bench/ fill it in code.
struct CellSpec {
  core::MachineRoomOptions room;
  /// The VC the rig provisions; `vc.size` nodes are picked for it.
  core::VcSpec vc;
  app::WorkloadSpec workload;
  net::ReliableConfig transport;  ///< the workload's MPI-over-TCP model
  /// Echo the machine room's event log at info level.
  bool trace = false;
  /// Runs the control plane on this node (journal, lease, epoch fence).
  std::optional<hw::NodeId> head_node;
  sim::Duration head_lease = 10 * sim::kSecond;
  ckpt::NtpLscCoordinator::Config lsc;
  std::uint64_t lsc_seed = 0;
  ckpt::LscCoordinator::RetryPolicy retry;
  /// What start_recovery() enables; `coordinator` is the rig's own.
  core::DvcManager::RecoveryPolicy recovery;
  /// Random node failures start_recovery() arms (none when mtbf is 0),
  /// each node repaired `repair` after it fails.
  struct NodeFailures {
    sim::Duration mtbf = 0;
    sim::Duration repair = 1800 * sim::kSecond;
    double predicted_fraction = 0.0;
    sim::Duration prediction_lead = 0;
  } failures;
  /// Record the room's span timeline (MetricsRegistry::record_timeline).
  /// Only an export reads it, so a rig records none unless asked.
  bool timeline = false;
  /// Attach check::Invariants to the room.
  bool check = true;
  /// Armed on a fault injector when present.
  std::optional<fault::FaultPlan> faults;
};

/// The one reader of the scenario keys that shape a cell (all but those
/// dvcsim and run_cell read for their own loops: experiment, horizon,
/// slice, settle, migration, exports).
/// Throws std::invalid_argument naming the key on a bad value.
[[nodiscard]] CellSpec cell_spec(const ScenarioConfig& cfg);

/// A spec turned into a running cell, for dvcsim, run_cell and the
/// bench/ tables alike, so a sweep cell replays in dvcsim as the same
/// simulation. The constructor builds, in order: the machine room
/// (echoing its trace when `spec.trace`), the VC and its optional head
/// node, the boot to 20 s, the workload's ParallelApp, the LSC
/// coordinator with its retry policy, the invariant checker and the fault
/// injector. `drive` is the one slice loop and `outcome` the one reader of
/// the outcome's counters that dvcsim's reliability experiment, run_cell
/// and bench::run_job share; the end-to-end tests (ckpt, durability,
/// recovery, partition) build their cells on the rig too. Throws
/// std::runtime_error when the VC does not fit the room.
class CellRig final {
 public:
  explicit CellRig(const CellSpec& spec);
  CellRig(const CellRig&) = delete;
  CellRig& operator=(const CellRig&) = delete;

  /// Enables the spec's auto-recovery policy, then arms its random node
  /// failures, if any.
  void start_recovery();

  /// Runs the simulation `slice` at a time until the job completes, the
  /// VC's recovery is abandoned (kFailed) or `horizon` is reached, then
  /// `settle` more. An application failure alone does not stop it: the
  /// watchdog may still roll the job back.
  void drive(sim::Time horizon, sim::Duration slice, sim::Duration settle);

  /// The outcome's counters as they stand (`iterations` through
  /// `fenced_writes`); identity, status and violations are left empty.
  [[nodiscard]] CellOutcome outcome() const;

  core::MachineRoom room;
  core::VirtualCluster* vc = nullptr;
  std::unique_ptr<app::ParallelApp> application;
  std::unique_ptr<ckpt::NtpLscCoordinator> lsc;
  /// Attached when `spec.check`; detached before the room goes.
  CheckerPtr inv;
  /// Armed only when `spec.faults`; `faults_armed` counts its events.
  std::unique_ptr<fault::FaultInjector> injector;
  std::size_t faults_armed = 0;

 private:
  core::DvcManager::RecoveryPolicy recovery_;
  CellSpec::NodeFailures failures_;
};

/// Runs one cell to its outcome: a silent dvcsim-reliability-style run
/// with the invariant checker attached (unless `check.invariants = off`).
/// Deterministic per cell and safe to call from multiple threads at once
/// (each cell owns its entire simulation). `timeline` sets
/// CellSpec::timeline; no outcome field reads the timeline, so the
/// outcome is the same either way.
[[nodiscard]] CellOutcome run_cell(const SweepCell& cell,
                                   bool timeline = false);

/// The merged result of a sweep.
struct SweepReport {
  std::string grid;
  std::vector<CellOutcome> outcomes;  ///< sorted by cell key
  std::size_t completed = 0;
  std::size_t diagnosed = 0;
  std::size_t invariant_violations = 0;
  std::size_t wedged = 0;

  /// The aggregate JSON document. Byte-identical for the same cell list
  /// regardless of `jobs`: cells are pre-sorted, outcomes land by index,
  /// and nothing time- or thread-dependent is emitted.
  [[nodiscard]] std::string to_json() const;
};

/// Calls task(0) .. task(count - 1), each once, on `jobs` worker threads
/// (0 = hardware concurrency), handing indices out in ascending order
/// through one atomic counter. Keep results per index and merge them in
/// index order, so nothing merged depends on the thread count.
void run_indexed(std::size_t count, unsigned jobs,
                 const std::function<void(std::size_t)>& task);

/// Expands nothing and merges everything: runs `cells` across `jobs`
/// worker threads (jobs = 0 → hardware concurrency) and returns the
/// deterministic aggregate.
[[nodiscard]] SweepReport run_sweep(const std::vector<SweepCell>& cells,
                                    unsigned jobs,
                                    const std::string& grid_name);

}  // namespace dvc::tools
