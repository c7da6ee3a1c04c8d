#pragma once

#include <cstddef>
#include <cstdint>
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

/// A scenario turned into a running cell: the one place that maps scenario
/// keys to simulator objects, for dvcsim and run_cell alike, so a sweep
/// cell replays in dvcsim as the same simulation. The constructor builds,
/// in order: the machine room (echoing its trace when `trace` is true), the
/// VC and its optional head node, the boot to 20 s, the workload's
/// ParallelApp, the LSC coordinator with its retry policy, the invariant
/// checker and the fault injector. Driving the simulation is the caller's
/// job. Throws std::invalid_argument naming the key on a bad value, and
/// std::runtime_error when the VC does not fit the room.
class CellRig final {
 public:
  /// `cfg` must outlive the rig.
  explicit CellRig(const ScenarioConfig& cfg);
  ~CellRig();
  CellRig(const CellRig&) = delete;
  CellRig& operator=(const CellRig&) = delete;

  /// Enables auto-recovery from the policy keys (checkpoint_interval_s,
  /// incremental, proactive, watchdog_interval_s, keep_checkpoints,
  /// max_restore_retries), then arms random node failures when
  /// mtbf_per_node_s > 0, each repaired after repair_s.
  void start_recovery();

  const ScenarioConfig& cfg;
  core::MachineRoom room;
  core::VirtualCluster* vc = nullptr;
  std::unique_ptr<app::ParallelApp> application;
  std::unique_ptr<ckpt::NtpLscCoordinator> lsc;
  /// Attached unless `check.invariants = off`; detached by the destructor.
  std::unique_ptr<check::Invariants> inv;
  /// Armed only when `fault.enabled`; `faults_armed` counts its events.
  std::unique_ptr<fault::FaultInjector> injector;
  std::size_t faults_armed = 0;
};

/// Runs one cell to its outcome: a silent dvcsim-reliability-style run
/// with the invariant checker attached (unless `check.invariants = off`).
/// Deterministic per cell and safe to call from multiple threads at once
/// (each cell owns its entire simulation).
[[nodiscard]] CellOutcome run_cell(const SweepCell& cell);

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

/// Expands nothing and merges everything: runs `cells` across `jobs`
/// worker threads (jobs = 0 → hardware concurrency) and returns the
/// deterministic aggregate.
[[nodiscard]] SweepReport run_sweep(const std::vector<SweepCell>& cells,
                                    unsigned jobs,
                                    const std::string& grid_name);

}  // namespace dvc::tools
