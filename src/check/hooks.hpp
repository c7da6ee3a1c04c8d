#pragma once

#include <cstdint>
#include <string_view>

// Deliberately dependency-free: subsystem headers (storage, ckpt, core)
// include this to accept an optional checker without pulling src/check/'s
// implementation — the concrete dvc::check::Invariants lives in its own
// library on top of dvc_core, so no dependency cycle forms.

namespace dvc::check {

/// Which cross-subsystem boundary a sweep is running at.
enum class Boundary : std::uint8_t {
  kRoundSeal,   ///< a coordinated checkpoint sealed and became a generation
  kRestore,     ///< a whole-VC restore completed (ok or not)
  kRecovery,    ///< automatic recovery concluded (recovered or abandoned)
  kEndOfRun,    ///< the harness is done driving the simulation
  kTransition,  ///< a VC changed lifecycle state (no sweep runs here)
};

[[nodiscard]] constexpr std::string_view to_string(Boundary b) noexcept {
  switch (b) {
    case Boundary::kRoundSeal: return "round-seal";
    case Boundary::kRestore: return "restore";
    case Boundary::kRecovery: return "recovery";
    case Boundary::kEndOfRun: return "end-of-run";
    case Boundary::kTransition: return "transition";
  }
  return "?";
}

/// Observer interface the subsystems notify at their consistency points.
/// All hooks default to no-ops so a subsystem with no checker attached
/// behaves (and costs) exactly as before; dvc::check::Invariants overrides
/// them with the cross-subsystem assertions.
class Checker {
 public:
  virtual ~Checker() = default;

  /// A VC crossed a lifecycle boundary (DvcManager).
  virtual void on_vc_boundary(Boundary /*boundary*/, std::uint64_t /*vc*/) {}

  /// VC `vc` moved from lifecycle state `from` to `to`
  /// (DvcManager::transition). The states are raw core::VcState values,
  /// so this header needs nothing from core.
  virtual void on_vc_transition(std::uint64_t /*vc*/, std::uint8_t /*from*/,
                                std::uint8_t /*to*/) {}

  /// The image manager admitted a state-changing command stamped with
  /// `epoch` (post-fence: the mutation is about to execute).
  virtual void on_admitted_mutation(std::string_view /*op*/,
                                    std::uint64_t /*epoch*/) {}

  /// The coordinator-epoch fence advanced to `new_epoch`.
  virtual void on_epoch_advance(std::uint64_t /*new_epoch*/) {}

  /// An LSC round concluded (after the retry policy ran its course).
  virtual void on_round_complete(bool /*ok*/, std::uint64_t /*set*/) {}
};

}  // namespace dvc::check
