#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "core/virtual_cluster.hpp"
#include "storage/shared_store.hpp"
#include "telemetry/telemetry.hpp"

namespace dvc::core {

/// What a journalled control-plane operation was going to do. The journal
/// records intent, not effect: an entry proves only that the coordinator
/// *started* the operation before it may have died.
enum class IntentKind : std::uint8_t {
  kProvision,   ///< create_vc: boot every member
  kCheckpoint,  ///< open + seal one LSC round
  kRestore,     ///< roll the whole VC back to its recovery point
  kMigrate,     ///< save-and-hold, then restore elsewhere
  kRetire,      ///< drop a checkpoint generation from the store
};

[[nodiscard]] std::string_view to_string(IntentKind k) noexcept;

/// One open journal entry. `token` is the zero-byte marker object that
/// makes the entry durable in the shared store (metadata-only, so the
/// append is instantaneous and never contends with image traffic).
struct Intent {
  std::uint64_t lsn = 0;
  IntentKind kind = IntentKind::kProvision;
  VcId vc = 0;
  std::string label;
  std::uint64_t epoch = 0;
  storage::ObjectId token = storage::kInvalidObject;
};

/// Write-ahead intent log for the DVC coordinator. Every state-changing
/// operation appends an entry *before* acting and closes it when the
/// operation reaches a terminal outcome; whatever is still open after a
/// coordinator crash is exactly the set of operations the reboot's
/// reconciliation pass must abort-or-complete against ground truth.
///
/// Entries live as named zero-byte objects in the shared store (which
/// survives the coordinator by design), so the log itself needs no extra
/// durability machinery.
class IntentLog final {
 public:
  explicit IntentLog(storage::SharedStore& store) : store_(&store) {}

  IntentLog(const IntentLog&) = delete;
  IntentLog& operator=(const IntentLog&) = delete;

  /// Journals an intent; returns its log sequence number.
  std::uint64_t append(IntentKind kind, VcId vc, std::string label,
                       std::uint64_t epoch);

  /// Marks an intent as reaching a terminal outcome (success or a cleanly
  /// reported failure) and drops its durable token. Unknown lsns are
  /// ignored — a straggler completion may race the crash-recovery pass
  /// that already swept its entry.
  void close(std::uint64_t lsn);

  /// Entries appended but never closed, lsn-ordered — the reconciliation
  /// worklist after a coordinator reboot.
  [[nodiscard]] const std::map<std::uint64_t, Intent>& open_intents()
      const noexcept {
    return open_;
  }

  [[nodiscard]] std::uint64_t appended() const noexcept { return appended_; }

  void set_metrics(telemetry::MetricsRegistry* m) noexcept { metrics_ = m; }

 private:
  storage::SharedStore* store_;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::CounterHandle appends_c_{"core.dvc.wal_appends"};
  telemetry::CounterHandle closes_c_{"core.dvc.wal_closes"};
  std::uint64_t next_lsn_ = 1;
  std::uint64_t appended_ = 0;
  std::map<std::uint64_t, Intent> open_;
};

}  // namespace dvc::core
