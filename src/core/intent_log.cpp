#include "core/intent_log.hpp"

#include <utility>

namespace dvc::core {

std::string_view to_string(IntentKind k) noexcept {
  switch (k) {
    case IntentKind::kProvision:
      return "provision";
    case IntentKind::kCheckpoint:
      return "checkpoint";
    case IntentKind::kRestore:
      return "restore";
    case IntentKind::kMigrate:
      return "migrate";
    case IntentKind::kRetire:
      return "retire";
  }
  return "?";
}

std::uint64_t IntentLog::append(IntentKind kind, VcId vc, std::string label,
                                std::uint64_t epoch) {
  const std::uint64_t lsn = next_lsn_++;
  Intent e;
  e.lsn = lsn;
  e.kind = kind;
  e.vc = vc;
  e.label = std::move(label);
  e.epoch = epoch;
  e.token = store_->put_object(
      "wal/" + std::to_string(lsn) + "/" + std::string(to_string(kind)),
      /*bytes=*/0, storage::synthetic_checksum(lsn, epoch, vc));
  open_.emplace(lsn, std::move(e));
  ++appended_;
  telemetry::count(metrics_, appends_c_);
  return lsn;
}

void IntentLog::close(std::uint64_t lsn) {
  const auto it = open_.find(lsn);
  if (it == open_.end()) return;
  store_->remove_object(it->second.token);
  open_.erase(it);
  telemetry::count(metrics_, closes_c_);
}

}  // namespace dvc::core
