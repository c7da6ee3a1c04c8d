#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "check/hooks.hpp"
#include "sim/id_table.hpp"
#include "storage/epoch_fence.hpp"
#include "storage/shared_store.hpp"

namespace dvc::storage {

/// Identifier of a checkpoint set (one coordinated snapshot of a whole
/// virtual cluster).
using CheckpointSetId = std::uint64_t;

inline constexpr CheckpointSetId kInvalidCheckpointSet = 0;

/// One member image inside a checkpoint set. `replicas[i]` is the copy on
/// replica store i (kInvalidObject while that copy is still streaming or
/// was never made).
struct MemberImage {
  std::uint64_t member = 0;          ///< index of the VM within its VC
  ObjectId object = kInvalidObject;  ///< backing object in the primary store
  std::uint64_t bytes = 0;
  std::vector<ObjectId> replicas;
};

/// A coordinated snapshot of a virtual cluster: complete only when every
/// member image is durable. Restart must only ever use complete sets —
/// a partial set is an inconsistent cut by construction.
struct CheckpointSet {
  CheckpointSetId id = kInvalidCheckpointSet;
  std::string label;
  std::size_t expected_members = 0;
  std::vector<MemberImage> members;
  sim::Time started_at = 0;
  sim::Time sealed_at = 0;
  bool sealed = false;
  bool aborted = false;
  /// A member image failed verification on every replica that holds it:
  /// this set can never restore a consistent cut again. Recovery must
  /// fall back to an older generation.
  bool damaged = false;

  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    std::uint64_t b = 0;
    for (const auto& m : members) b += m.bytes;
    return b;
  }
};

/// Tracks checkpoint sets and stages them to nodes.
/// This is the "image management capability to track the correct staging
/// and restart of images" from §1 of the paper.
///
/// Durability: each member image lands on the primary store and is then
/// copied asynchronously to every registered replica store (replication
/// consumes replica write bandwidth but never delays sealing — the seal
/// still means "the primary copy is durable"). Verified reads go through
/// read_member, which fails over primary → replicas in order and marks
/// the set damaged only when every copy is torn, corrupted, or missing.
class ImageManager final {
 public:
  explicit ImageManager(SharedStore& store) : store_(&store) {}

  ImageManager(const ImageManager&) = delete;
  ImageManager& operator=(const ImageManager&) = delete;

  /// Registers an additional store that receives an asynchronous copy of
  /// every member image written from now on. Call before checkpointing
  /// starts; replicas of already-written images are not backfilled.
  void add_replica(SharedStore& store) { replicas_.push_back(&store); }

  [[nodiscard]] std::size_t replica_count() const noexcept {
    return replicas_.size();
  }

  /// Opens a new checkpoint set expecting `members` images. A fenced
  /// (stale-epoch) open returns kInvalidCheckpointSet.
  CheckpointSetId open_set(std::string label, std::size_t members,
                           std::uint64_t epoch = kUnfencedEpoch);

  /// Streams one member's image into the store; on durability the image is
  /// recorded in the set and, if it was the last one, the set seals.
  /// `on_member_done` fires when this member's write lands: after the seal
  /// it completed, if any, or once the image is dropped because its set
  /// was aborted or discarded while it streamed. A fenced write behaves
  /// like a write to a missing set: nothing happens and the callback never
  /// fires. Returns whether the write was issued.
  bool add_member(CheckpointSetId set, std::uint64_t member,
                  std::uint64_t bytes,
                  std::function<void()> on_member_done = {},
                  std::uint64_t epoch = kUnfencedEpoch);

  /// Marks a set as aborted (e.g. a save failed mid-flight). Aborted sets
  /// never seal and their images are garbage-collected.
  void abort_set(CheckpointSetId set, std::uint64_t epoch = kUnfencedEpoch);

  /// Permanently removes a set, sealed or not, reclaiming its bytes.
  /// Unlike abort_set this also takes sealed sets — used to quarantine a
  /// checkpoint whose application image is known-bad, and to retire a
  /// set once no retained generation lists it (the one retention path:
  /// core::DvcManager's generation lists).
  std::uint64_t discard_set(CheckpointSetId set,
                            std::uint64_t epoch = kUnfencedEpoch);

  [[nodiscard]] const CheckpointSet* find_set(CheckpointSetId set) const;

  /// Latest sealed set with the given label, if any — what restart uses.
  [[nodiscard]] const CheckpointSet* latest_sealed(
      const std::string& label) const;

  /// Every live set filed under this label, oldest first — the ground
  /// truth a rebooted coordinator reconciles its journal against.
  [[nodiscard]] std::vector<const CheckpointSet*> sets_with_label(
      const std::string& label) const;

  /// Verified read of one member image with replica failover: tries the
  /// primary copy, then each replica in registration order, and reports
  /// true at the first copy whose digest verifies. Reports false — and
  /// marks the whole set damaged — only when every copy failed.
  void read_member(CheckpointSetId set, std::uint64_t member,
                   std::function<void(bool)> on_done);

  /// Stages every member image of a sealed set toward compute nodes
  /// (a contended, verified read per member, with replica failover);
  /// `on_staged(ok)` fires when all reads finish, ok = every member had
  /// at least one verifiable copy.
  void stage_set(CheckpointSetId set, std::function<void(bool)> on_staged);

  /// Attaches the coordinator-epoch fence (null = unfenced). Mutations
  /// stamped with a stale epoch are rejected and counted in
  /// `storage.images.fenced_writes`.
  void set_fence(const EpochFence* fence) noexcept { fence_ = fence; }

  /// Attaches an optional invariant checker (null to detach), notified of
  /// every *admitted* state-changing command with its issuing epoch — the
  /// checker independently re-verifies the fence discipline, so a detached
  /// or bypassed fence surfaces as a violation instead of a silent write.
  void set_check(check::Checker* c) noexcept { check_ = c; }

  [[nodiscard]] SharedStore& store() noexcept { return *store_; }
  [[nodiscard]] SharedStore& replica(std::size_t i) noexcept {
    return *replicas_.at(i);
  }

  /// Attaches an optional metrics registry for set lifecycle counters
  /// (`storage.images.*`: sets opened/sealed/aborted/damaged, members
  /// added, staging reads, sets discarded)
  /// and replication counters (`storage.replica.*`).
  void set_metrics(telemetry::MetricsRegistry* m) noexcept { metrics_ = m; }

 private:
  /// True (and counted) when a mutation stamped with `epoch` must be
  /// rejected because a newer coordinator incarnation holds the fence.
  [[nodiscard]] bool fenced(std::uint64_t epoch) {
    if (fence_ == nullptr || fence_->admits(epoch)) return false;
    telemetry::count(metrics_, fenced_writes_c_);
    return true;
  }

  void admitted(std::string_view op, std::uint64_t epoch) {
    if (check_ != nullptr) check_->on_admitted_mutation(op, epoch);
  }

  /// One store write in flight for a member image: its primary copy, or
  /// its copy on replica store `replica`. The write's completion captures
  /// only `(this, slot)`; the slot is freed the moment the write lands.
  struct PendingCopy {
    CheckpointSetId set = kInvalidCheckpointSet;
    std::uint64_t member = 0;
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0;     ///< every copy's, computed once
    std::size_t replica = 0;        ///< replica copies only
    std::function<void()> on_done;  ///< primary copies only
  };

  [[nodiscard]] std::uint32_t claim_copy(PendingCopy copy);
  [[nodiscard]] PendingCopy release_copy(std::uint32_t slot);
  void primary_landed(std::uint32_t slot, ObjectId obj);
  void replica_landed(std::uint32_t slot, ObjectId obj);
  void maybe_seal(CheckpointSet& s);
  void replicate_member(const PendingCopy& primary);
  void drop_member_objects(const MemberImage& m);
  void mark_damaged(CheckpointSet& s);
  void read_member_from(CheckpointSetId set, std::uint64_t member,
                        std::size_t copy, std::function<void(bool)> on_done);

  /// One stage_set call in flight. Its reads capture only `(this, id)`
  /// and join it (sim::IdTable::join); the last one to land takes it and
  /// reports.
  struct Staging {
    std::uint32_t id = 0;
    std::size_t pending = 0;  ///< member reads still in flight
    bool all_ok = true;
    std::function<void(bool)> on_staged;
  };
  void member_staged(std::uint32_t id, bool ok);

  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::CounterHandle fenced_writes_c_{"storage.images.fenced_writes"};
  telemetry::CounterHandle sets_opened_c_{"storage.images.sets_opened"};
  telemetry::CounterHandle members_added_c_{"storage.images.members_added"};
  telemetry::CounterHandle replica_copies_c_{"storage.replica.copies"};
  telemetry::CounterHandle replica_copy_bytes_c_{
      "storage.replica.copy_bytes"};
  telemetry::CounterHandle sets_aborted_c_{"storage.images.sets_aborted"};
  telemetry::CounterHandle sets_discarded_c_{
      "storage.images.sets_discarded"};
  telemetry::CounterHandle sets_sealed_c_{"storage.images.sets_sealed"};
  telemetry::CounterHandle sets_damaged_c_{"storage.images.sets_damaged"};
  telemetry::CounterHandle replica_failovers_c_{
      "storage.replica.failovers"};
  telemetry::CounterHandle stage_reads_c_{"storage.images.stage_reads"};
  const EpochFence* fence_ = nullptr;
  check::Checker* check_ = nullptr;
  SharedStore* store_;
  std::vector<SharedStore*> replicas_;
  CheckpointSetId next_set_ = 1;
  std::map<CheckpointSetId, CheckpointSet> sets_;
  sim::IdTable<Staging, std::uint32_t> stagings_;
  /// Pending-copy slots, reused through `free_copies_`.
  std::vector<PendingCopy> copies_;
  std::vector<std::uint32_t> free_copies_;
};

}  // namespace dvc::storage
