#include "storage/image_manager.hpp"

#include <algorithm>
#include <utility>

namespace dvc::storage {

CheckpointSetId ImageManager::open_set(std::string label,
                                       std::size_t members,
                                       std::uint64_t epoch) {
  if (fenced(epoch)) return kInvalidCheckpointSet;
  admitted("open_set", epoch);
  const CheckpointSetId id = next_set_++;
  CheckpointSet s;
  s.id = id;
  s.label = std::move(label);
  s.expected_members = members;
  sets_.emplace(id, std::move(s));
  telemetry::count(metrics_, sets_opened_c_);
  return id;
}

std::uint32_t ImageManager::claim_copy(PendingCopy copy) {
  if (free_copies_.empty()) {
    copies_.push_back(std::move(copy));
    return static_cast<std::uint32_t>(copies_.size() - 1);
  }
  const std::uint32_t slot = free_copies_.back();
  free_copies_.pop_back();
  copies_[slot] = std::move(copy);
  return slot;
}

ImageManager::PendingCopy ImageManager::release_copy(std::uint32_t slot) {
  PendingCopy copy = std::move(copies_[slot]);
  free_copies_.push_back(slot);
  return copy;
}

bool ImageManager::add_member(CheckpointSetId set, std::uint64_t member,
                              std::uint64_t bytes,
                              std::function<void()> on_member_done,
                              std::uint64_t epoch) {
  if (fenced(epoch)) return false;
  admitted("add_member", epoch);
  auto it = sets_.find(set);
  if (it == sets_.end() || it->second.aborted) return false;
  const std::uint64_t checksum = synthetic_checksum(set, member, bytes);
  const std::uint32_t slot = claim_copy(
      {set, member, bytes, checksum, 0, std::move(on_member_done)});
  store_->write_object("ckpt", bytes, checksum, [this, slot](ObjectId obj) {
    primary_landed(slot, obj);
  });
  return true;
}

void ImageManager::primary_landed(std::uint32_t slot, ObjectId obj) {
  const PendingCopy copy = release_copy(slot);
  auto sit = sets_.find(copy.set);
  if (sit == sets_.end() || sit->second.aborted) {
    store_->remove_object(obj);
    if (copy.on_done) copy.on_done();
    return;
  }
  CheckpointSet& s = sit->second;
  if (s.members.empty()) s.members.reserve(s.expected_members);
  MemberImage img{copy.member, obj, copy.bytes, {}};
  img.replicas.assign(replicas_.size(), kInvalidObject);
  s.members.push_back(std::move(img));
  telemetry::count(metrics_, members_added_c_);
  replicate_member(copy);
  maybe_seal(s);
  if (copy.on_done) copy.on_done();
}

void ImageManager::replicate_member(const PendingCopy& primary) {
  // Replication is asynchronous: it consumes each replica store's write
  // bandwidth but never gates sealing. A copy that lands after its set
  // died is removed again.
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    const std::uint32_t slot = claim_copy(
        {primary.set, primary.member, primary.bytes, primary.checksum, i, {}});
    replicas_[i]->write_object(
        "ckpt-replica", primary.bytes, primary.checksum,
        [this, slot](ObjectId obj) { replica_landed(slot, obj); });
  }
}

void ImageManager::replica_landed(std::uint32_t slot, ObjectId obj) {
  const PendingCopy copy = release_copy(slot);
  SharedStore& store = *replicas_[copy.replica];
  auto sit = sets_.find(copy.set);
  if (sit == sets_.end() || sit->second.aborted) {
    store.remove_object(obj);
    return;
  }
  for (auto& m : sit->second.members) {
    if (m.member == copy.member) {
      m.replicas[copy.replica] = obj;
      telemetry::count(metrics_, replica_copies_c_);
      telemetry::count(metrics_, replica_copy_bytes_c_, copy.bytes);
      return;
    }
  }
  store.remove_object(obj);
}

void ImageManager::drop_member_objects(const MemberImage& m) {
  store_->remove_object(m.object);
  for (std::size_t i = 0; i < m.replicas.size() && i < replicas_.size();
       ++i) {
    if (m.replicas[i] != kInvalidObject) {
      replicas_[i]->remove_object(m.replicas[i]);
    }
  }
}

void ImageManager::abort_set(CheckpointSetId set, std::uint64_t epoch) {
  if (fenced(epoch)) return;
  admitted("abort_set", epoch);
  auto it = sets_.find(set);
  if (it == sets_.end() || it->second.sealed) return;
  it->second.aborted = true;
  for (const auto& m : it->second.members) drop_member_objects(m);
  it->second.members.clear();
  telemetry::count(metrics_, sets_aborted_c_);
}

std::uint64_t ImageManager::discard_set(CheckpointSetId set,
                                        std::uint64_t epoch) {
  if (fenced(epoch)) return 0;
  admitted("discard_set", epoch);
  auto it = sets_.find(set);
  if (it == sets_.end()) return 0;
  std::uint64_t reclaimed = 0;
  for (const auto& m : it->second.members) {
    reclaimed += m.bytes;
    drop_member_objects(m);
  }
  sets_.erase(it);
  telemetry::count(metrics_, sets_discarded_c_);
  return reclaimed;
}

void ImageManager::maybe_seal(CheckpointSet& s) {
  if (s.sealed || s.aborted || s.members.size() < s.expected_members) return;
  s.sealed = true;
  telemetry::count(metrics_, sets_sealed_c_);
}

const CheckpointSet* ImageManager::find_set(CheckpointSetId set) const {
  const auto it = sets_.find(set);
  return it == sets_.end() ? nullptr : &it->second;
}

const CheckpointSet* ImageManager::latest_sealed(
    const std::string& label) const {
  const CheckpointSet* best = nullptr;
  for (const auto& [id, s] : sets_) {
    if (s.sealed && s.label == label) best = &s;  // map is id-ordered
  }
  return best;
}

std::vector<const CheckpointSet*> ImageManager::sets_with_label(
    const std::string& label) const {
  std::vector<const CheckpointSet*> out;
  for (const auto& [id, s] : sets_) {
    if (s.label == label) out.push_back(&s);  // map is id-ordered
  }
  return out;
}

void ImageManager::mark_damaged(CheckpointSet& s) {
  if (s.damaged) return;
  s.damaged = true;
  telemetry::count(metrics_, sets_damaged_c_);
}

void ImageManager::read_member_from(CheckpointSetId set,
                                    std::uint64_t member, std::size_t copy,
                                    std::function<void(bool)> on_done) {
  auto sit = sets_.find(set);
  if (sit == sets_.end()) {
    if (on_done) on_done(false);
    return;
  }
  const MemberImage* img = nullptr;
  for (const auto& m : sit->second.members) {
    if (m.member == member) {
      img = &m;
      break;
    }
  }
  if (img == nullptr) {
    if (on_done) on_done(false);
    return;
  }
  // copy 0 is the primary; copy i is replica i-1. Skip replica slots whose
  // asynchronous copy never landed.
  while (copy > 0 && copy <= img->replicas.size() &&
         img->replicas[copy - 1] == kInvalidObject) {
    ++copy;
  }
  if (copy > img->replicas.size() || copy > replicas_.size()) {
    // Every copy of this member failed verification (or never existed):
    // the set as a whole can no longer restore a consistent cut.
    mark_damaged(sit->second);
    if (on_done) on_done(false);
    return;
  }
  SharedStore* src = copy == 0 ? store_ : replicas_[copy - 1];
  const ObjectId obj = copy == 0 ? img->object : img->replicas[copy - 1];
  if (copy > 0) telemetry::count(metrics_, replica_failovers_c_);
  src->read_object(obj, [this, set, member, copy,
                         cb = std::move(on_done)](ReadError err) mutable {
    if (err == ReadError::kOk) {
      if (cb) cb(true);
      return;
    }
    read_member_from(set, member, copy + 1, std::move(cb));
  });
}

void ImageManager::read_member(CheckpointSetId set, std::uint64_t member,
                               std::function<void(bool)> on_done) {
  read_member_from(set, member, 0, std::move(on_done));
}

void ImageManager::stage_set(CheckpointSetId set,
                             std::function<void(bool)> on_staged) {
  const CheckpointSet* s = find_set(set);
  if (s == nullptr || !s->sealed) {
    if (on_staged) on_staged(false);
    return;
  }
  if (s->members.empty()) {
    if (on_staged) on_staged(true);
    return;
  }
  const std::uint32_t id = stagings_.open(
      {.pending = s->members.size(), .on_staged = std::move(on_staged)}).id;
  // Copy the member list: read_member failure paths may mutate the set.
  std::vector<std::uint64_t> members;
  members.reserve(s->members.size());
  for (const auto& m : s->members) members.push_back(m.member);
  for (const std::uint64_t m : members) {
    telemetry::count(metrics_, stage_reads_c_);
    read_member(set, m, [this, id](bool ok) { member_staged(id, ok); });
  }
}

void ImageManager::member_staged(std::uint32_t id, bool ok) {
  const std::optional<Staging> staged = stagings_.join(id, ok);
  if (staged && staged->on_staged) staged->on_staged(staged->all_ok);
}

}  // namespace dvc::storage
