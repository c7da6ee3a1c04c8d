#include "storage/shared_store.hpp"

#include <algorithm>
#include <utility>

namespace dvc::storage {

namespace {
/// XOR mask applied by corrupt_object: any non-zero change to the on-disk
/// digest models a bit flip the declared digest will not match.
constexpr std::uint64_t kBitRot = 0xB17F117ULL;
}  // namespace

std::string_view to_string(ReadError e) noexcept {
  switch (e) {
    case ReadError::kOk:
      return "ok";
    case ReadError::kNotFound:
      return "not_found";
    case ReadError::kTorn:
      return "torn";
    case ReadError::kChecksumMismatch:
      return "checksum_mismatch";
  }
  return "unknown";
}

std::uint64_t synthetic_checksum(std::uint64_t a, std::uint64_t b,
                                 std::uint64_t c) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t v : {a, b, c}) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

SharedStore::Instruments::Instruments(const std::string& prefix)
    : writes(prefix + ".store.writes"),
      torn_writes(prefix + ".store.torn_writes"),
      reads(prefix + ".store.reads"),
      read_failures(prefix + ".store.read_failures"),
      verify_failures(prefix + ".store.verify_failures"),
      corruptions(prefix + ".store.corruptions"),
      write_s(prefix + ".store.write_s") {}

void SharedStore::set_metrics(telemetry::MetricsRegistry* m,
                              const std::string& prefix) {
  metrics_ = m;
  instruments_ = Instruments(prefix);
  writes_.set_metrics(m, prefix + ".write_pool");
  reads_.set_metrics(m, prefix + ".read_pool");
}

SharedStore::InflightWrite& SharedStore::new_inflight(ObjectId id) {
  if (spare_inflight_.empty()) return inflight_.try_emplace(id).first->second;
  InflightMap::node_type node = std::move(spare_inflight_.back());
  spare_inflight_.pop_back();
  node.key() = id;
  return inflight_.insert(std::move(node)).position->second;
}

ObjectInfo& SharedStore::new_object(ObjectId id) {
  if (spare_objects_.empty()) return objects_.try_emplace(id).first->second;
  ObjectMap::node_type node = std::move(spare_objects_.back());
  spare_objects_.pop_back();
  node.key() = id;
  return objects_.insert(std::move(node)).position->second;
}

void SharedStore::complete(InflightMap::node_type node, bool torn) {
  const ObjectId id = node.key();
  InflightWrite& w = node.mapped();
  const std::function<void(ObjectId)> on_complete = std::move(w.on_complete);
  ObjectInfo& info = new_object(id);
  info.id = id;
  info.name = std::move(w.name);
  info.bytes = w.bytes;
  info.checksum = w.checksum;
  info.stored_checksum = w.checksum;
  info.torn = torn;
  info.created_at = sim_->now();
  bytes_stored_ += w.bytes;
  bytes_written_total_ += w.bytes;
  telemetry::count(metrics_,
                   torn ? instruments_.torn_writes : instruments_.writes);
  telemetry::observe(metrics_, instruments_.write_s,
                     sim::to_seconds(sim_->now() - w.started));
  spare_inflight_.push_back(std::move(node));
  // The writer learns nothing about the tear: its fsync "succeeded".
  if (on_complete) on_complete(id);
}

void SharedStore::write_object(std::string name, std::uint64_t bytes,
                               std::uint64_t checksum,
                               std::function<void(ObjectId)> on_complete) {
  // Reserve the id now so concurrent writers get distinct ids
  // deterministically in call order.
  const ObjectId id = next_id_++;
  InflightWrite& w = new_inflight(id);
  w.name = std::move(name);
  w.bytes = bytes;
  w.checksum = checksum;
  w.started = sim_->now();
  w.transfer = kInvalidTransfer;
  w.on_complete = std::move(on_complete);
  const auto start = [this, id] {
    const auto it = inflight_.find(id);
    if (it == inflight_.end()) return;  // torn during the op overhead
    const auto done = [this, id] {
      const auto wit = inflight_.find(id);
      if (wit == inflight_.end()) return;
      complete(inflight_.extract(wit), /*torn=*/false);
    };
    static_assert(sim::Callback::stores_inline<decltype(done)>);
    it->second.transfer = writes_.start(it->second.bytes, done);
  };
  static_assert(sim::Simulation::stores_inline<decltype(start)>);
  sim_->schedule_after(cfg_.op_overhead, start);
}

ObjectId SharedStore::put_object(std::string name, std::uint64_t bytes,
                                 std::uint64_t checksum) {
  const ObjectId id = next_id_++;
  ObjectInfo& info = new_object(id);
  info.id = id;
  info.name = std::move(name);
  info.bytes = bytes;
  info.checksum = checksum;
  info.stored_checksum = checksum;
  info.torn = false;
  info.created_at = sim_->now();
  bytes_stored_ += bytes;
  return id;
}

void SharedStore::read_object(ObjectId id,
                              std::function<void(ReadError)> on_complete) {
  const std::uint64_t read = reads_pending_.open(
      {.object = id, .on_complete = std::move(on_complete)}).id;
  const auto start = [this, read] { start_read(read); };
  static_assert(sim::Simulation::stores_inline<decltype(start)>);
  sim_->schedule_after(cfg_.op_overhead, start);
}

void SharedStore::start_read(std::uint64_t read) {
  const auto it = objects_.find(reads_pending_.find(read)->object);
  if (it == objects_.end()) {
    telemetry::count(metrics_, instruments_.read_failures);
    finish_read(read, ReadError::kNotFound);
    return;
  }
  const auto done = [this, read] { verify_read(read); };
  static_assert(sim::Callback::stores_inline<decltype(done)>);
  reads_.start(it->second.bytes, done);
}

void SharedStore::verify_read(std::uint64_t read) {
  // Re-verify after the transfer: the object may have been removed,
  // corrupted, or identified as torn while the read streamed.
  const auto again = objects_.find(reads_pending_.find(read)->object);
  ReadError err = ReadError::kOk;
  if (again == objects_.end()) {
    err = ReadError::kNotFound;
  } else if (again->second.torn) {
    err = ReadError::kTorn;
  } else if (again->second.stored_checksum != again->second.checksum) {
    err = ReadError::kChecksumMismatch;
  }
  telemetry::count(metrics_, err == ReadError::kOk
                                 ? instruments_.reads
                                 : instruments_.read_failures);
  if (err == ReadError::kTorn || err == ReadError::kChecksumMismatch) {
    telemetry::count(metrics_, instruments_.verify_failures);
  }
  finish_read(read, err);
}

void SharedStore::finish_read(std::uint64_t read, ReadError err) {
  const std::optional<PendingRead> r = reads_pending_.take(read);
  if (r->on_complete) r->on_complete(err);
}

bool SharedStore::remove_object(ObjectId id) {
  const auto it = objects_.find(id);
  if (it == objects_.end()) return false;
  bytes_stored_ -= it->second.bytes;
  spare_objects_.push_back(objects_.extract(it));
  return true;
}

bool SharedStore::corrupt_object(ObjectId id) {
  const auto it = objects_.find(id);
  if (it == objects_.end() || it->second.torn) return false;
  it->second.stored_checksum ^= kBitRot;
  telemetry::count(metrics_, instruments_.corruptions);
  return true;
}

ObjectId SharedStore::nth_newest_object(std::size_t n) const {
  if (n >= objects_.size()) return kInvalidObject;
  // Ids are handed out monotonically, so id order is creation order.
  std::vector<ObjectId> ids;
  ids.reserve(objects_.size());
  for (const auto& [id, info] : objects_) ids.push_back(id);
  std::sort(ids.begin(), ids.end(), std::greater<>());
  return ids[n];
}

std::size_t SharedStore::tear_inflight_writes() {
  // A writer's callback may start a new write; it lands in the emptied
  // table and survives this tear.
  InflightMap dying;
  dying.swap(inflight_);
  std::size_t torn = 0;
  while (!dying.empty()) {
    InflightMap::node_type node = dying.extract(dying.begin());
    if (node.mapped().transfer != kInvalidTransfer) {
      writes_.cancel(node.mapped().transfer);
    }
    complete(std::move(node), /*torn=*/true);
    ++torn;
  }
  return torn;
}

std::optional<ObjectInfo> SharedStore::info(ObjectId id) const {
  const auto it = objects_.find(id);
  if (it == objects_.end()) return std::nullopt;
  return it->second;
}

}  // namespace dvc::storage
