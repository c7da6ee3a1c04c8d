#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/id_table.hpp"
#include "sim/simulation.hpp"
#include "storage/bandwidth_pool.hpp"

namespace dvc::storage {

/// Identifier of a stored object (VM image or checkpoint image).
using ObjectId = std::uint64_t;

inline constexpr ObjectId kInvalidObject = 0;

/// Metadata of an object held by the store. `checksum` is the digest the
/// writer declared; `stored_checksum` is the digest of the bytes actually
/// on disk. They differ only after silent corruption, which is exactly
/// what a verified read detects.
struct ObjectInfo {
  ObjectId id = kInvalidObject;
  std::string name;
  std::uint64_t bytes = 0;
  std::uint64_t checksum = 0;
  std::uint64_t stored_checksum = 0;
  bool torn = false;  ///< a write died mid-stream; the object is partial
  sim::Time created_at = 0;
};

/// Why a verified read failed (kOk = it did not).
enum class ReadError : std::uint8_t {
  kOk,
  kNotFound,          ///< no such object (never written, or removed)
  kTorn,              ///< partial object left by an interrupted write
  kChecksumMismatch,  ///< bytes present but silently corrupted
};

[[nodiscard]] std::string_view to_string(ReadError e) noexcept;

/// Deterministic FNV-1a over the object identity; stands in for a real
/// content digest so integrity checks have something to verify.
[[nodiscard]] std::uint64_t synthetic_checksum(std::uint64_t a,
                                               std::uint64_t b,
                                               std::uint64_t c) noexcept;

/// The shared store (NFS-server stand-in) that holds VM images and
/// checkpoint sets. Reads and writes contend within separate bandwidth
/// pools; every operation pays a fixed per-op overhead (RPC + fsync).
///
/// The paper's §1 notes that single-node VC checkpointing needs "only a
/// reliable storage system ... and an image management capability"; this
/// class plus ImageManager is that substrate — and since real NFS servers
/// are *not* perfectly reliable, the store also models the two classic
/// durability failures: silent corruption (`corrupt_object`) and torn
/// writes (`tear_inflight_writes`). Both are invisible at write time and
/// detected by the digest verification every read performs.
class SharedStore final {
 public:
  struct Config {
    double write_bps = 200e6;  ///< aggregate write bandwidth (bytes/s)
    double read_bps = 400e6;   ///< aggregate read bandwidth (bytes/s)
    sim::Duration op_overhead = 5 * sim::kMillisecond;
  };

  SharedStore(sim::Simulation& sim, Config cfg)
      : sim_(&sim),
        cfg_(cfg),
        writes_(sim, cfg.write_bps),
        reads_(sim, cfg.read_bps) {}

  SharedStore(const SharedStore&) = delete;
  SharedStore& operator=(const SharedStore&) = delete;

  /// Streams `bytes` into a new object. `on_complete` receives the object
  /// id once the data is durable — or once the store *believes* it is: a
  /// torn write (see tear_inflight_writes) also completes "successfully",
  /// because a dying writer cannot tell its fsync never finished. The
  /// damage surfaces at the next verified read.
  void write_object(std::string name, std::uint64_t bytes,
                    std::uint64_t checksum,
                    std::function<void(ObjectId)> on_complete);

  /// Instantaneously installs an object (pre-seeded content such as base OS
  /// images that exist before the simulated experiment begins).
  ObjectId put_object(std::string name, std::uint64_t bytes,
                      std::uint64_t checksum);

  /// Streams an object out and verifies its digest against the one the
  /// writer declared. `on_complete` receives kOk only for an existing,
  /// whole, uncorrupted object.
  void read_object(ObjectId id, std::function<void(ReadError)> on_complete);

  /// Drops an object (instantaneous metadata operation).
  bool remove_object(ObjectId id);

  // ---- fault hooks (used by fault::FaultInjector) ------------------------

  /// Silently flips bits in a stored object: its on-disk digest no longer
  /// matches the declared one, so the next read reports kChecksumMismatch.
  /// Returns false if the object does not exist (or is already torn).
  bool corrupt_object(ObjectId id);

  /// The `n`-th newest object (0 = newest) — what a corruption fault
  /// targets, since freshly written checkpoint images are the objects
  /// whose loss actually matters. kInvalidObject if out of range.
  [[nodiscard]] ObjectId nth_newest_object(std::size_t n) const;

  /// Kills every write currently in flight the way a dying NFS server
  /// does: the partial object is installed (detectably torn) and each
  /// writer's completion callback fires as if the write had succeeded.
  /// Returns the number of writes torn.
  std::size_t tear_inflight_writes();

  [[nodiscard]] std::size_t inflight_writes() const noexcept {
    return inflight_.size();
  }

  // ---- introspection -----------------------------------------------------

  [[nodiscard]] std::optional<ObjectInfo> info(ObjectId id) const;
  [[nodiscard]] std::size_t object_count() const noexcept {
    return objects_.size();
  }
  [[nodiscard]] std::uint64_t bytes_stored() const noexcept {
    return bytes_stored_;
  }
  /// Monotonic total of bytes ever written (survives pruning).
  [[nodiscard]] std::uint64_t bytes_written_total() const noexcept {
    return bytes_written_total_;
  }

  [[nodiscard]] BandwidthPool& write_pool() noexcept { return writes_; }
  [[nodiscard]] BandwidthPool& read_pool() noexcept { return reads_; }

  /// Attaches an optional metrics registry: wires both bandwidth pools
  /// (`<prefix>.write_pool.*` / `<prefix>.read_pool.*`) and records
  /// store-level op counts plus the durable-write latency histogram
  /// `<prefix>.store.write_s`. The default prefix keeps the historical
  /// `storage.*` names; replica stores pass their own prefix so their
  /// counters stay distinguishable.
  void set_metrics(telemetry::MetricsRegistry* m,
                   const std::string& prefix = "storage");

 private:
  struct InflightWrite {
    std::string name;
    std::uint64_t bytes = 0;
    std::uint64_t checksum = 0;
    sim::Time started = 0;
    TransferId transfer = kInvalidTransfer;  ///< invalid during op_overhead
    std::function<void(ObjectId)> on_complete;
  };

  /// A verified read between read_object and its report.
  struct PendingRead {
    std::uint64_t id = 0;
    ObjectId object = kInvalidObject;
    std::function<void(ReadError)> on_complete;
  };

  /// `<prefix>.store.*` instruments (resolved on first use).
  struct Instruments {
    explicit Instruments(const std::string& prefix);
    telemetry::CounterHandle writes;
    telemetry::CounterHandle torn_writes;
    telemetry::CounterHandle reads;
    telemetry::CounterHandle read_failures;
    telemetry::CounterHandle verify_failures;
    telemetry::CounterHandle corruptions;
    telemetry::HistogramHandle write_s;
  };

  using InflightMap = std::map<ObjectId, InflightWrite>;
  using ObjectMap = std::unordered_map<ObjectId, ObjectInfo>;

  /// A fresh entry under `id`, built on a recycled node when there is one.
  InflightWrite& new_inflight(ObjectId id);
  ObjectInfo& new_object(ObjectId id);
  /// Installs a write that left `inflight_` (whole or torn), recycles its
  /// node, then reports the object id to the writer.
  void complete(InflightMap::node_type node, bool torn);
  /// The read's op overhead has passed: streams its object, or fails it.
  void start_read(std::uint64_t read);
  /// The read's transfer finished: verifies the object and reports.
  void verify_read(std::uint64_t read);
  /// Removes the read from `reads_pending_`, then reports `err` to it.
  void finish_read(std::uint64_t read, ReadError err);

  sim::Simulation* sim_;
  Config cfg_;
  BandwidthPool writes_;
  BandwidthPool reads_;
  ObjectId next_id_ = 1;
  ObjectMap objects_;
  /// Writes between write_object and durability, id-ordered so a tear
  /// kills them deterministically in start order.
  InflightMap inflight_;
  /// Nodes of removed objects and finished writes, reused by the next
  /// install or write instead of allocating (extract / node-handle insert
  /// keep key order and lookups as they were).
  std::vector<ObjectMap::node_type> spare_objects_;
  std::vector<InflightMap::node_type> spare_inflight_;
  /// Reads in flight. Their op event and pool transfer carry
  /// `(this, read id)`.
  sim::IdTable<PendingRead> reads_pending_;
  std::uint64_t bytes_stored_ = 0;
  std::uint64_t bytes_written_total_ = 0;
  telemetry::MetricsRegistry* metrics_ = nullptr;
  Instruments instruments_{"storage"};
};

}  // namespace dvc::storage
