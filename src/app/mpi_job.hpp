#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/reliable_channel.hpp"
#include "sim/simulation.hpp"
#include "vm/execution_context.hpp"

namespace dvc::app {

/// Rank index within a parallel job.
using RankId = std::uint32_t;

/// Transport state of one rank: its endpoint toward every peer. Part of a
/// whole-guest checkpoint (the guest's TCP stacks freeze with the guest).
/// A peer whose endpoint was never used (its snapshot would equal
/// net::TransportSnapshot{}) is left out; restore treats it as that
/// empty snapshot.
struct RankTransportSnapshot {
  std::map<RankId, net::TransportSnapshot> to_peer;
};

/// The message-passing fabric of one parallel job: reliable connections
/// between ranks, each rank pair opened (both endpoints at once) on its
/// first send in either direction, the way MPI stacks open TCP connections
/// lazily. This plays the role of the MPI library + TCP stacks inside the
/// guests: co-dependent processes where losing any single connection kills
/// the whole application (paper §2.1). One host-state observer per rank
/// passes its host's liveness transitions to the rank's open endpoints in
/// peer order.
class MpiJob final {
 public:
  /// (from, message) delivered in order per (from -> to) pair.
  using RankHandler = std::function<void(RankId from, const net::Message&)>;
  /// Fired once, on the first transport abort anywhere in the job.
  using FailureHandler = std::function<void(RankId rank, std::string why)>;

  MpiJob(sim::Simulation& sim, net::Network& net,
         std::vector<vm::ExecutionContext*> ranks,
         net::ReliableConfig transport = {});

  /// Touches only the network: the ranks' contexts may already be gone.
  ~MpiJob();

  MpiJob(const MpiJob&) = delete;
  MpiJob& operator=(const MpiJob&) = delete;

  [[nodiscard]] RankId size() const noexcept {
    return static_cast<RankId>(ranks_.size());
  }
  [[nodiscard]] vm::ExecutionContext& context(RankId r) {
    return *ranks_.at(r);
  }

  void set_rank_handler(RankId rank, RankHandler h);
  void set_failure_handler(FailureHandler h) { on_failure_ = std::move(h); }

  /// Sends `bytes` from rank `from` to rank `to` with an application tag,
  /// opening the pair first if it has never carried traffic. Reliable,
  /// in-order per pair. Returns false if the mesh has failed.
  bool send(RankId from, RankId to, std::uint32_t bytes, std::uint32_t tag);

  /// True once any connection in the mesh has aborted.
  [[nodiscard]] bool failed() const noexcept { return failed_; }

  /// Captures one rank's transport state (call while its guest is paused).
  [[nodiscard]] RankTransportSnapshot snapshot_transport(RankId rank) const;

  /// Rolls one rank's transport back (whole-VC restore): every open
  /// endpoint of the rank, the ones the snapshot omits included, after
  /// opening any pair the snapshot names. `epoch` becomes the job's epoch,
  /// at which pairs opened later start. All ranks of a job must be
  /// restored with the same epoch before any of them runs again.
  void restore_transport(RankId rank, const RankTransportSnapshot& snap,
                         std::uint32_t epoch);

  /// True when no endpoint in the mesh holds an unacknowledged message.
  [[nodiscard]] bool drained() const;

  /// Clears the failed flag after a successful whole-job rollback.
  void mark_recovered() noexcept { failed_ = false; }

  // Aggregate statistics across the mesh.
  [[nodiscard]] std::uint64_t messages_sent() const;
  [[nodiscard]] std::uint64_t messages_delivered() const;
  [[nodiscard]] std::uint64_t retransmissions() const;
  [[nodiscard]] std::uint64_t duplicates_discarded() const;
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    return bytes_sent_;
  }

 private:
  /// rank `from`'s endpoint toward `to`, opening their pair if needed.
  [[nodiscard]] net::ReliableEndpoint& open(RankId from, RankId to);
  [[nodiscard]] std::unique_ptr<net::ReliableEndpoint> make_endpoint(
      RankId r, RankId q);

  sim::Simulation* sim_;
  net::Network* net_;
  net::ReliableConfig transport_;
  std::vector<vm::ExecutionContext*> ranks_;
  /// Each rank's host, read once at construction: a job may outlive its
  /// guests' contexts (fleet tears the VMs down first).
  std::vector<net::HostId> hosts_;
  /// Each rank's host-state subscription, unsubscribed on destruction.
  std::vector<std::uint64_t> observer_tokens_;
  /// endpoints_[from][to]; nullptr on the diagonal and for unopened pairs.
  std::vector<std::vector<std::unique_ptr<net::ReliableEndpoint>>> endpoints_;
  std::uint32_t epoch_ = 0;  ///< of the last restore; new pairs start here
  std::vector<RankHandler> handlers_;
  FailureHandler on_failure_;
  bool failed_ = false;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace dvc::app
