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

/// The message-passing fabric of one parallel job: a full mesh of reliable
/// connections between ranks. This plays the role of the MPI library + TCP
/// stacks inside the guests: co-dependent processes where losing any single
/// connection kills the whole application (paper §2.1).
class MpiJob final {
 public:
  /// (from, message) delivered in order per (from -> to) pair.
  using RankHandler = std::function<void(RankId from, const net::Message&)>;
  /// Fired once, on the first transport abort anywhere in the job.
  using FailureHandler = std::function<void(RankId rank, std::string why)>;

  MpiJob(sim::Simulation& sim, net::Network& net,
         std::vector<vm::ExecutionContext*> ranks,
         net::ReliableConfig transport = {});

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

  /// Sends `bytes` from rank `from` to rank `to` with an application tag.
  /// Reliable, in-order per pair. Returns false if the mesh has failed.
  bool send(RankId from, RankId to, std::uint32_t bytes, std::uint32_t tag);

  /// True once any connection in the mesh has aborted.
  [[nodiscard]] bool failed() const noexcept { return failed_; }

  /// Captures one rank's transport state (call while its guest is paused).
  [[nodiscard]] RankTransportSnapshot snapshot_transport(RankId rank) const;

  /// Rolls one rank's transport back (whole-VC restore): every endpoint
  /// of the rank, the ones the snapshot omits included. All ranks of a job
  /// must be restored with the same epoch before any of them runs again.
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
  [[nodiscard]] net::ReliableEndpoint& endpoint(RankId from, RankId to);
  [[nodiscard]] const net::ReliableEndpoint& endpoint(RankId from,
                                                      RankId to) const;

  std::vector<vm::ExecutionContext*> ranks_;
  /// endpoints_[from][to], nullptr on the diagonal.
  std::vector<std::vector<std::unique_ptr<net::ReliableEndpoint>>> endpoints_;
  std::vector<RankHandler> handlers_;
  FailureHandler on_failure_;
  bool failed_ = false;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace dvc::app
