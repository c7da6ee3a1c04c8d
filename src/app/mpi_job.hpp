#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string_view>
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
/// the whole application (paper §2.1). Rank r's endpoint toward q binds
/// port q on r's host, so a thaw reaches a rank's endpoints in peer order
/// (Network::set_host_up walks a host's sinks by port).
class MpiJob final : private net::MessageSink {
 public:
  /// The application above the mesh.
  class Receiver {
   public:
    virtual ~Receiver() = default;
    /// A message from `from`, delivered in order per (from -> to) pair.
    virtual void on_message(RankId to, RankId from,
                            const net::Message& m) = 0;
    /// The first transport abort anywhere in the job; later ones are
    /// swallowed until mark_recovered().
    virtual void on_abort(RankId rank, std::string_view why) = 0;
  };

  /// `receiver` must outlive the job. Endpoints detach on destruction, so
  /// the job touches only the network then: the ranks' contexts may
  /// already be gone.
  MpiJob(sim::Simulation& sim, net::Network& net,
         const std::vector<vm::ExecutionContext*>& ranks,
         Receiver& receiver, net::ReliableConfig transport = {});

  MpiJob(const MpiJob&) = delete;
  MpiJob& operator=(const MpiJob&) = delete;

  [[nodiscard]] RankId size() const noexcept {
    return static_cast<RankId>(hosts_.size());
  }

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
  // MessageSink: recovers the endpoint's (rank, peer) from its ports.
  void on_message(const net::ReliableEndpoint& ep,
                  const net::Message& m) override;
  void on_abort(const net::ReliableEndpoint& ep,
                std::string_view why) override;

  /// rank `from`'s endpoint toward `to`, opening their pair if needed.
  [[nodiscard]] net::ReliableEndpoint& open(RankId from, RankId to);
  [[nodiscard]] std::unique_ptr<net::ReliableEndpoint> make_endpoint(
      RankId r, RankId q);

  sim::Simulation* sim_;
  net::Network* net_;
  net::ReliableConfig transport_;
  /// Each rank's host, read once at construction: a job may outlive its
  /// guests' contexts (fleet tears the VMs down first).
  std::vector<net::HostId> hosts_;
  /// endpoints_[from][to]; nullptr on the diagonal and for unopened pairs.
  std::vector<std::vector<std::unique_ptr<net::ReliableEndpoint>>> endpoints_;
  std::uint32_t epoch_ = 0;  ///< of the last restore; new pairs start here
  Receiver* receiver_;
  bool failed_ = false;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace dvc::app
