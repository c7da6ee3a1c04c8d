#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "net/network.hpp"
#include "sim/simulation.hpp"

namespace dvc::net {

/// An application message carried by a reliable channel.
struct Message {
  std::uint64_t id = 0;      ///< unique per sending endpoint
  std::uint32_t bytes = 0;   ///< payload size (metadata only)
  std::uint32_t tag = 0;     ///< application tag (MPI-style)
};

/// Frozen image of one endpoint's transport state, captured while the host
/// is paused. Restoring it reproduces the guest's TCP stack exactly as it
/// was at the cut: unACKed messages will be retransmitted, duplicates will
/// be re-ACKed but not redelivered — the paper's §3 scenarios.
struct TransportSnapshot {
  std::uint64_t next_seq = 0;
  std::uint64_t acked = 0;
  std::map<std::uint64_t, std::pair<std::uint32_t, std::uint32_t>>
      unacked;  ///< seq -> (bytes, tag)
  std::uint64_t expected = 0;
  std::map<std::uint64_t, std::pair<std::uint32_t, std::uint32_t>>
      reorder;  ///< seq -> (bytes, tag)

  friend bool operator==(const TransportSnapshot&,
                         const TransportSnapshot&) = default;
};

/// Retransmission policy of the TCP-like transport. The total retry budget
/// (sum of backed-off RTOs) is the hard deadline LSC must beat: a peer that
/// stays frozen longer than the budget causes a connection abort, i.e. an
/// application crash.
struct ReliableConfig {
  /// Ceiling of the backed-off retransmission timeout.
  static constexpr sim::Duration kMaxRto = 60 * sim::kSecond;

  sim::Duration initial_rto = 200 * sim::kMillisecond;
  double backoff = 2.0;
  int max_retries = 6;

  /// Total time a sender will keep retrying before aborting, assuming the
  /// peer never answers: sum of the backed-off RTO schedule.
  [[nodiscard]] sim::Duration retry_budget() const noexcept {
    sim::Duration total = 0;
    double rto = static_cast<double>(initial_rto);
    for (int i = 0; i < max_retries; ++i) {
      total += static_cast<sim::Duration>(rto);
      rto = std::min(rto * backoff, static_cast<double>(kMaxRto));
    }
    return total + static_cast<sim::Duration>(rto);
  }
};

class ReliableEndpoint;

/// The owner of reliable endpoints: hears each message an endpoint
/// delivers, in order and exactly once, and the endpoint's abort, once,
/// when its retry budget runs out. Installed with set_sink(), not owned.
class MessageSink {
 public:
  virtual ~MessageSink() = default;
  virtual void on_message(const ReliableEndpoint& ep, const Message& m) = 0;
  virtual void on_abort(const ReliableEndpoint& ep, std::string_view why) = 0;
};

/// One side of a full-duplex reliable connection (sequence numbers,
/// cumulative ACKs, retransmission with exponential backoff, bounded
/// retries, in-order exactly-once delivery with reordering buffer).
///
/// Semantics needed by the paper's §3 argument, all implemented here:
///  * data arriving at a frozen host is dropped and never ACKed, so the
///    sender retransmits after restore (scenario 1);
///  * an ACK lost on the wire causes a duplicate retransmission after
///    restore, which the receiver re-ACKs without redelivering (scenario 2);
///  * a frozen *sender's* retry clock does not advance (its timers are part
///    of the saved guest), so symmetric checkpoints are always safe;
///  * a sender left running against a frozen peer aborts once the retry
///    budget is exhausted — the failure mode of skewed checkpoints.
///
/// The endpoint is the sink bound at its local address, so the network
/// calls it for its packets and for its host's thaw (on_host_up). It hands
/// what it delivers, and its abort, to one MessageSink (set_sink), with
/// itself as the first argument: an owner of many endpoints tells them
/// apart by their addresses.
class ReliableEndpoint final : public PacketSink {
 public:
  enum class State : std::uint8_t { kOpen, kFailed };

  ReliableEndpoint(sim::Simulation& sim, Network& net, Address local,
                   Address peer, ReliableConfig cfg = {});
  ~ReliableEndpoint() override;

  ReliableEndpoint(const ReliableEndpoint&) = delete;
  ReliableEndpoint& operator=(const ReliableEndpoint&) = delete;

  /// Where delivered messages and the abort go (null: nowhere).
  void set_sink(MessageSink* sink) noexcept { sink_ = sink; }

  /// Queues a message for reliable in-order delivery to the peer.
  /// Returns the message id. No-op (returns 0) after failure.
  std::uint64_t send(std::uint32_t bytes, std::uint32_t tag = 0);

  [[nodiscard]] const Address& local() const noexcept { return local_; }
  [[nodiscard]] const Address& peer() const noexcept { return peer_; }
  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] bool failed() const noexcept {
    return state_ == State::kFailed;
  }
  [[nodiscard]] std::size_t unacked() const noexcept {
    return unacked_.size() - unacked_head_;
  }
  [[nodiscard]] std::uint64_t messages_sent() const noexcept {
    return next_seq_;
  }
  [[nodiscard]] std::uint64_t messages_delivered() const noexcept {
    return delivered_count_;
  }
  [[nodiscard]] std::uint64_t retransmissions() const noexcept {
    return retransmissions_;
  }
  [[nodiscard]] std::uint64_t duplicates_discarded() const noexcept {
    return duplicates_;
  }
  /// Data segments that went through the reorder buffer: they arrived out
  /// of order, or while out-of-order ones were waiting. Every other new
  /// segment was handed straight to the sink.
  [[nodiscard]] std::uint64_t buffered() const noexcept {
    return buffered_;
  }

  void on_packet(const Packet& p) override;

  /// The local host thawed: a timer parked while it was frozen goes off
  /// shortly after.
  void on_host_up() override;

  /// Captures transport state (call while the host is paused: that is when
  /// the hypervisor images the guest).
  [[nodiscard]] TransportSnapshot snapshot() const;

  /// Rolls transport state back to a snapshot (whole-VC restore from a
  /// checkpoint). Re-opens a failed endpoint: the restored guest's TCP
  /// stack never saw the abort. `epoch` must be the same on both sides of
  /// the connection and strictly greater than any previous incarnation, so
  /// in-flight packets from before the rollback are discarded on arrival.
  /// Throws std::invalid_argument, leaving the endpoint untouched, unless
  /// the snapshot's unacked seqs are the contiguous run ending at
  /// next_seq - 1, as snapshot() always produces.
  void restore(const TransportSnapshot& snap, std::uint32_t epoch);

  [[nodiscard]] std::uint32_t epoch() const noexcept { return epoch_; }

 private:
  struct Pending {
    std::uint32_t bytes;
    std::uint32_t tag;
  };

  /// Sequence number of unacked_[unacked_head_].
  [[nodiscard]] std::uint64_t first_unacked() const noexcept {
    return next_seq_ - unacked();
  }
  /// Retires the `n` oldest unacknowledged messages.
  void drop_acked(std::size_t n);
  void transmit(std::uint64_t seq, const Pending& m);
  void send_ack();
  void on_timer();
  void fail(std::string_view reason);

  Network* net_;
  Address local_;
  Address peer_;
  ReliableConfig cfg_;
  State state_ = State::kOpen;

  // Sender state.
  std::uint64_t next_seq_ = 0;          ///< next sequence number to assign
  std::uint64_t acked_ = 0;             ///< peer has everything below this
  /// Unacknowledged messages, oldest first, from unacked_head_ on. Sends
  /// append and ACKs advance the head, so the seqs are always the
  /// contiguous run ending at next_seq_: [first_unacked(), next_seq_).
  /// That run starts at acked_ except after a rollback past an orphan
  /// message, when the restored peer may ACK seqs this side has not
  /// re-sent yet. The retired prefix is cut off once it is as long as
  /// the rest, so the vector keeps its capacity and a steady send/ACK
  /// stream does not allocate.
  std::vector<Pending> unacked_;
  std::size_t unacked_head_ = 0;
  int retries_ = 0;
  sim::Duration rto_ = 0;
  sim::Timer timer_;  ///< retransmission timer; calls on_timer()
  bool parked_ = false;  ///< timer suppressed because our host is frozen
  std::uint32_t epoch_ = 0;

  // Receiver state.
  std::uint64_t expected_ = 0;          ///< next in-order sequence expected
  std::map<std::uint64_t, Pending> reorder_;
  std::uint64_t delivered_count_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t buffered_ = 0;
  std::uint64_t retransmissions_ = 0;

  MessageSink* sink_ = nullptr;
};

/// A full-duplex reliable connection between two addresses: the two
/// endpoints with symmetric configuration.
class ReliableConnection final {
 public:
  ReliableConnection(sim::Simulation& sim, Network& net, Address a,
                     Address b, ReliableConfig cfg = {});

  ReliableConnection(const ReliableConnection&) = delete;
  ReliableConnection& operator=(const ReliableConnection&) = delete;

  [[nodiscard]] ReliableEndpoint& end_a() noexcept { return a_; }
  [[nodiscard]] ReliableEndpoint& end_b() noexcept { return b_; }

  [[nodiscard]] bool failed() const noexcept {
    return a_.failed() || b_.failed();
  }

 private:
  ReliableEndpoint a_;
  ReliableEndpoint b_;
};

}  // namespace dvc::net
