#include "net/reliable_channel.hpp"

#include <algorithm>
#include <stdexcept>

namespace dvc::net {

namespace {
constexpr std::uint32_t kAckBytes = 40;  // header-only wire size
constexpr std::uint32_t kHeaderBytes = 40;
/// Delay between thaw (our host coming back up) and the resumed
/// retransmission timer firing — models the saved guest's nearly-expired
/// TCP timers going off shortly after restore.
constexpr sim::Duration kThawRetransmitDelay = 10 * sim::kMillisecond;
}  // namespace

ReliableEndpoint::ReliableEndpoint(sim::Simulation& sim, Network& net,
                                   Address local, Address peer,
                                   ReliableConfig cfg)
    : net_(&net),
      local_(local),
      peer_(peer),
      cfg_(cfg),
      rto_(cfg.initial_rto),
      timer_(sim, [this] { on_timer(); }) {
  net_->attach(local_, this);
}

ReliableEndpoint::~ReliableEndpoint() { net_->detach(local_); }

std::uint64_t ReliableEndpoint::send(std::uint32_t bytes, std::uint32_t tag) {
  if (state_ == State::kFailed) return 0;
  const std::uint64_t seq = next_seq_++;
  unacked_.push_back(Pending{bytes, tag});
  transmit(seq, unacked_.back());
  if (!timer_.armed()) timer_.arm_after(rto_);
  return seq + 1;  // 1-based message id so 0 can mean "not sent"
}

void ReliableEndpoint::drop_acked(std::size_t n) {
  unacked_head_ += n;
  if (unacked_head_ * 2 >= unacked_.size()) {
    unacked_.erase(unacked_.begin(),
                   unacked_.begin() +
                       static_cast<std::ptrdiff_t>(unacked_head_));
    unacked_head_ = 0;
  }
}

void ReliableEndpoint::transmit(std::uint64_t seq, const Pending& m) {
  Packet p;
  p.src = local_;
  p.dst = peer_;
  p.kind = Packet::Kind::kData;
  p.seq = seq;
  p.size_bytes = m.bytes + kHeaderBytes;
  p.msg_id = seq + 1;
  p.tag = m.tag;
  p.epoch = epoch_;
  net_->send(p);  // may be refused if we are frozen; the timer will retry
}

void ReliableEndpoint::send_ack() {
  Packet p;
  p.src = local_;
  p.dst = peer_;
  p.kind = Packet::Kind::kAck;
  p.ack = expected_;
  p.size_bytes = kAckBytes;
  p.epoch = epoch_;
  net_->send(p);
}

void ReliableEndpoint::on_host_up() {
  if (parked_ && state_ != State::kFailed) {
    // Thawed: the guest's nearly-expired retransmission timer goes off
    // shortly after restore and unACKed data flows again (paper §3:
    // "After a restart, the sender will send any unacked messages").
    parked_ = false;
    if (unacked() != 0 && !timer_.armed()) {
      timer_.arm_after(kThawRetransmitDelay);
    }
  }
}

void ReliableEndpoint::on_timer() {
  if (state_ == State::kFailed || unacked() == 0) return;

  if (!net_->host_up(local_.host)) {
    // We are frozen inside a saved guest: our timers are part of the saved
    // state and do not advance. Park until the host is thawed; no retries
    // are consumed while frozen.
    parked_ = true;
    telemetry::count(net_->metrics(), net_->endpoint_instruments().stalls);
    return;
  }

  if (retries_ >= cfg_.max_retries) {
    fail("retransmission limit exceeded (peer unreachable)");
    return;
  }
  ++retries_;
  ++retransmissions_;
  telemetry::count(net_->metrics(),
                   net_->endpoint_instruments().retransmissions);
  // Retransmit the oldest unacknowledged message, back off, re-arm.
  transmit(first_unacked(), unacked_[unacked_head_]);
  rto_ = std::min(
      static_cast<sim::Duration>(static_cast<double>(rto_) * cfg_.backoff),
      ReliableConfig::kMaxRto);
  timer_.arm_after(rto_);
}

void ReliableEndpoint::fail(std::string_view reason) {
  if (state_ == State::kFailed) return;
  state_ = State::kFailed;
  telemetry::count(net_->metrics(), net_->endpoint_instruments().aborts);
  timer_.disarm();
  if (sink_ != nullptr) sink_->on_abort(*this, reason);
}

TransportSnapshot ReliableEndpoint::snapshot() const {
  TransportSnapshot s;
  s.next_seq = next_seq_;
  s.acked = acked_;
  std::uint64_t seq = first_unacked();
  for (std::size_t i = unacked_head_; i < unacked_.size(); ++i) {
    const Pending& m = unacked_[i];
    s.unacked.emplace_hint(s.unacked.end(), seq++,
                           std::make_pair(m.bytes, m.tag));
  }
  s.expected = expected_;
  for (const auto& [seq, m] : reorder_) {
    s.reorder.emplace(seq, std::make_pair(m.bytes, m.tag));
  }
  return s;
}

void ReliableEndpoint::restore(const TransportSnapshot& snap,
                               std::uint32_t epoch) {
  // Map keys are distinct and ascending, so n keys running from
  // next_seq - n to next_seq - 1 are exactly that contiguous run.
  const std::size_t n = snap.unacked.size();
  if (n > 0 && (n > snap.next_seq ||
                snap.unacked.begin()->first != snap.next_seq - n ||
                snap.unacked.rbegin()->first != snap.next_seq - 1)) {
    throw std::invalid_argument(
        "TransportSnapshot: unacked seqs must be contiguous and end at "
        "next_seq - 1");
  }
  epoch_ = epoch;
  state_ = State::kOpen;
  next_seq_ = snap.next_seq;
  acked_ = snap.acked;
  unacked_.clear();
  unacked_head_ = 0;
  for (const auto& [seq, m] : snap.unacked) {
    unacked_.push_back(Pending{m.first, m.second});
  }
  expected_ = snap.expected;
  reorder_.clear();
  for (const auto& [seq, m] : snap.reorder) {
    reorder_.emplace(seq, Pending{m.first, m.second});
  }
  retries_ = 0;
  rto_ = cfg_.initial_rto;
  parked_ = false;
  if (unacked() != 0) {
    // The restored guest's pending retransmission fires shortly after thaw.
    timer_.arm_after(kThawRetransmitDelay);
  } else {
    timer_.disarm();
  }
}

void ReliableEndpoint::on_packet(const Packet& p) {
  if (state_ == State::kFailed) return;
  if (p.epoch != epoch_) return;  // stale incarnation (pre-rollback traffic)

  if (p.kind == Packet::Kind::kAck) {
    if (p.ack > acked_) {
      acked_ = p.ack;
      const std::uint64_t first = first_unacked();
      if (acked_ > first) {
        drop_acked(static_cast<std::size_t>(
            std::min<std::uint64_t>(acked_ - first, unacked())));
      }
      // Forward progress: reset the backoff schedule.
      retries_ = 0;
      rto_ = cfg_.initial_rto;
      if (unacked() != 0) {
        timer_.arm_after(rto_);
      } else {
        timer_.disarm();
      }
    }
    return;
  }

  if (p.kind != Packet::Kind::kData) return;

  if (p.seq < expected_) {
    // Duplicate of an already-delivered message (the peer never saw our
    // ACK, e.g. it was lost across a checkpoint cut). Re-ACK, do not
    // redeliver — paper §3 scenario 2.
    ++duplicates_;
    telemetry::count(net_->metrics(),
                     net_->endpoint_instruments().duplicates);
    send_ack();
    return;
  }

  const Pending arrived{p.size_bytes - kHeaderBytes, p.tag};
  if (p.seq == expected_ && reorder_.empty()) {
    // In order with nothing buffered: deliver without touching reorder_.
    ++expected_;
    ++delivered_count_;
    if (sink_ != nullptr) {
      sink_->on_message(*this, Message{p.seq + 1, arrived.bytes, arrived.tag});
    }
  } else if (reorder_.emplace(p.seq, arrived).second) {
    ++buffered_;
  }
  while (!reorder_.empty() && reorder_.begin()->first == expected_) {
    const Pending m = reorder_.begin()->second;
    const std::uint64_t seq = reorder_.begin()->first;
    reorder_.erase(reorder_.begin());
    ++expected_;
    ++delivered_count_;
    if (sink_ != nullptr) sink_->on_message(*this, {seq + 1, m.bytes, m.tag});
  }
  send_ack();
}

ReliableConnection::ReliableConnection(sim::Simulation& sim, Network& net,
                                       Address a, Address b,
                                       ReliableConfig cfg)
    : a_(sim, net, a, b, cfg), b_(sim, net, b, a, cfg) {}

}  // namespace dvc::net
