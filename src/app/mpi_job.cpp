#include "app/mpi_job.hpp"

#include <stdexcept>
#include <utility>

namespace dvc::app {

namespace {
/// Port scheme: the endpoint on rank r talking to peer q binds port q.
constexpr std::uint16_t port_for_peer(RankId peer) {
  return static_cast<std::uint16_t>(peer);
}
}  // namespace

MpiJob::MpiJob(sim::Simulation& sim, net::Network& net,
               std::vector<vm::ExecutionContext*> ranks,
               net::ReliableConfig transport)
    : ranks_(std::move(ranks)), handlers_(ranks_.size()) {
  const RankId p = size();
  endpoints_.resize(p);
  for (RankId r = 0; r < p; ++r) {
    endpoints_[r].resize(p);
    for (RankId q = 0; q < p; ++q) {
      if (q == r) continue;
      const net::Address local{ranks_[r]->host(), port_for_peer(q)};
      const net::Address peer{ranks_[q]->host(), port_for_peer(r)};
      auto ep = std::make_unique<net::ReliableEndpoint>(sim, net, local,
                                                        peer, transport);
      ep->set_delivery_handler([this, r, q](const net::Message& m) {
        if (handlers_[r]) handlers_[r](q, m);
      });
      ep->set_failure_handler([this, r](std::string_view why) {
        if (failed_) return;
        failed_ = true;
        if (on_failure_) on_failure_(r, std::string(why));
      });
      endpoints_[r][q] = std::move(ep);
    }
  }
}

void MpiJob::set_rank_handler(RankId rank, RankHandler h) {
  handlers_.at(rank) = std::move(h);
}

net::ReliableEndpoint& MpiJob::endpoint(RankId from, RankId to) {
  auto& ep = endpoints_.at(from).at(to);
  if (!ep) throw std::invalid_argument("no self-connection");
  return *ep;
}

const net::ReliableEndpoint& MpiJob::endpoint(RankId from, RankId to) const {
  const auto& ep = endpoints_.at(from).at(to);
  if (!ep) throw std::invalid_argument("no self-connection");
  return *ep;
}

bool MpiJob::send(RankId from, RankId to, std::uint32_t bytes,
                  std::uint32_t tag) {
  if (failed_) return false;
  bytes_sent_ += bytes;
  return endpoint(from, to).send(bytes, tag) != 0;
}

RankTransportSnapshot MpiJob::snapshot_transport(RankId rank) const {
  RankTransportSnapshot snap;
  for (RankId q = 0; q < size(); ++q) {
    if (q == rank) continue;
    net::TransportSnapshot s = endpoint(rank, q).snapshot();
    if (s != net::TransportSnapshot{}) {
      snap.to_peer.emplace_hint(snap.to_peer.end(), q, std::move(s));
    }
  }
  return snap;
}

void MpiJob::restore_transport(RankId rank,
                               const RankTransportSnapshot& snap,
                               std::uint32_t epoch) {
  // Every peer, in id order: one the snapshot omits was never used
  // before the cut, and restoring it from the empty snapshot resets any
  // use since (same cancels, no timer armed).
  static const net::TransportSnapshot kUnused{};
  auto s = snap.to_peer.begin();
  for (RankId q = 0; q < size(); ++q) {
    if (q == rank) continue;
    const bool present = s != snap.to_peer.end() && s->first == q;
    endpoint(rank, q).restore(present ? s->second : kUnused, epoch);
    if (present) ++s;
  }
}

bool MpiJob::drained() const {
  for (const auto& row : endpoints_) {
    for (const auto& ep : row) {
      if (ep && ep->unacked() != 0) return false;
    }
  }
  return true;
}

std::uint64_t MpiJob::messages_sent() const {
  std::uint64_t n = 0;
  for (const auto& row : endpoints_) {
    for (const auto& ep : row) {
      if (ep) n += ep->messages_sent();
    }
  }
  return n;
}

std::uint64_t MpiJob::messages_delivered() const {
  std::uint64_t n = 0;
  for (const auto& row : endpoints_) {
    for (const auto& ep : row) {
      if (ep) n += ep->messages_delivered();
    }
  }
  return n;
}

std::uint64_t MpiJob::retransmissions() const {
  std::uint64_t n = 0;
  for (const auto& row : endpoints_) {
    for (const auto& ep : row) {
      if (ep) n += ep->retransmissions();
    }
  }
  return n;
}

std::uint64_t MpiJob::duplicates_discarded() const {
  std::uint64_t n = 0;
  for (const auto& row : endpoints_) {
    for (const auto& ep : row) {
      if (ep) n += ep->duplicates_discarded();
    }
  }
  return n;
}

}  // namespace dvc::app
