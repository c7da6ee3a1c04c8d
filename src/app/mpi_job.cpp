#include "app/mpi_job.hpp"

#include <stdexcept>
#include <utility>

namespace dvc::app {

namespace {
/// Port scheme: the endpoint on rank r talking to peer q binds port q.
constexpr std::uint16_t port_for_peer(RankId peer) {
  return static_cast<std::uint16_t>(peer);
}
/// The inverse: the rank an endpoint's port names. An endpoint's own port
/// is its peer's rank, its peer's port its own rank.
constexpr RankId rank_at(const net::Address& a) { return a.port; }

/// The transport state of an endpoint that has never carried traffic.
const net::TransportSnapshot kUnused{};
}  // namespace

MpiJob::MpiJob(sim::Simulation& sim, net::Network& net,
               const std::vector<vm::ExecutionContext*>& ranks,
               Receiver& receiver, net::ReliableConfig transport)
    : sim_(&sim),
      net_(&net),
      transport_(transport),
      endpoints_(ranks.size()),
      receiver_(&receiver) {
  hosts_.reserve(ranks.size());
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    endpoints_[r].resize(ranks.size());
    hosts_.push_back(ranks[r]->host());
  }
}

void MpiJob::on_message(const net::ReliableEndpoint& ep,
                        const net::Message& m) {
  receiver_->on_message(rank_at(ep.peer()), rank_at(ep.local()), m);
}

void MpiJob::on_abort(const net::ReliableEndpoint& ep, std::string_view why) {
  if (failed_) return;
  failed_ = true;
  receiver_->on_abort(rank_at(ep.peer()), why);
}

std::unique_ptr<net::ReliableEndpoint> MpiJob::make_endpoint(RankId r,
                                                             RankId q) {
  const net::Address local{hosts_[r], port_for_peer(q)};
  const net::Address peer{hosts_[q], port_for_peer(r)};
  auto ep = std::make_unique<net::ReliableEndpoint>(*sim_, *net_, local, peer,
                                                    transport_);
  ep->set_sink(this);
  // After a rollback, a never-used endpoint is one restored from the empty
  // snapshot at the job's epoch.
  ep->restore(kUnused, epoch_);
  return ep;
}

net::ReliableEndpoint& MpiJob::open(RankId from, RankId to) {
  auto& ep = endpoints_.at(from).at(to);
  if (!ep) {
    if (from == to) throw std::invalid_argument("no self-connection");
    ep = make_endpoint(from, to);
    endpoints_[to][from] = make_endpoint(to, from);
  }
  return *ep;
}

bool MpiJob::send(RankId from, RankId to, std::uint32_t bytes,
                  std::uint32_t tag) {
  if (failed_) return false;
  bytes_sent_ += bytes;
  return open(from, to).send(bytes, tag) != 0;
}

RankTransportSnapshot MpiJob::snapshot_transport(RankId rank) const {
  RankTransportSnapshot snap;
  const auto& row = endpoints_.at(rank);
  for (RankId q = 0; q < size(); ++q) {
    if (!row[q]) continue;
    net::TransportSnapshot s = row[q]->snapshot();
    if (s != kUnused) {
      snap.to_peer.emplace_hint(snap.to_peer.end(), q, std::move(s));
    }
  }
  return snap;
}

void MpiJob::restore_transport(RankId rank,
                               const RankTransportSnapshot& snap,
                               std::uint32_t epoch) {
  epoch_ = epoch;
  // Every open peer, in id order: one the snapshot omits was never used
  // before the cut, and restoring it from the empty snapshot resets any
  // use since (same cancels, no timer armed).
  auto& row = endpoints_.at(rank);
  auto s = snap.to_peer.begin();
  for (RankId q = 0; q < size(); ++q) {
    if (q == rank) continue;
    if (s != snap.to_peer.end() && s->first == q) {
      open(rank, q).restore(s->second, epoch);
      ++s;
    } else if (row[q]) {
      row[q]->restore(kUnused, epoch);
    }
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
