#include "app/workload.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dvc::app {

WorkloadSpec make_hpl(std::uint64_t n, RankId ranks,
                      std::uint32_t iterations) {
  WorkloadSpec s;
  s.name = "hpl-n" + std::to_string(n);
  s.ranks = ranks;
  s.iterations = iterations;
  const double total_flops =
      (2.0 / 3.0) * static_cast<double>(n) * static_cast<double>(n) *
      static_cast<double>(n);
  s.flops_per_rank_iter = total_flops / (ranks * iterations);
  s.pattern = Pattern::kBroadcast;
  const std::uint64_t nb = std::max<std::uint64_t>(n / iterations, 1);
  // Panel share broadcast to each peer: N x NB doubles spread over ranks.
  s.bytes_per_msg = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(n * nb * 8 / ranks, 0xffffffffull));
  s.working_set_bytes_per_rank = n * n * 8 / ranks;
  s.supports_app_checkpoint = true;  // HPL can dump its matrix share
  return s;
}

WorkloadSpec make_ptrans(std::uint64_t n, RankId ranks,
                         std::uint32_t iterations) {
  WorkloadSpec s;
  s.name = "ptrans-n" + std::to_string(n);
  s.ranks = ranks;
  s.iterations = iterations;
  // Transpose is copy-bound: ~2 ops per element of the local block.
  s.flops_per_rank_iter =
      2.0 * static_cast<double>(n) * static_cast<double>(n) / ranks;
  s.pattern = Pattern::kAllToAll;
  s.bytes_per_msg = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      n * n * 8 / (static_cast<std::uint64_t>(ranks) * ranks),
      0xffffffffull));
  s.working_set_bytes_per_rank = 2 * n * n * 8 / ranks;  // A and A^T blocks
  s.supports_app_checkpoint = false;
  return s;
}

WorkloadSpec make_sequential(double total_flops, std::uint32_t iterations) {
  WorkloadSpec s;
  s.name = "sequential";
  s.ranks = 1;
  s.iterations = iterations;
  s.flops_per_rank_iter = total_flops / iterations;
  s.pattern = Pattern::kNone;
  s.working_set_bytes_per_rank = 256ull << 20;
  s.supports_app_checkpoint = false;
  return s;
}

RankId tree_parent(RankId rank, RankId root, RankId ranks) {
  const RankId v = (rank + ranks - root) % ranks;  // relabel: root -> 0
  if (v == 0) return rank;                         // the root has no parent
  return ((v - detail::lowbit(v)) + root) % ranks;
}

std::vector<RankId> tree_children(RankId rank, RankId root, RankId ranks) {
  std::vector<RankId> out;
  for_each_tree_child(rank, root, ranks,
                      [&out](RankId child) { out.push_back(child); });
  return out;
}

// ---------------------------------------------------------------------------
// Rank

Rank::Rank(ParallelApp& app, RankId id) : app_(&app), id_(id) {}

void Rank::start() {
  started_wall_ = app_->contexts_[id_]->wall_now();
  register_guest_process();
  const double flops = app_->spec_.flops_per_rank_iter;
  begin_compute(sim::from_seconds(flops / app_->contexts_[id_]->flops()));
}

void Rank::register_guest_process() {
  // When running inside a VM, show up in the guest's process table with
  // the resources §2's checkpoint accounting cares about: the working set
  // on the heap, an input file, and a TCP socket per peer.
  auto* machine = dynamic_cast<vm::VirtualMachine*>(app_->contexts_[id_]);
  if (machine == nullptr || guest_pid_ != vm::kInvalidPid) return;
  vm::GuestOs& os = machine->os();
  guest_pid_ = os.spawn(app_->spec_.name + "/rank" + std::to_string(id_));
  os.set_heap(guest_pid_, app_->spec_.working_set_bytes_per_rank);
  os.open_file(guest_pid_, "/data/" + app_->spec_.name + ".in",
               8ull << 20);
  for (RankId q = 0; q < app_->spec_.ranks; ++q) {
    if (q == id_) continue;
    os.open_socket(guest_pid_, q, 256ull << 10, 256ull << 10);
  }
}

void Rank::begin_compute(sim::Duration d) {
  st_.phase = RankState::Phase::kCompute;
  st_.compute_remaining = d;
  const auto done = [this, d] { on_compute_done(d); };
  static_assert(sim::Callback::stores_inline<decltype(done)>);
  compute_timer_ = app_->contexts_[id_]->schedule(d, done);
}

void Rank::on_compute_done(sim::Duration d) {
  compute_timer_ = vm::kInvalidGuestTimer;
  compute_done_s_ += sim::to_seconds(d);
  enter_comm();
}

void Rank::enter_comm() {
  st_.phase = RankState::Phase::kComm;
  send_pattern_messages();
  check_comm_done();
}

void Rank::send_pattern_messages() {
  const WorkloadSpec& spec = app_->spec_;
  const RankId p = spec.ranks;
  const std::uint32_t tag = st_.iter;
  switch (spec.pattern) {
    case Pattern::kNone:
      break;
    case Pattern::kRing:
      if (p > 1) {
        app_->job_.send(id_, (id_ + 1) % p, spec.bytes_per_msg, tag);
      }
      break;
    case Pattern::kBroadcast: {
      const RankId root = st_.iter % p;
      if (id_ == root) {
        for (RankId q = 0; q < p; ++q) {
          if (q != id_) app_->job_.send(id_, q, spec.bytes_per_msg, tag);
        }
      }
      break;
    }
    case Pattern::kTreeBroadcast:
      // The root injects its panel into the binomial tree; everyone else
      // relays on receipt (see forward_tree_panel).
      if (id_ == st_.iter % p) forward_tree_panel(tag);
      break;
    case Pattern::kAllToAll:
      for (RankId q = 0; q < p; ++q) {
        if (q != id_) app_->job_.send(id_, q, spec.bytes_per_msg, tag);
      }
      break;
  }
}

std::uint32_t Rank::expected_recvs() const {
  const WorkloadSpec& spec = app_->spec_;
  const RankId p = spec.ranks;
  switch (spec.pattern) {
    case Pattern::kNone:
      return 0;
    case Pattern::kRing:
      return p > 1 ? 1 : 0;
    case Pattern::kBroadcast:
    case Pattern::kTreeBroadcast:
      return (st_.iter % p) == id_ ? 0 : 1;
    case Pattern::kAllToAll:
      return p - 1;
  }
  return 0;
}

void Rank::forward_tree_panel(std::uint32_t tag) {
  const auto at = std::ranges::lower_bound(st_.forwarded, tag);
  if (at != st_.forwarded.end() && *at == tag) return;  // already relayed
  st_.forwarded.insert(at, tag);
  const RankId p = app_->spec_.ranks;
  for_each_tree_child(id_, tag % p, p, [&](RankId child) {
    app_->job_.send(id_, child, app_->spec_.bytes_per_msg, tag);
  });
}

void Rank::on_message(const net::Message& m) {
  // A tree-broadcast panel is relayed onward the moment it arrives, even
  // if this rank is still busy with an earlier iteration.
  if (app_->spec_.pattern == Pattern::kTreeBroadcast) {
    forward_tree_panel(m.tag);
  }
  auto& counts = st_.recv_count;
  auto at =
      std::ranges::lower_bound(counts, m.tag, {}, &RankState::TagCount::tag);
  if (at == counts.end() || at->tag != m.tag) {
    at = counts.insert(at, RankState::TagCount{m.tag, 0});
  }
  ++at->count;
  if (st_.phase == RankState::Phase::kComm && m.tag == st_.iter) {
    check_comm_done();
  }
}

void Rank::check_comm_done() {
  if (st_.phase != RankState::Phase::kComm) return;
  const auto& counts = st_.recv_count;
  const auto at =
      std::ranges::lower_bound(counts, st_.iter, {}, &RankState::TagCount::tag);
  const std::uint32_t got =
      at != counts.end() && at->tag == st_.iter ? at->count : 0;
  if (got >= expected_recvs()) advance_iteration();
}

void Rank::advance_iteration() {
  // Prune arrival counters at and below the completed iteration; later
  // iterations' early arrivals stay buffered.
  st_.recv_count.erase(
      st_.recv_count.begin(),
      std::ranges::upper_bound(st_.recv_count, st_.iter, {},
                               &RankState::TagCount::tag));
  st_.forwarded.erase(st_.forwarded.begin(),
                      std::ranges::upper_bound(st_.forwarded, st_.iter));
  ++st_.iter;
  if (st_.iter >= app_->spec_.iterations) {
    finish();
    return;
  }
  if (app_->quiescing_) {
    // A CoCheck-style checkpoint library parked us at the iteration
    // boundary; release_quiesce() resumes from here.
    held_ = true;
    app_->note_rank_held();
    return;
  }
  const double flops = app_->spec_.flops_per_rank_iter;
  begin_compute(sim::from_seconds(flops / app_->contexts_[id_]->flops()));
}

void Rank::resume_from_hold() {
  if (!held_) return;
  held_ = false;
  const double flops = app_->spec_.flops_per_rank_iter;
  begin_compute(sim::from_seconds(flops / app_->contexts_[id_]->flops()));
}

void Rank::finish() {
  st_.phase = RankState::Phase::kDone;
  finished_wall_ = app_->contexts_[id_]->wall_now();
  app_->notify_rank_done();
}

std::any Rank::snapshot_state() const {
  RankSnapshot snap;
  snap.state = st_;
  if (st_.phase == RankState::Phase::kCompute &&
      compute_timer_ != vm::kInvalidGuestTimer) {
    snap.state.compute_remaining =
        app_->contexts_[id_]->remaining(compute_timer_);
  }
  snap.transport = app_->job_.snapshot_transport(id_);
  return snap;
}

void Rank::restore_state(const std::any& state) {
  const auto* snap = std::any_cast<RankSnapshot>(&state);
  if (snap == nullptr) {
    throw std::invalid_argument("rank restore: wrong snapshot type");
  }
  // Any timer from the dead incarnation is gone (the VM dropped them).
  compute_timer_ = vm::kInvalidGuestTimer;
  st_ = snap->state;
  app_->job_.restore_transport(id_, snap->transport,
                               app_->rollback_epoch());
  switch (st_.phase) {
    case RankState::Phase::kCompute:
      begin_compute(st_.compute_remaining);
      break;
    case RankState::Phase::kComm:
      // In-flight messages will be retransmitted by restored peers; if the
      // counts were already satisfied at the cut, advance immediately.
      check_comm_done();
      break;
    case RankState::Phase::kDone:
      break;
  }
}

void Rank::on_killed() {
  compute_timer_ = vm::kInvalidGuestTimer;  // the VM dropped all timers
}

// ---------------------------------------------------------------------------
// ParallelApp

ParallelApp::ParallelApp(sim::Simulation& sim, net::Network& net,
                         std::vector<vm::ExecutionContext*> contexts,
                         WorkloadSpec spec, net::ReliableConfig transport)
    : sim_(&sim),
      spec_(std::move(spec)),
      contexts_(std::move(contexts)),
      job_(sim, net, contexts_, *this, transport) {
  if (contexts_.size() != spec_.ranks) {
    throw std::invalid_argument("context count != rank count");
  }
  ranks_.reserve(spec_.ranks);
  for (RankId r = 0; r < spec_.ranks; ++r) {
    ranks_.push_back(std::make_unique<Rank>(*this, r));
  }
}

void ParallelApp::on_message(RankId to, RankId /*from*/,
                             const net::Message& m) {
  ranks_[to]->on_message(m);
}

void ParallelApp::start() {
  started_sim_ = sim_->now();
  for (auto& r : ranks_) r->start();
}

std::uint32_t ParallelApp::begin_rollback() {
  ++rollback_epoch_;
  failed_ = false;
  job_.mark_recovered();
  return rollback_epoch_;
}

void ParallelApp::request_quiesce(std::function<void()> on_all_held) {
  quiescing_ = true;
  on_all_held_ = std::move(on_all_held);
  note_rank_held();  // maybe everyone is already parked or finished
}

void ParallelApp::release_quiesce() {
  quiescing_ = false;
  on_all_held_ = {};
  for (auto& r : ranks_) r->resume_from_hold();
}

void ParallelApp::note_rank_held() {
  if (!quiescing_ || !on_all_held_) return;
  for (const auto& r : ranks_) {
    if (!r->done() && !r->held()) return;
  }
  const auto fn = std::move(on_all_held_);
  on_all_held_ = {};
  if (fn) fn();
}

void ParallelApp::notify_rank_done() {
  note_rank_held();  // a finishing rank may complete the quiesce set
  // Recomputed from scratch so that rollbacks which undo a rank's "done"
  // status cannot leave a stale count behind.
  if (completed_) return;
  for (const auto& r : ranks_) {
    if (!r->done()) return;
  }
  completed_ = true;
  finished_sim_ = sim_->now();
  if (on_complete_) on_complete_();
}

void ParallelApp::on_abort(RankId rank, std::string_view why) {
  if (completed_) return;
  failed_ = true;
  if (on_failure_) {
    on_failure_("rank " + std::to_string(rank) + ": " + std::string(why));
  }
}

void ParallelApp::mark_failed(std::string why) {
  if (completed_ || failed_) return;
  failed_ = true;
  if (on_failure_) on_failure_(std::move(why));
}

JobStats ParallelApp::stats() const {
  JobStats s;
  s.makespan_s = sim::to_seconds(finished_sim_ - started_sim_);
  for (const auto& r : ranks_) {
    s.reported_elapsed_s =
        std::max(s.reported_elapsed_s,
                 sim::to_seconds(r->finished_wall() - r->started_wall()));
    s.compute_done_s = std::max(s.compute_done_s, r->compute_done_seconds());
  }
  if (s.reported_elapsed_s > 0.0) {
    s.reported_gflops = spec_.total_flops() / s.reported_elapsed_s / 1e9;
  }
  s.messages = job_.messages_sent();
  s.retransmissions = job_.retransmissions();
  s.duplicates = job_.duplicates_discarded();
  return s;
}

}  // namespace dvc::app
