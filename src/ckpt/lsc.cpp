#include "ckpt/lsc.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace dvc::ckpt {

// ---------------------------------------------------------------------------
// RoundTracker

RoundTracker::RoundTracker(sim::Simulation& sim, LscCoordinator::OpRef op,
                           std::vector<SaveTarget> targets,
                           storage::ImageManager& images, std::string label,
                           int attempt_no, bool resume_after_save,
                           telemetry::MetricsRegistry* metrics,
                           LscInstruments& instruments)
    : sim_(&sim),
      op_(op),
      targets_(std::move(targets)),
      images_(&images),
      label_(std::move(label)),
      set_(images.open_set(label_, targets_.size(),
                           targets_.empty() ? storage::kUnfencedEpoch
                                            : targets_.front().epoch)),
      outstanding_(targets_.size()),
      resume_after_save_(resume_after_save),
      metrics_(metrics),
      instruments_(&instruments) {
  result_.set = set_;
  result_.attempts = attempt_no;
  result_.app_snapshots.resize(targets_.size());
  pauses_at_fire_.resize(targets_.size(), 0);
  round_span_ = telemetry::begin_span(metrics_, sim_->now(), "lsc", "round");
}

bool RoundTracker::fire(std::size_t i,
                        std::function<void(bool, std::any)> on_durable) {
  SaveTarget& t = targets_.at(i);
  pauses_at_fire_[i] = t.machine->pauses();
  // A set that never opened (the opening coordinator was already deposed
  // when this round was built) aborts the member without touching the
  // guest, so the round ends cleanly instead of wedging.
  if (set_ == storage::kInvalidCheckpointSet) return false;
  t.hypervisor->save_domain(*t.machine, *images_, set_, t.member,
                            std::move(on_durable), t.incremental, t.epoch);
  return true;
}

bool RoundTracker::on_member_durable(std::size_t i, bool ok,
                                     std::any state) {
  SaveTarget& t = targets_[i];
  if (ok) {
    const sim::Time paused_at = t.machine->last_pause_started();
    if (!saw_pause_) {
      first_pause_ = last_pause_ = paused_at;
      saw_pause_ = true;
    } else {
      first_pause_ = std::min(first_pause_, paused_at);
      last_pause_ = std::max(last_pause_, paused_at);
    }
    result_.app_snapshots[i] = std::move(state);
    if (resume_after_save_) {
      // Stop-and-copy: the guest thaws the moment its image is durable.
      t.hypervisor->resume_domain(*t.machine);
    }
    telemetry::count(metrics_, instruments_->members_saved);
  } else if (t.machine->pauses() > pauses_at_fire_[i]) {
    // The guest froze and then the save died (node failure mid-image):
    // work was genuinely disturbed.
    ++members_failed_;
    telemetry::count(metrics_, instruments_->members_failed);
    if (resume_after_save_) {
      // A failed save must not leave a live guest frozen forever:
      // resume_domain no-ops for dead nodes/domains, so this only thaws
      // members that survived whatever killed the save.
      t.hypervisor->resume_domain(*t.machine);
    }
  } else {
    // The save aborted before the guest ever paused; the member kept
    // running undisturbed. Conflating this with a failed save is what
    // made every injected fault look like lost work.
    ++members_aborted_;
    telemetry::count(metrics_, instruments_->members_aborted);
  }
  return --outstanding_ == 0;
}

LscResult RoundTracker::finish() {
  result_.ok = members_failed_ == 0 && members_aborted_ == 0;
  result_.members_failed = members_failed_;
  result_.members_aborted = members_aborted_;
  if (!result_.ok) {
    images_->abort_set(set_);
    // No durable member and no disturbed guest: the round was abandoned
    // before any freeze — harmless, like a health-check abort.
    result_.aborted_cleanly = members_failed_ == 0 && !saw_pause_;
  }
  if (saw_pause_) {
    result_.pause_skew = last_pause_ - first_pause_;
    result_.total_time = sim_->now() - first_pause_;
  }
  LscInstruments& in = *instruments_;
  telemetry::count(metrics_, result_.ok                ? in.rounds
                             : result_.aborted_cleanly ? in.rounds_aborted
                                                       : in.rounds_failed);
  if (saw_pause_ && metrics_ != nullptr) {
    telemetry::observe(metrics_, in.pause_skew_s,
                       sim::to_seconds(result_.pause_skew));
    telemetry::observe(metrics_, in.round_s,
                       sim::to_seconds(result_.total_time));
    // Retrospective span of the freeze window: the first guest froze at
    // first_pause_, the last at last_pause_ — the skew the transport must
    // mask (visible at a glance on the trace).
    const auto freeze =
        metrics_->begin_span(first_pause_, "lsc", "freeze_window");
    metrics_->end_span(freeze, last_pause_);
  }
  telemetry::end_span(metrics_, round_span_, sim_->now());
  // The snapshots move on to the caller: nothing reads result_ again.
  return std::move(result_);
}

void RoundTracker::abort() {
  images_->abort_set(set_);
  telemetry::end_span(metrics_, round_span_, sim_->now());
}

// ---------------------------------------------------------------------------
// LscCoordinator — the operation and live-round tables

LscCoordinator::~LscCoordinator() = default;

void LscCoordinator::checkpoint(std::string label,
                                std::vector<SaveTarget> targets,
                                storage::ImageManager& images,
                                std::function<void(LscResult)> done,
                                bool resume_after_save, Retarget retarget) {
  check_targets(targets);
  run_round(ops_.open(
      {.label = std::move(label), .targets = std::move(targets),
       .images = &images, .done = std::move(done),
       .retarget = std::move(retarget),
       .resume_after_save = resume_after_save, .backoff = retry_.backoff}));
}

void LscCoordinator::check_targets(
    const std::vector<SaveTarget>& targets) const {
  if (targets.empty()) throw std::invalid_argument("no targets");
}

LscCoordinator::Op* LscCoordinator::live_op(OpRef ref) {
  Op* op = ops_.find(ref.op);
  return op != nullptr && op->round_no == ref.round_no ? op : nullptr;
}

RoundTracker& LscCoordinator::open_round(const Op& op) {
  return rounds_.open(RoundTracker(*sim_, ref_of(op), op.targets, *op.images,
                                   op.label, op.attempt_no,
                                   op.resume_after_save, metrics_,
                                   instruments_));
}

void LscCoordinator::schedule_fire(sim::Time at, const RoundTracker& round,
                                   std::size_t i) {
  const MemberRef ref{round.id, static_cast<std::uint32_t>(i)};
  const auto fire = [this, ref] { fire_member(ref); };
  static_assert(sim::Simulation::stores_inline<decltype(fire)>);
  sim_->schedule_at(at, fire);
}

void LscCoordinator::fire_member(MemberRef ref) {
  RoundTracker* round = rounds_.find(ref.round);
  if (round == nullptr) return;
  const bool issued = round->fire(
      ref.member, [this, ref](bool ok, std::any state) {
        member_durable(ref, ok, std::move(state));
      });
  if (!issued) member_durable(ref, false, std::any{});
}

void LscCoordinator::abort(std::string_view label) {
  rounds_.erase_if([label](RoundTracker& r) {
    if (r.label() != label) return false;
    r.abort();
    return true;
  });
  ops_.erase_if([this, label](const Op& op) {
    if (op.label != label) return false;
    sim_->cancel(op.watchdog);
    return true;
  });
}

void LscCoordinator::member_durable(MemberRef ref, bool ok, std::any state) {
  RoundTracker* live = rounds_.find(ref.round);
  if (live == nullptr) return;
  if (!live->on_member_durable(ref.member, ok, std::move(state))) return;
  // The last member reported. The round leaves the table before it
  // reports, so its op's continuation may open the next one.
  std::optional<RoundTracker> round = rounds_.take(ref.round);
  concluded(round->op(), round->finish());
}

// ---------------------------------------------------------------------------
// LscCoordinator — retry/timeout orchestration shared by every trigger

void LscCoordinator::run_round(Op& op) {
  op.attempt_no = 1;
  if (retry_.round_timeout > 0) {
    const auto expire = [this, r = ref_of(op)] { watchdog_expired(r); };
    static_assert(sim::Simulation::stores_inline<decltype(expire)>);
    op.watchdog = sim_->schedule_after(retry_.round_timeout, expire);
  }
  start_round(op);
}

void LscCoordinator::watchdog_expired(OpRef ref) {
  if (live_op(ref) == nullptr) return;
  telemetry::count(metrics_, instruments_.round_timeouts);
  telemetry::instant(metrics_, sim_->now(), "lsc", "round_timeout");
  LscResult r;
  r.timed_out = true;
  concluded(ref, std::move(r));
}

void LscCoordinator::concluded(OpRef ref, LscResult r) {
  Op* op = live_op(ref);
  if (op == nullptr) {
    // The watchdog already abandoned this round; the stragglers' real
    // completion arrives here and must not reach the caller twice.
    telemetry::count(metrics_, instruments_.late_completions);
    return;
  }
  sim_->cancel(op->watchdog);  // a no-op once it has fired
  r.retries = ref.round_no;
  if (!r.ok && op->round_no < retry_.max_round_retries) {
    telemetry::count(metrics_, instruments_.round_retries);
    telemetry::instant(metrics_, sim_->now(), "lsc", "round_retry");
    ++op->round_no;
    const auto retry = [this, next = ref_of(*op)] { retry_round(next); };
    static_assert(sim::Simulation::stores_inline<decltype(retry)>);
    sim_->schedule_after(op->backoff, retry);
    constexpr double kBackoffFactor = 2.0;
    op->backoff = static_cast<sim::Duration>(
        static_cast<double>(op->backoff) * kBackoffFactor);
    return;
  }
  report(*op, std::move(r));
}

void LscCoordinator::retry_round(OpRef ref) {
  Op* op = live_op(ref);
  if (op == nullptr) return;  // abort() ended it during the backoff
  // Re-resolve targets at fire time: the failure that sank the last round
  // may have triggered a recovery that moved members to new nodes, and
  // pausing a stale mapping freezes the survivors while the relocated
  // member runs on — an asymmetry the app's transport retry budget cannot
  // absorb.
  if (op->retarget) {
    std::optional<std::vector<SaveTarget>> fresh = op->retarget();
    if (!fresh.has_value()) {
      telemetry::count(metrics_, instruments_.retries_abandoned);
      LscResult abandoned;
      abandoned.aborted_cleanly = true;
      abandoned.retries = op->round_no;
      report(*op, std::move(abandoned));
      return;
    }
    check_targets(*fresh);
    op->targets = std::move(*fresh);
  }
  run_round(*op);
}

void LscCoordinator::report(Op& op, LscResult r) {
  if (check_ != nullptr) check_->on_round_complete(r.ok, r.set);
  const std::optional<Op> ended = ops_.take(op.id);
  if (ended->done) ended->done(std::move(r));
}

// ---------------------------------------------------------------------------
// NaiveLscCoordinator

namespace {

/// Per-terminal command dispatch: a fixed cost plus an exponential jitter
/// of this mean (interactive shell round-trip against a timesharing dom0).
///
/// Calibrated against the paper's observed failure knee (fine at 8 nodes,
/// ~50% at 10, ~90% at 12) for the calibrated MPI-over-TCP transport. The
/// binding exposure is on the *resume* side: staggered saves finish
/// staggered (amplified ~1.75x by storage contention), and a resumed
/// guest's backed-off retransmission schedule tolerates only ~6 s of
/// continued peer silence before the retry counter runs out. Knee:
/// 1.75 x (n-1) x E[dispatch] ~ 6 s at n = 10.
constexpr sim::Duration kDispatchBase = 175 * sim::kMillisecond;
constexpr sim::Duration kDispatchJitter = 175 * sim::kMillisecond;

}  // namespace

void NaiveLscCoordinator::start_round(Op& op) {
  const RoundTracker& round = open_round(op);
  // The controlling program writes `vm save` down one terminal after
  // another; each write costs a dispatch delay, so the k-th guest's save
  // command lands ~k dispatch-delays after the first. That cumulative skew
  // is what kills this design at scale.
  sim::Duration t = 0;
  const std::size_t n = round.targets().size();
  for (std::size_t i = 0; i < n; ++i) {
    t += kDispatchBase + rng_.exponential_duration(kDispatchJitter);
    schedule_fire(sim_->now() + t, round, i);
  }
}

// ---------------------------------------------------------------------------
// NtpLscCoordinator

namespace {

/// How far in the future the common save instant is set.
constexpr sim::Duration kLeadTime = 2 * sim::kSecond;
/// Local timer wake-up jitter (exponential mean): the "sleep timer capable
/// of microsecond precision" still contends with the OS.
constexpr sim::Duration kSchedJitter = 1 * sim::kMillisecond;
/// Mean extra delay of a starved agent (Config::stall_prob).
constexpr sim::Duration kStallMean = 30 * sim::kSecond;
/// How long before the save instant the health check polls the agents.
constexpr sim::Duration kHealthCheckLead = 500 * sim::kMillisecond;
/// Attempts a health-checked round makes before it aborts cleanly.
constexpr int kMaxAttempts = 3;

}  // namespace

void NtpLscCoordinator::check_targets(
    const std::vector<SaveTarget>& targets) const {
  LscCoordinator::check_targets(targets);
  for (const SaveTarget& t : targets) {
    if (t.clock == nullptr) {
      throw std::invalid_argument("ntp lsc requires a host clock per target");
    }
  }
}

void NtpLscCoordinator::start_round(Op& op) {
  // The coordinator publishes one *local wall-clock* instant T; each agent
  // converts T to its own timeline. Host-clock error and timer jitter are
  // the only skew sources left.
  const sim::Time t_local =
      op.targets.front().clock->local_now() + kLeadTime;

  // Sample each agent's scheduling fate for this round up front (whether
  // the host is too loaded to service the timer promptly).
  std::vector<sim::Duration> delay(op.targets.size());
  bool any_stalled = false;
  for (std::size_t i = 0; i < op.targets.size(); ++i) {
    delay[i] = rng_.exponential_duration(kSchedJitter);
    if (cfg_.stall_prob > 0.0 && rng_.chance(cfg_.stall_prob)) {
      delay[i] += rng_.exponential_duration(kStallMean);
      any_stalled = true;
    }
  }

  if (cfg_.health_check && any_stalled) {
    // Future-work robustness (§4): the pre-deadline health check notices
    // the starved agent and abandons the attempt before any guest freezes.
    const auto poll = [this, r = ref_of(op)] { health_checked(r); };
    static_assert(sim::Simulation::stores_inline<decltype(poll)>);
    sim_->schedule_after(kLeadTime - kHealthCheckLead, poll);
    return;
  }

  const RoundTracker& round = open_round(op);
  const std::size_t n = round.targets().size();
  for (std::size_t i = 0; i < n; ++i) {
    const clocksync::HostClock& clock = *round.targets()[i].clock;
    // The agent's microsecond timer fires when *its* clock reads T.
    schedule_fire(clock.to_sim(t_local) + delay[i], round, i);
  }
}

void NtpLscCoordinator::health_checked(OpRef ref) {
  Op* op = live_op(ref);
  // Dropped once abort() ended the op or its watchdog settled the round.
  if (op == nullptr) return;
  if (op->attempt_no >= kMaxAttempts) {
    telemetry::count(metrics_, instruments_.rounds_aborted);
    telemetry::instant(metrics_, sim_->now(), "lsc", "round_abandoned");
    LscResult r;
    r.aborted_cleanly = true;
    r.attempts = op->attempt_no;
    concluded(ref, std::move(r));
    return;
  }
  ++op->attempt_no;
  telemetry::count(metrics_, instruments_.health_check_retries);
  telemetry::instant(metrics_, sim_->now(), "lsc", "health_check_retry");
  start_round(*op);
}

}  // namespace dvc::ckpt
