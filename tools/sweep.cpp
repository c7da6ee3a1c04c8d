#include "tools/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "tools/scenario_keys.hpp"

namespace dvc::tools {

namespace {

/// Foreground-drain budget after a completed job: generous enough for any
/// legitimate in-flight round to land, small enough that a perpetually
/// rescheduling leak stops instead of hanging the sweep.
constexpr std::uint64_t kDrainLimit = 2'000'000;

[[nodiscard]] std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

[[nodiscard]] std::string grid_stem(const std::string& name) {
  std::string stem = name;
  const auto slash = stem.find_last_of('/');
  if (slash != std::string::npos) stem.erase(0, slash + 1);
  const auto dot = stem.rfind(".scn");
  if (dot != std::string::npos && dot == stem.size() - 4) stem.erase(dot);
  return stem;
}

[[nodiscard]] std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char c : s) {
    if (c == ' ' || c == '\t' || c == ',') {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

/// The `seed` key is read back as a signed 64-bit integer.
constexpr auto kMaxSeed =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
/// A grid larger than this is a typo, not a campaign.
constexpr std::size_t kMaxSeeds = 1'000'000;

[[nodiscard]] std::vector<std::uint64_t> parse_seeds(const std::string& v) {
  std::vector<std::uint64_t> seeds;
  for (const std::string& tok : split_ws(v)) {
    const auto dots = tok.find("..");
    const bool range = dots != std::string::npos;
    const auto lo =
        parse_decimal(range ? tok.substr(0, dots) : tok, kMaxSeed);
    const auto hi =
        range ? parse_decimal(tok.substr(dots + 2), kMaxSeed) : lo;
    if (!lo || !hi) {
      throw std::invalid_argument("sweep.seeds: bad entry '" + tok +
                                  "' (seeds are whole numbers 0.." +
                                  std::to_string(kMaxSeed) + ")");
    }
    if (*hi < *lo) {
      throw std::invalid_argument("sweep.seeds: bad entry '" + tok +
                                  "' (range reversed)");
    }
    if (*hi - *lo >= kMaxSeeds - seeds.size()) {
      throw std::invalid_argument("sweep.seeds: more than " +
                                  std::to_string(kMaxSeeds) + " seeds");
    }
    for (std::uint64_t s = *lo;; ++s) {
      seeds.push_back(s);
      if (s == *hi) break;
    }
  }
  return seeds;
}

[[nodiscard]] bool key_known(const std::string& key) {
  for (const char* k : scenario_keys()) {
    if (key == k) return true;
  }
  return false;
}

}  // namespace

std::optional<std::uint64_t> parse_decimal(std::string_view text,
                                           std::uint64_t max) noexcept {
  std::uint64_t v = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (text.empty() || ec != std::errc{} || ptr != end || v > max) {
    return std::nullopt;
  }
  return v;
}

const char* to_string(CellStatus s) noexcept {
  switch (s) {
    case CellStatus::kCompleted: return "completed";
    case CellStatus::kDiagnosed: return "diagnosed";
    case CellStatus::kInvariantViolation: return "invariant-violation";
    case CellStatus::kWedged: return "wedged";
  }
  return "?";
}

// ---- grid expansion ---------------------------------------------------------

SweepGrid SweepGrid::load(std::string name, const std::string& text) {
  SweepGrid g;
  g.name_ = std::move(name);
  g.stem_ = grid_stem(g.name_);
  const ScenarioConfig raw = ScenarioConfig::parse(text);
  for (const auto& [key, value] : raw.entries()) {
    if (key == "sweep.seeds") {
      g.seeds_ = parse_seeds(value);
      continue;
    }
    if (key == "sweep.mixes") {
      g.mixes_ = split_ws(value);
      continue;
    }
    if (key.rfind("sweep.", 0) == 0) {
      throw std::invalid_argument("unknown sweep key '" + key + "'");
    }
    if (key.rfind("mix.", 0) == 0) {
      const auto dot = key.find('.', 4);
      if (dot == std::string::npos || dot == 4 || dot + 1 == key.size()) {
        throw std::invalid_argument("mix override '" + key +
                                    "': expected mix.<name>.<key>");
      }
      const std::string mix = key.substr(4, dot - 4);
      const std::string sub = key.substr(dot + 1);
      if (!key_known(sub)) {
        throw std::invalid_argument("mix override '" + key +
                                    "': scenario key '" + sub +
                                    "' is not recognised");
      }
      g.overrides_[mix][sub] = value;
      continue;
    }
    if (!key_known(key)) {
      throw std::invalid_argument("scenario key '" + key +
                                  "' is not recognised");
    }
    g.base_.set(key, value);
  }
  if (g.mixes_.empty()) {
    if (!g.overrides_.empty()) {
      throw std::invalid_argument(
          "grid has mix.* overrides but no sweep.mixes line");
    }
    g.mixes_ = {"base"};
  }
  for (const auto& [mix, kv] : g.overrides_) {
    if (std::find(g.mixes_.begin(), g.mixes_.end(), mix) ==
        g.mixes_.end()) {
      throw std::invalid_argument("mix '" + mix +
                                  "' has overrides but is not listed in "
                                  "sweep.mixes");
    }
  }
  return g;
}

void SweepGrid::set_seeds(std::vector<std::uint64_t> seeds) {
  seeds_ = std::move(seeds);
}

std::vector<SweepCell> SweepGrid::cells() const {
  if (seeds_.empty()) {
    throw std::invalid_argument("grid '" + name_ +
                                "' has no seeds (sweep.seeds or --seeds)");
  }
  std::vector<SweepCell> out;
  out.reserve(mixes_.size() * seeds_.size());
  // Deterministic expansion order: mixes as declared, seeds ascending,
  // then a final sort by key so the aggregate's order is a function of
  // the cell set alone.
  std::vector<std::uint64_t> seeds = seeds_;
  std::sort(seeds.begin(), seeds.end());
  for (const std::string& mix : mixes_) {
    const auto ov = overrides_.find(mix);
    for (const std::uint64_t seed : seeds) {
      SweepCell c;
      c.grid = name_;
      c.mix = mix;
      c.seed = seed;
      c.key = stem_ + ":" + mix + ":" + std::to_string(seed);
      c.cfg = base_;
      if (ov != overrides_.end()) {
        for (const auto& [k, v] : ov->second) c.cfg.set(k, v);
      }
      c.cfg.set("seed", std::to_string(seed));
      c.cfg.set("trace", "false");
      out.push_back(std::move(c));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SweepCell& a, const SweepCell& b) {
              return a.key < b.key;
            });
  return out;
}

// ---- cell assembly ----------------------------------------------------------

namespace {

/// The VC's name in every driver; it reaches only checkpoint labels.
constexpr const char* kVcName = "sweep";

/// Retry counts land in `int` fields.
constexpr auto kMaxRetries =
    static_cast<std::uint32_t>(std::numeric_limits<int>::max());

/// A `*_s` key as a simulated duration.
sim::Duration seconds(const ScenarioConfig& cfg, const char* key,
                      double fallback) {
  return sim::from_seconds(cfg.get_double(key, fallback));
}

core::MachineRoomOptions room_options(const ScenarioConfig& cfg) {
  core::MachineRoomOptions o;
  o.clusters = cfg.get_u32("clusters", 1);
  o.nodes_per_cluster = cfg.get_u32("nodes_per_cluster", 32);
  o.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
  const double write_mbps = cfg.get_double("store_write_mbps", 100.0);
  o.store.write_bps = write_mbps * 1e6;
  o.store.read_bps = 2 * write_mbps * 1e6;
  o.hv.abort_saves_on_failure =
      cfg.get_bool("abort_saves_on_failure", false);
  o.store_replicas = cfg.get_u32("store_replicas", 0);
  return o;
}

app::Pattern parse_pattern(const std::string& p) {
  if (p == "none") return app::Pattern::kNone;
  if (p == "ring") return app::Pattern::kRing;
  if (p == "broadcast") return app::Pattern::kBroadcast;
  if (p == "treebroadcast") return app::Pattern::kTreeBroadcast;
  if (p == "alltoall") return app::Pattern::kAllToAll;
  throw std::invalid_argument("unknown pattern: " + p);
}

app::WorkloadSpec workload_spec(const ScenarioConfig& cfg,
                                std::uint32_t vc_size) {
  const std::string kind = cfg.get_string("workload", "ptrans");
  const std::uint32_t iterations = cfg.get_u32("iterations", 1000);
  const double iter_s = cfg.get_double("iter_seconds", 0.5);
  app::WorkloadSpec workload =
      kind == "hpl" ? app::make_hpl(16384, vc_size, iterations)
                    : app::make_ptrans(4096, vc_size, iterations);
  workload.flops_per_rank_iter = iter_s * 1e10;
  workload.bytes_per_msg = 64 << 10;
  const std::string pattern = cfg.get_string("pattern", "");
  if (!pattern.empty()) workload.pattern = parse_pattern(pattern);
  const std::uint32_t msg_bytes = cfg.get_u32("msg_bytes", 0);
  if (msg_bytes > 0) workload.bytes_per_msg = msg_bytes;
  return workload;
}

/// The fault plan of the `fault.*` keys: scripted events plus stochastic
/// processes sampled on fault.seed, so the schedule is the same for every
/// run of a scenario whatever the room does. `fault.start_s` shifts the
/// whole schedule, so a grid can open the fault window after the first
/// complete checkpoint instead of during boot.
fault::FaultPlan fault_plan(const ScenarioConfig& cfg,
                            const core::MachineRoomOptions& room) {
  fault::FaultPlan plan;
  const std::string script = cfg.get_string("fault.script", "");
  if (!script.empty()) plan = fault::FaultPlan::parse_script(script);
  fault::StochasticFaults fs;
  fs.horizon = seconds(cfg, "fault.horizon_s", 0.0);
  fs.node_crash_mtbf = seconds(cfg, "fault.node_crash_mtbf_s", 0.0);
  fs.node_down_for = seconds(cfg, "fault.node_down_s", 0.0);
  fs.link_down_mtbf = seconds(cfg, "fault.link_down_mtbf_s", 0.0);
  fs.link_down_for = seconds(cfg, "fault.link_down_s", 30.0);
  fs.disk_slow_mtbf = seconds(cfg, "fault.disk_slow_mtbf_s", 0.0);
  fs.disk_slow_for = seconds(cfg, "fault.disk_slow_s", 60.0);
  fs.disk_slow_factor = cfg.get_double("fault.disk_slow_factor", 10.0);
  fs.clock_step_mtbf = seconds(cfg, "fault.clock_step_mtbf_s", 0.0);
  fs.clock_step_max = static_cast<sim::Duration>(
      cfg.get_double("fault.clock_step_ms", 500.0) * sim::kMillisecond);
  fs.store_corrupt_mtbf = seconds(cfg, "fault.store_corrupt_mtbf_s", 0.0);
  fs.store_tear_mtbf = seconds(cfg, "fault.store_tear_mtbf_s", 0.0);
  fs.partition_mtbf = seconds(cfg, "fault.partition_mtbf_s", 0.0);
  fs.partition_for = seconds(cfg, "fault.partition_s", 30.0);
  fs.coordinator_crash_mtbf =
      seconds(cfg, "fault.coordinator_crash_mtbf_s", 0.0);
  fs.coordinator_down_for = seconds(cfg, "fault.coordinator_down_s", 20.0);
  if (fs.horizon > 0) {
    const auto fault_seed = static_cast<std::uint64_t>(
        cfg.get_int("fault.seed", static_cast<std::int64_t>(room.seed)));
    plan.sample(fs, room.clusters * room.nodes_per_cluster, room.clusters,
                sim::Rng(fault_seed), 1 + room.store_replicas);
  }
  const sim::Duration start = seconds(cfg, "fault.start_s", 0.0);
  if (start > 0) {
    fault::FaultPlan shifted;
    for (fault::FaultEvent e : plan.schedule()) {
      e.at += start;
      shifted.add(e);
    }
    plan = std::move(shifted);
  }
  return plan;
}

}  // namespace

CellSpec cell_spec(const ScenarioConfig& cfg) {
  CellSpec s;
  s.room = room_options(cfg);
  s.trace = cfg.get_bool("trace", true);
  s.vc.name = kVcName;
  s.vc.size = cfg.get_u32("vc_size", 16);
  s.vc.guest.ram_bytes = std::uint64_t{cfg.get_u32("guest_ram_mib", 256)}
                         << 20;
  // Opt-in coordinator fault domain: the control plane runs on a head
  // node, journals intents, and fences its commands with an epoch.
  const std::int64_t head = cfg.get_int("coordinator.head_node", -1);
  if (head >= 0) {
    s.head_node = static_cast<hw::NodeId>(head);
    s.head_lease = seconds(cfg, "coordinator.lease_s", 10.0);
  }
  s.workload = workload_spec(cfg, s.vc.size);

  s.lsc_seed = s.room.seed ^ 0xD5C;
  s.retry.round_timeout = seconds(cfg, "lsc.round_timeout_s", 0.0);
  s.retry.max_round_retries = static_cast<int>(
      cfg.get_u32("lsc.max_round_retries", 0, kMaxRetries));
  s.retry.backoff = seconds(cfg, "lsc.retry_backoff_s", 2.0);

  s.recovery.interval = seconds(cfg, "checkpoint_interval_s", 300.0);
  s.recovery.incremental = cfg.get_bool("incremental", false);
  s.recovery.proactive_migration = cfg.get_bool("proactive", false);
  s.recovery.watchdog_interval = seconds(cfg, "watchdog_interval_s", 0.0);
  s.recovery.keep_checkpoints = cfg.get_u32("keep_checkpoints", 2);
  s.recovery.max_restore_retries = static_cast<int>(
      cfg.get_u32("max_restore_retries", 4, kMaxRetries));
  const double mtbf_s = cfg.get_double("mtbf_per_node_s", 0.0);
  if (mtbf_s > 0.0) {
    s.failures.mtbf = sim::from_seconds(mtbf_s);
    s.failures.repair = seconds(cfg, "repair_s", 1800.0);
    s.failures.predicted_fraction = cfg.get_double("predicted_fraction", 0.0);
    s.failures.prediction_lead = seconds(cfg, "prediction_lead_s", 120.0);
  }

  // The invariant checker rides along by default; a scenario opts out
  // with `check.invariants = off` (e.g. to time checker overhead).
  s.check = cfg.get_bool("check.invariants", true);
  if (cfg.get_bool("fault.enabled", false)) s.faults = fault_plan(cfg, s.room);
  return s;
}

void DetachChecker::operator()(check::Invariants* inv) const {
  inv->detach();
  delete inv;
}

CheckerPtr attach_checker(core::MachineRoom& room) {
  CheckerPtr inv(new check::Invariants(check::Invariants::Wiring{
      &room.sim, room.dvc.get(), &room.images, &room.fence, &room.metrics}));
  inv->attach();
  return inv;
}

void check_trial(check::Invariants& inv, std::string_view program,
                 std::string_view trial) {
  inv.end_of_run(/*expect_quiesced=*/false);
  if (inv.ok()) return;
  std::fprintf(stderr, "%.*s: trial %.*s: %zu invariant violation(s):\n%s",
               static_cast<int>(program.size()), program.data(),
               static_cast<int>(trial.size()), trial.data(),
               inv.violations().size(), inv.report().c_str());
  // Other trials may still be running on the pool: leave without running
  // static destructors under them.
  std::fflush(stdout);
  std::_Exit(1);
}

CellRig::CellRig(const CellSpec& spec)
    : room(spec.room), recovery_(spec.recovery), failures_(spec.failures) {
  room.metrics.record_timeline(spec.timeline);
  if (spec.trace) {
    room.trace.set_echo(true);
    room.trace.set_min_level(sim::TraceLevel::kInfo);
  }
  const auto placement = room.dvc->pick_nodes(spec.vc.size);
  if (!placement) {
    throw std::runtime_error("not enough nodes for vc_size=" +
                             std::to_string(spec.vc.size));
  }
  vc = &room.dvc->create_vc(spec.vc, *placement, {});
  if (spec.head_node) {
    room.dvc->designate_head_node(*spec.head_node, spec.head_lease);
  }
  room.sim.run_until(20 * sim::kSecond);

  application = std::make_unique<app::ParallelApp>(
      room.sim, room.fabric.network(), vc->contexts(), spec.workload,
      spec.transport);
  room.dvc->attach_app(*vc, *application);
  application->start();

  lsc = std::make_unique<ckpt::NtpLscCoordinator>(room.sim, spec.lsc,
                                                  sim::Rng(spec.lsc_seed));
  lsc->set_metrics(&room.metrics);
  lsc->set_retry_policy(spec.retry);

  if (spec.check) {
    inv = attach_checker(room);
    lsc->set_check(inv.get());
  }

  if (spec.faults) {
    // A `coordcrash` event takes the DVC coordinator down for its payload
    // duration.
    injector = std::make_unique<fault::FaultInjector>(
        room.sim,
        fault::FaultInjector::Hooks{
            &room.fabric, &room.store, room.time.get(), room.replica_ptrs(),
            [this](sim::Duration down_for) {
              room.dvc->crash_coordinator(down_for);
            }},
        &room.metrics);
    injector->arm(*spec.faults);
    faults_armed = spec.faults->size();
  }
}

void CellRig::start_recovery() {
  recovery_.coordinator = lsc.get();
  room.dvc->enable_auto_recovery(*vc, recovery_);

  if (failures_.mtbf <= 0) return;
  room.fabric.subscribe_failures([this, repair = failures_.repair](
                                     hw::NodeId n) {
    room.sim.schedule_after(repair, [this, n] { room.fabric.repair_node(n); });
  });
  room.fabric.arm_random_failures(failures_.mtbf,
                                  failures_.predicted_fraction,
                                  failures_.prediction_lead);
}

void CellRig::drive(sim::Time horizon, sim::Duration slice,
                    sim::Duration settle) {
  while (!application->completed() && room.sim.now() < horizon) {
    if (vc->state() == core::VcState::kFailed) break;
    room.sim.run_until(room.sim.now() + slice);
  }
  room.sim.run_until(room.sim.now() + settle);
}

CellOutcome CellRig::outcome() const {
  const core::DvcManager& dvc = *room.dvc;
  const telemetry::MetricsRegistry& m = room.metrics;
  CellOutcome out;
  out.iterations = application->rank(0).state().iter;
  out.sim_time_s = sim::to_seconds(room.sim.now());
  out.checkpoints = m.counter_value("core.dvc.checkpoints");
  out.recoveries = dvc.recoveries_performed();
  out.watchdog = dvc.watchdog_detections();
  out.lsc_retries = m.counter_value("ckpt.lsc.round_retries");
  out.faults_injected = m.counter_value("fault.injected");
  out.faults_lifted = m.counter_value("fault.lifted");
  out.verify_failures = m.counter_value("storage.store.verify_failures");
  out.failovers = m.counter_value("storage.replica.failovers");
  out.fallbacks = dvc.restore_fallbacks();
  out.abandoned = dvc.recoveries_abandoned();
  out.damage_planted = m.counter_value("storage.store.corruptions") +
                       m.counter_value("storage.store.torn_writes");
  for (std::size_t r = 0; r < room.replica_stores.size(); ++r) {
    const std::string prefix = "storage.replica" + std::to_string(r);
    out.damage_planted += m.counter_value(prefix + ".store.corruptions") +
                          m.counter_value(prefix + ".store.torn_writes");
  }
  out.coordinator_crashes = dvc.coordinator_crashes();
  out.coordinator_reboots = dvc.coordinator_reboots();
  out.stale_completions = dvc.stale_completions();
  out.orphans_swept =
      dvc.orphan_sets_discarded() + dvc.orphan_rounds_aborted();
  out.fenced_writes = m.counter_value("storage.images.fenced_writes") +
                      m.counter_value("vm.hypervisor.fenced_commands");
  return out;
}

// ---- one cell ---------------------------------------------------------------

namespace {

CellOutcome run_cell_impl(const SweepCell& cell, bool timeline) {
  const ScenarioConfig& cfg = cell.cfg;
  CellSpec spec = cell_spec(cfg);
  spec.timeline = timeline;
  CellRig rig(spec);
  rig.start_recovery();
  // Sliced driving, soak-style, then a settle window that lets in-flight
  // churn (a recovery racing job completion) finish before sampling.
  rig.drive(seconds(cfg, "horizon_s", 3600.0), seconds(cfg, "slice_s", 10.0),
            seconds(cfg, "settle_s", 30.0));
  const bool completed = rig.application->completed();
  if (completed) {
    // Stop the periodic machinery and drain every remaining foreground
    // event; whatever survives the budget is a leak the checker reports.
    rig.room.dvc->disable_auto_recovery(*rig.vc);
    rig.room.sim.run(kDrainLimit);
  }
  check::Invariants* inv = rig.inv.get();
  if (inv != nullptr) inv->end_of_run(/*expect_quiesced=*/completed);

  CellOutcome out = rig.outcome();
  if (inv != nullptr) out.violations = inv->violations();
  if (!out.violations.empty()) {
    out.status = CellStatus::kInvariantViolation;
  } else if (completed) {
    out.status = CellStatus::kCompleted;
  } else if (rig.application->failed() ||
             rig.vc->state() == core::VcState::kFailed) {
    out.status = CellStatus::kDiagnosed;
  } else {
    out.status = CellStatus::kWedged;
  }
  return out;
}

}  // namespace

CellOutcome run_cell(const SweepCell& cell, bool timeline) {
  CellOutcome out;
  try {
    out = run_cell_impl(cell, timeline);
  } catch (const std::exception& e) {
    out.status = CellStatus::kWedged;
    out.error = e.what();
  }
  out.key = cell.key;
  out.mix = cell.mix;
  out.seed = cell.seed;
  out.repro = "dvcsweep --repro " + cell.key + " " + cell.grid;
  return out;
}

// ---- merging ----------------------------------------------------------------

std::string CellOutcome::to_json() const {
  auto num = [](std::uint64_t v) { return std::to_string(v); };
  std::string j = "{";
  j += "\"cell\":\"" + json_escape(key) + "\"";
  j += ",\"mix\":\"" + json_escape(mix) + "\"";
  j += ",\"seed\":" + num(seed);
  j += ",\"status\":\"" + std::string(to_string(status)) + "\"";
  if (!error.empty()) j += ",\"error\":\"" + json_escape(error) + "\"";
  j += ",\"iterations\":" + num(iterations);
  char t[32];
  std::snprintf(t, sizeof t, "%.3f", sim_time_s);
  j += ",\"sim_time_s\":" + std::string(t);
  j += ",\"checkpoints\":" + num(checkpoints);
  j += ",\"recoveries\":" + num(recoveries);
  j += ",\"watchdog\":" + num(watchdog);
  j += ",\"lsc_retries\":" + num(lsc_retries);
  j += ",\"faults_injected\":" + num(faults_injected);
  j += ",\"faults_lifted\":" + num(faults_lifted);
  j += ",\"verify_failures\":" + num(verify_failures);
  j += ",\"failovers\":" + num(failovers);
  j += ",\"fallbacks\":" + num(fallbacks);
  j += ",\"abandoned\":" + num(abandoned);
  j += ",\"damage_planted\":" + num(damage_planted);
  j += ",\"coordinator_crashes\":" + num(coordinator_crashes);
  j += ",\"coordinator_reboots\":" + num(coordinator_reboots);
  j += ",\"stale_completions\":" + num(stale_completions);
  j += ",\"orphans_swept\":" + num(orphans_swept);
  j += ",\"fenced_writes\":" + num(fenced_writes);
  j += ",\"violations\":[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    const check::Violation& v = violations[i];
    if (i > 0) j += ",";
    j += "{\"invariant\":\"" + json_escape(v.invariant) + "\"";
    j += ",\"boundary\":\"" + std::string(check::to_string(v.boundary)) +
         "\"";
    j += ",\"at\":" + std::to_string(v.at);
    j += ",\"detail\":\"" + json_escape(v.detail) + "\"}";
  }
  j += "]";
  j += ",\"repro\":\"" + json_escape(repro) + "\"";
  j += "}";
  // Callers keep one string per cell; drop the doubling slack (~2x).
  j.shrink_to_fit();
  return j;
}

std::string SweepReport::to_json() const {
  std::string j = "{";
  j += "\"grid\":\"" + json_escape(grid) + "\"";
  j += ",\"cells\":" + std::to_string(outcomes.size());
  j += ",\"completed\":" + std::to_string(completed);
  j += ",\"diagnosed\":" + std::to_string(diagnosed);
  j += ",\"invariant_violations\":" + std::to_string(invariant_violations);
  j += ",\"wedged\":" + std::to_string(wedged);
  j += ",\"outcomes\":[\n";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (i > 0) j += ",\n";
    j += outcomes[i].to_json();
  }
  j += "\n]}";
  return j;
}

void run_indexed(std::size_t count, unsigned jobs,
                 const std::function<void(std::size_t)>& task) {
  if (jobs == 0) {
    jobs = std::thread::hardware_concurrency();
    if (jobs == 0) jobs = 1;
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= count) return;
      task(i);
    }
  };
  if (jobs == 1 || count <= 1) {
    worker();
    return;
  }
  std::vector<std::thread> pool;
  const unsigned n = static_cast<unsigned>(std::min<std::size_t>(jobs, count));
  pool.reserve(n);
  for (unsigned i = 0; i < n; ++i) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
}

SweepReport run_sweep(const std::vector<SweepCell>& cells, unsigned jobs,
                      const std::string& grid_name) {
  SweepReport report;
  report.grid = grid_name;
  report.outcomes.resize(cells.size());
  // Each outcome lands at its cell's index in the pre-sorted cell list, so
  // the merged order (and therefore the aggregate bytes) is independent of
  // scheduling.
  run_indexed(cells.size(), jobs, [&](std::size_t i) {
    report.outcomes[i] = run_cell(cells[i]);
  });

  for (const CellOutcome& o : report.outcomes) {
    switch (o.status) {
      case CellStatus::kCompleted: ++report.completed; break;
      case CellStatus::kDiagnosed: ++report.diagnosed; break;
      case CellStatus::kInvariantViolation:
        ++report.invariant_violations;
        break;
      case CellStatus::kWedged: ++report.wedged; break;
    }
  }
  return report;
}

}  // namespace dvc::tools
