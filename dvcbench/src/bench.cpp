#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <stdexcept>
#include <thread>

#include "calib.hpp"

namespace dvcbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Cells re-run after the timed phase to check they replay byte for byte.
constexpr std::size_t kReplaySample = 8;

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] std::string fmt(const char* f, double v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

/// A cell that threw is a failed cell, never a crashed benchmark.
template <typename Fn>
[[nodiscard]] CellResult guarded(Fn&& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    CellResult r;
    r.outcome = std::string("error: ") + e.what();
    return r;
  }
}

struct PoolRecord {
  std::size_t index = 0;  ///< position in the unbounded cell stream
  unsigned worker = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;        ///< the worker thread's CPU time on the cell
  double reference_s = 0.0;  ///< CPU time of the reference task before it
  CellResult result;
};

struct PoolRun {
  std::vector<PoolRecord> records;  ///< sorted by stream position
  double wall_s = 0.0;
  double busy_s = 0.0;
  double tail_idle_s = 0.0;  ///< first worker out to last worker out
  unsigned threads = 1;
};

/// Closed loop: each worker takes the next cell (cycling through the
/// workload) only when its current one returns. The first `first` cells
/// always run; after them, workers stop taking cells once `seconds` have
/// passed. Before each cell the worker runs the reference task, so the
/// machine's speed is sampled all through the run on every worker.
[[nodiscard]] PoolRun run_pool(const Workload& w, unsigned threads,
                               double seconds, std::size_t first) {
  const std::size_t n = w.size();
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::vector<PoolRecord>> per_worker(threads);
  std::vector<Clock::time_point> exit_at(threads, t0);
  // Wall time each worker spent on cells and their reference tasks.
  std::vector<double> busy(threads, 0.0);
  auto worker = [&](unsigned k) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= first && Clock::now() >= deadline) break;
      PoolRecord rec;
      rec.index = i;
      rec.worker = k;
      const Clock::time_point b0 = Clock::now();
      const double r0 = thread_cpu_s();
      const bool reference_ok = reference_task() == kReferenceChecksum;
      const double c0 = thread_cpu_s();
      const Clock::time_point w0 = Clock::now();
      rec.result = guarded([&] { return w.run(i % n); });
      const Clock::time_point w1 = Clock::now();
      rec.wall_s = seconds_between(w0, w1);
      busy[k] += seconds_between(b0, w1);
      rec.cpu_s = thread_cpu_s() - c0;
      rec.reference_s = c0 - r0;
      if (!reference_ok) {
        rec.result = CellResult{};
        rec.result.outcome = "error: reference task checksum";
      }
      per_worker[k].push_back(std::move(rec));
    }
    exit_at[k] = Clock::now();
  };
  {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned k = 0; k < threads; ++k) pool.emplace_back(worker, k);
    for (std::thread& t : pool) t.join();
  }
  PoolRun run;
  run.threads = threads;
  const auto [first_out, last_out] =
      std::minmax_element(exit_at.begin(), exit_at.end());
  run.wall_s = seconds_between(t0, *last_out);
  run.tail_idle_s = seconds_between(*first_out, *last_out);
  for (unsigned k = 0; k < threads; ++k) {
    run.busy_s += busy[k];
    for (PoolRecord& rec : per_worker[k]) run.records.push_back(std::move(rec));
  }
  std::sort(run.records.begin(), run.records.end(),
            [](const PoolRecord& a, const PoolRecord& b) {
              return a.index < b.index;
            });
  return run;
}

[[nodiscard]] double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Percentile, or 0 with a note when the sample leaves too thin a tail
/// (an idle layer has no samples at all).
[[nodiscard]] double layer_percentile(const std::vector<double>& v, double p,
                                      const char* what,
                                      std::vector<std::string>& notes) {
  try {
    return percentile(v, p);
  } catch (const std::domain_error& e) {
    notes.push_back(std::string("unresolved ") + what + ": " + e.what());
    return 0.0;
  }
}

/// p-th percentile from merged log-bucket counts: the upper bound of the
/// bucket holding it.
[[nodiscard]] double bucket_percentile(const LayerTally& t, double p,
                                       const char* what,
                                       std::vector<std::string>& notes) {
  std::uint64_t total = 0;
  for (const std::uint64_t c : t.wait_buckets) total += c;
  const std::size_t beyond = samples_beyond(total, p);
  if (beyond < kMinTail) {
    notes.push_back(std::string("unresolved ") + what + ": " +
                    std::to_string(total) + " samples");
    return 0.0;
  }
  const auto rank = static_cast<std::uint64_t>(
      p / 100.0 * static_cast<double>(total) + 0.5);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < t.wait_buckets.size(); ++i) {
    seen += t.wait_buckets[i];
    if (seen >= rank) return t.wait_bounds[i];
  }
  return t.wait_bounds.back();
}

[[nodiscard]] double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"cells_per_s", "1/s"},
      {"sim_s_per_host_s", "ratio"},
      {"cell_host_ms_p50", "ms"},
      {"cell_host_ms_p90", "ms"},
      {"peak_rss_mb", "MiB"},
      {"completed_frac", "ratio"},
      {"sim_makespan_s_p50", "s"},
      {"sim_makespan_s_p90", "s"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = {
      {"sim.events", "count"},
      {"sim.host_ns_per_event", "ns"},
      {"sim.peak_pending", "count"},
      {"net.packets_sent", "count"},
      {"net.retransmissions", "count"},
      {"net.packets_dropped_dark", "count"},
      {"net.delivered_frac", "ratio"},
      {"app.messages", "count"},
      {"app.redone_compute_frac", "ratio"},
      {"vm.saves", "count"},
      {"vm.bytes_saved", "B"},
      {"vm.save_sim_s_p50", "s"},
      {"storage.write_bytes", "B"},
      {"storage.contention_wait_sim_s_p90", "s"},
      {"storage.replica_copy_bytes", "B"},
      {"storage.sealed_frac", "ratio"},
      {"ckpt.rounds", "count"},
      {"ckpt.round_sim_s_p50", "s"},
      {"ckpt.round_sim_s_p90", "s"},
      {"ckpt.pause_skew_ms_p90", "ms"},
      {"ckpt.round_retries", "count"},
      {"core.recoveries", "count"},
      {"core.restore_fallbacks", "count"},
      {"core.wal_appends", "count"},
      {"fault.injected", "count"},
      {"fault.skipped", "count"},
      {"fault.sample_host_ms", "ms"},
      {"check.host_share", "ratio"},
      {"rm.jobs_started", "count"},
      {"rm.jobs_backfilled", "count"},
      {"rm.submit_host_us", "us"},
      {"rm.job_wait_sim_s_p50", "s"},
      {"rm.job_wait_sim_s_p90", "s"},
      {"rm.node_util", "ratio"},
      {"telemetry.spans_recorded", "count"},
      {"telemetry.instruments", "count"},
      {"tools.worker_busy_frac", "ratio"},
      {"tools.tail_idle_s", "s"},
      {"trace.overhead_frac", "ratio"},
  };
  return defs;
}

void emit_metrics(const std::vector<MetricDef>& defs,
                  const std::vector<std::pair<std::string, double>>& values,
                  std::vector<Metric>& metrics) {
  std::map<std::string, double> by_name(values.begin(), values.end());
  for (const MetricDef& d : defs) {
    const auto it = by_name.find(d.name);
    if (it == by_name.end()) {
      throw std::logic_error(std::string("no value for metric ") + d.name);
    }
    metrics.push_back(Metric{d.name, it->second, d.unit});
    by_name.erase(it);
  }
  if (!by_name.empty()) {
    throw std::logic_error("metric " + by_name.begin()->first +
                           " is not defined");
  }
}

RunReport run_untraced(const Workload& w, const RunOptions& opt) {
  RunReport rep;
  const std::size_t n = w.size();
  const PoolRun pool = run_pool(w, opt.threads, opt.seconds, n);

  // The first pass fixes the modelled outputs; every later run of a cell
  // must reproduce its bytes.
  std::vector<std::string> first(n);
  std::vector<std::pair<std::size_t, std::string>> reruns;
  std::uint64_t failed_cells = 0;
  std::vector<double> reference_s;
  std::vector<double> wall_ms;
  double sim_s = 0.0;
  for (const PoolRecord& rec : pool.records) {
    reference_s.push_back(rec.reference_s);
    wall_ms.push_back(rec.wall_s * 1e3);
    sim_s += rec.result.sim_time_s;
    if (!rec.result.ok) ++failed_cells;
    if (rec.index < n) {
      first[rec.index] = rec.result.outcome;
    } else {
      reruns.emplace_back(rec.index % n, rec.result.outcome);
    }
  }
  const std::size_t sample = std::min(kReplaySample, n);
  const PoolRun replay = run_pool(w, opt.threads, 0.0, sample);
  for (const PoolRecord& rec : replay.records) {
    if (!rec.result.ok) ++failed_cells;
    reruns.emplace_back(rec.index, rec.result.outcome);
  }
  const std::size_t mismatches = replay_mismatches(first, reruns);
  const std::uint64_t attempted = pool.records.size() + sample;
  const std::uint64_t failed = failed_cells + mismatches;

  // Modelled outcomes over the first pass (fixed by the seed).
  std::uint64_t jobs = 0;
  std::uint64_t jobs_completed = 0;
  std::vector<double> makespans;
  std::vector<double> waits;
  double busy = 0.0;
  double node_s = 0.0;
  std::uint64_t digest = kFnvOffset;
  for (std::size_t i = 0; i < n; ++i) {
    const CellResult& r = pool.records[i].result;
    jobs += r.jobs;
    jobs_completed += r.jobs_completed;
    if (r.completed) makespans.push_back(r.makespan_s);
    waits.insert(waits.end(), r.job_waits_s.begin(), r.job_waits_s.end());
    busy += r.busy_node_s;
    node_s += r.node_s;
    digest = fnv1a(first[i], digest);
    digest = fnv1a("\n", digest);
  }

  // Host times in reference seconds (calib.hpp), each cell scaled by the
  // reference tasks its own worker ran around it. The pool's host time is
  // its workers' summed cell time spread over the workers.
  std::vector<std::vector<const PoolRecord*>> by_worker(pool.threads);
  for (const PoolRecord& rec : pool.records) {
    by_worker.at(rec.worker).push_back(&rec);
  }
  std::vector<double> host_ms;
  double host_s = 0.0;
  for (const auto& recs : by_worker) {
    std::vector<double> tasks;
    for (const PoolRecord* rec : recs) tasks.push_back(rec->reference_s);
    const std::vector<double> scales = reference_scales(tasks);
    for (std::size_t j = 0; j < recs.size(); ++j) {
      host_ms.push_back(recs[j]->cpu_s * scales[j] * 1e3);
      host_s += recs[j]->cpu_s * scales[j];
    }
  }
  host_s /= pool.threads;

  const double cells = static_cast<double>(pool.records.size());
  const std::vector<std::pair<std::string, double>> values = {
      {"setup_s", opt.setup_s},
      {"cells_per_s", cells / host_s},
      {"sim_s_per_host_s", sim_s / host_s},
      {"cell_host_ms_p50", percentile(host_ms, 50)},
      {"cell_host_ms_p90", percentile(host_ms, 90)},
      {"peak_rss_mb", peak_rss_mib()},
      {"completed_frac", ratio(static_cast<double>(jobs_completed),
                               static_cast<double>(jobs))},
      {"sim_makespan_s_p50", percentile(makespans, 50)},
      {"sim_makespan_s_p90", percentile(makespans, 90)},
  };
  rep.result.correct = failed == 0;
  rep.result.attempted = attempted;
  rep.result.failed = failed;
  emit_metrics(end_to_end_defs(), values, rep.result.metrics);

  char digest_hex[24];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(digest));
  auto& s = rep.summary;
  s.push_back("workload " + w.name() + ": " + std::to_string(n) +
              " cells per pass, " + std::to_string(pool.records.size()) +
              " timed cells on " + std::to_string(pool.threads) +
              " workers in " + fmt("%.3f s", pool.wall_s));
  for (const Metric& m : rep.result.metrics) {
    s.push_back("  " + m.name + " = " + format_number(m.value) + " " + m.unit);
  }
  s.push_back("  cells_failed_frac = " +
              format_number(ratio(static_cast<double>(failed),
                                  static_cast<double>(attempted))) +
              " ratio (" + std::to_string(failed) + " of " +
              std::to_string(attempted) + "; " + std::to_string(mismatches) +
              " replay mismatches over " + std::to_string(reruns.size()) +
              " reruns)");
  if (!waits.empty()) {
    s.push_back("  job_wait_sim_s_p50 = " +
                format_number(percentile(waits, 50)) + " s");
    s.push_back("  job_wait_sim_s_p90 = " +
                format_number(percentile(waits, 90)) + " s (" +
                std::to_string(waits.size()) + " jobs)");
    s.push_back("  node_util = " + format_number(ratio(busy, node_s)) +
                " ratio");
  }
  s.push_back("  reference task: " +
              fmt("%.4f ms CPU (median)", median(reference_s) * 1e3) +
              "; wall clock: " + fmt("%.2f cells/s", cells / pool.wall_s) +
              ", cell p50 " + fmt("%.2f ms", percentile(wall_ms, 50)) +
              ", p90 " + fmt("%.2f ms", percentile(wall_ms, 90)));
  s.push_back("  tail samples: " + std::to_string(host_ms.size()) +
              " cell timings, " + std::to_string(makespans.size()) +
              " completed-cell makespans");
  s.push_back("  modelled_digest = " + std::string(digest_hex));
  return rep;
}

RunReport run_traced(const Workload& w, const RunOptions& opt) {
  RunReport rep;
  std::vector<std::string> notes;

  // Pool phase for the pool's own metrics, on half the budget.
  const PoolRun pool = run_pool(w, opt.threads, opt.seconds / 2, 0);
  std::uint64_t failed = 0;
  for (const PoolRecord& rec : pool.records) {
    if (!rec.result.ok) ++failed;
  }

  // The same cells untraced, traced, then with the checker detached.
  const std::size_t k = w.traced_cells();
  HostTrace trace;
  LayerTally tally;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  double unchecked_s = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    CellResult plain;
    CellResult traced;
    CellResult unchecked;
    const auto timed = [](double& total, auto&& fn) {
      const Clock::time_point t0 = Clock::now();
      CellResult r = guarded(fn);
      total += seconds_between(t0, Clock::now());
      return r;
    };
    // Rotate which variant runs first, so warm-up favours none of them.
    for (std::size_t step = 0; step < 3; ++step) {
      switch ((i + step) % 3) {
        case 0:
          plain = timed(untraced_s, [&] { return w.run(i); });
          break;
        case 1:
          trace.set_cell(i);
          traced = timed(traced_s,
                         [&] { return w.run_traced(i, trace, tally); });
          break;
        default:
          unchecked = timed(unchecked_s, [&] { return w.run_unchecked(i); });
      }
    }

    // The traced twin must reach the same modelled outcome.
    const bool same = traced.ok == plain.ok &&
                      traced.completed == plain.completed &&
                      traced.sim_time_s == plain.sim_time_s &&
                      traced.makespan_s == plain.makespan_s;
    if (!plain.ok || !traced.ok || !unchecked.ok || !same) ++failed;
  }
  const std::uint64_t attempted = pool.records.size() + 3 * k;

  const auto host_ms_per = [&](const char* span) {
    const std::size_t c = trace.count(span);
    return c == 0 ? 0.0 : trace.total_s(span) * 1e3 / static_cast<double>(c);
  };
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  std::vector<double> skew_ms;
  for (const double v : tally.pause_skew_s) skew_ms.push_back(v * 1e3);

  const std::vector<std::pair<std::string, double>> values = {
      {"sim.events", u(tally.events)},
      {"sim.host_ns_per_event",
       ratio(tally.run_host_s * 1e9, u(tally.events))},
      {"sim.peak_pending", u(tally.peak_pending)},
      {"net.packets_sent", u(tally.packets_sent)},
      {"net.retransmissions", u(tally.retransmissions)},
      {"net.packets_dropped_dark", u(tally.dropped_dark)},
      {"net.delivered_frac",
       ratio(u(tally.packets_delivered), u(tally.packets_sent))},
      {"app.messages", u(tally.messages)},
      {"app.redone_compute_frac", ratio(tally.redone_s, tally.compute_s)},
      {"vm.saves", u(tally.saves)},
      {"vm.bytes_saved", u(tally.bytes_saved)},
      {"vm.save_sim_s_p50",
       layer_percentile(tally.save_s, 50, "vm.save_sim_s_p50", notes)},
      {"storage.write_bytes", u(tally.write_bytes)},
      {"storage.contention_wait_sim_s_p90",
       bucket_percentile(tally, 90, "storage.contention_wait_sim_s_p90",
                         notes)},
      {"storage.replica_copy_bytes", u(tally.replica_copy_bytes)},
      {"storage.sealed_frac",
       ratio(u(tally.sets_sealed), u(tally.sets_opened))},
      {"ckpt.rounds", u(tally.rounds)},
      {"ckpt.round_sim_s_p50",
       layer_percentile(tally.round_s, 50, "ckpt.round_sim_s_p50", notes)},
      {"ckpt.round_sim_s_p90",
       layer_percentile(tally.round_s, 90, "ckpt.round_sim_s_p90", notes)},
      {"ckpt.pause_skew_ms_p90",
       layer_percentile(skew_ms, 90, "ckpt.pause_skew_ms_p90", notes)},
      {"ckpt.round_retries", u(tally.round_retries)},
      {"core.recoveries", u(tally.recoveries)},
      {"core.restore_fallbacks", u(tally.restore_fallbacks)},
      {"core.wal_appends", u(tally.wal_appends)},
      {"fault.injected", u(tally.faults_injected)},
      {"fault.skipped", u(tally.faults_skipped)},
      {"fault.sample_host_ms", host_ms_per("fault.sample")},
      {"check.host_share", ratio(untraced_s - unchecked_s, untraced_s)},
      {"rm.jobs_started", u(tally.jobs_started)},
      {"rm.jobs_backfilled", u(tally.jobs_backfilled)},
      {"rm.submit_host_us", host_ms_per("rm.submit") * 1e3},
      {"rm.job_wait_sim_s_p50",
       layer_percentile(tally.job_waits_s, 50, "rm.job_wait_sim_s_p50",
                        notes)},
      {"rm.job_wait_sim_s_p90",
       layer_percentile(tally.job_waits_s, 90, "rm.job_wait_sim_s_p90",
                        notes)},
      {"rm.node_util", ratio(tally.busy_node_s, tally.node_s)},
      {"telemetry.spans_recorded", u(tally.spans_recorded)},
      {"telemetry.instruments", u(tally.instruments)},
      {"tools.worker_busy_frac",
       ratio(pool.busy_s, pool.wall_s * pool.threads)},
      {"tools.tail_idle_s", pool.tail_idle_s},
      {"trace.overhead_frac", ratio(traced_s - untraced_s, traced_s)},
  };
  rep.result.correct = failed == 0;
  rep.result.attempted = attempted;
  rep.result.failed = failed;
  emit_metrics(per_layer_defs(), values, rep.result.metrics);

  auto& s = rep.summary;
  s.push_back("workload " + w.name() + " (traced): " + std::to_string(k) +
              " traced cells; pool phase " +
              std::to_string(pool.records.size()) + " cells on " +
              std::to_string(pool.threads) + " workers");
  s.push_back("  untraced " + fmt("%.1f", ratio(u(k), untraced_s)) +
              " cells/s vs traced " + fmt("%.1f", ratio(u(k), traced_s)) +
              " cells/s on one thread");
  for (const Metric& m : rep.result.metrics) {
    s.push_back("  " + m.name + " = " + format_number(m.value) + " " + m.unit);
  }
  for (const std::string& note : notes) s.push_back("  note: " + note);

  if (!opt.trace_out.empty()) {
    std::ofstream out(opt.trace_out);
    trace.write_chrome_trace(out, rep.result.metrics);
    if (!out) throw std::runtime_error("cannot write " + opt.trace_out);
    s.push_back("  host-span trace: " + opt.trace_out + " (" +
                std::to_string(trace.spans().size()) + " spans)");
  }
  return rep;
}

}  // namespace dvcbench
