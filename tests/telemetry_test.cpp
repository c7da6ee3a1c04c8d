#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "app/workload.hpp"
#include "ckpt/lsc.hpp"
#include "core/dvc_manager.hpp"
#include "rm/scheduler.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_bridge.hpp"
#include "testbed.hpp"

namespace dvc::telemetry {
namespace {

using test::TestBed;

// ---- instruments ----------------------------------------------------------

TEST(TelemetryTest, CounterAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(TelemetryTest, GaugeTracksValueAndHighWater) {
  Gauge g;
  g.set(3.0);
  g.set(7.0);
  g.set(2.0);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  EXPECT_DOUBLE_EQ(g.max(), 7.0);
}

TEST(TelemetryTest, HistogramSummaryIsExact) {
  Histogram h;
  for (const double v : {0.001, 0.002, 0.004, 1.0}) h.observe(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.summary().min(), 0.001);
  EXPECT_DOUBLE_EQ(h.summary().max(), 1.0);
  EXPECT_NEAR(h.summary().mean(), 0.25175, 1e-9);
}

TEST(TelemetryTest, HistogramPercentileIsBucketAccurate) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(i * 1e-3);  // 1 ms .. 1 s
  // Geometric buckets with ratio 2: the quantile can be off by at most one
  // bucket, i.e. a factor of 2; the tails are clamped by the exact extrema.
  const double p50 = h.percentile(50);
  EXPECT_GE(p50, 0.25);
  EXPECT_LE(p50, 1.0);
  // The low tail is reported as its (clamped) bucket bound: within one
  // growth factor of the true minimum.
  EXPECT_GE(h.percentile(0), 1e-3);
  EXPECT_LE(h.percentile(0), 2e-3);
  EXPECT_DOUBLE_EQ(h.percentile(100), 1.0);
}

TEST(TelemetryTest, HistogramBucketsCoverWideRange) {
  Histogram h;
  h.observe(1e-7);  // below the first bound
  h.observe(1.0);   // mid-range
  h.observe(1e15);  // past the last finite bound (1e-6 * 2^63): overflow
  std::uint64_t total = 0;
  for (const auto c : h.bucket_counts()) total += c;
  EXPECT_EQ(total, 3u);
  EXPECT_EQ(h.bucket_counts().front(), 1u);
  EXPECT_EQ(h.bucket_counts().back(), 1u);
}

// The placement rule as a formula, one std::log per value: the reference
// that Histogram::observe must match bucket for bucket. The clamp runs
// before the integer cast, so +inf and NaN land in the overflow bucket.
std::size_t formula_bucket(double v) {
  if (v <= Histogram::kFirstBound) return 0;
  const double steps = std::log(v / Histogram::kFirstBound) /
                       std::log(Histogram::kGrowth);
  const double idx = std::ceil(steps - 1e-9);
  return idx < static_cast<double>(Histogram::kBuckets)
             ? static_cast<std::size_t>(idx)
             : Histogram::kBuckets;
}

/// The bucket one observation of `v` lands in.
std::size_t observed_bucket(double v) {
  Histogram h;
  h.observe(v);
  const auto& counts = h.bucket_counts();
  const auto it = std::find(counts.begin(), counts.end(), 1u);
  return static_cast<std::size_t>(it - counts.begin());
}

TEST(TelemetryTest, HistogramBoundsAreFirstBoundTimesGrowthPowers) {
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::bucket_bound(i),
              Histogram::kFirstBound *
                  std::pow(Histogram::kGrowth, static_cast<double>(i)))
        << "bound " << i;
  }
  EXPECT_TRUE(std::isinf(Histogram::bucket_bound(Histogram::kBuckets)));
}

TEST(TelemetryTest, HistogramPlacesEveryBoundAndItsNeighboursLikeTheFormula) {
  const double inf = std::numeric_limits<double>::infinity();
  // The formula's slack: a value up to a relative 1e-9 ln(growth) above a
  // bound still counts in that bound's bucket.
  const double slack = 1e-9 * std::log(Histogram::kGrowth);
  std::vector<double> values = {0.0, -0.0, -1.0, -inf, inf,
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::denorm_min()};
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    const double b = Histogram::bucket_bound(i);
    for (const double v :
         {b, std::nextafter(b, 0.0), std::nextafter(b, inf), b * (1 + slack),
          b * (1 + 2 * slack), b * (1 - slack), b * (1 - 2 * slack)}) {
      // Each of these and its two neighbours: both edges of the slack
      // window, and the formula's own edge between them.
      values.insert(values.end(),
                    {v, std::nextafter(v, 0.0), std::nextafter(v, inf)});
    }
    // Walk the formula's edge one ulp at a time.
    double v = b * (1 + slack * (1 - 1e-4));
    for (int step = 0; step < 64; ++step) {
      values.push_back(v);
      v = std::nextafter(v, inf);
    }
  }
  for (const double v : values) {
    EXPECT_EQ(observed_bucket(v), formula_bucket(v)) << "value " << v;
  }
  // The slack keeps a value just past a bound in that bound's bucket.
  EXPECT_EQ(observed_bucket(std::nextafter(Histogram::bucket_bound(10), inf)),
            10u);
  EXPECT_EQ(observed_bucket(Histogram::bucket_bound(10) * (1 + 3 * slack)),
            11u);
}

TEST(TelemetryTest, HistogramPlacesLogUniformValuesLikeTheFormula) {
  sim::Rng rng(20261019);
  Histogram h;
  std::array<std::uint64_t, Histogram::kBuckets + 1> want{};
  // Twelve decades past both ends of the bucket range.
  const double lo = std::log(1e-12);
  const double hi = std::log(1e20);
  for (int i = 0; i < 100'000; ++i) {
    const double v = std::exp(lo + (hi - lo) * rng.uniform());
    h.observe(v);
    ++want[formula_bucket(v)];
  }
  EXPECT_EQ(h.bucket_counts(), want);
}

TEST(TelemetryTest, HistogramCountsNanInTheOverflowBucket) {
  Histogram h;
  h.observe(std::numeric_limits<double>::quiet_NaN());
  h.observe(-std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket_counts().back(), 2u);
  EXPECT_EQ(observed_bucket(std::numeric_limits<double>::quiet_NaN()),
            Histogram::kBuckets);
}

// ---- registry -------------------------------------------------------------

TEST(TelemetryTest, RegistryCreatesOnFirstUseAndFindsByName) {
  MetricsRegistry m;
  EXPECT_EQ(m.find_counter("a.b.c"), nullptr);
  m.counter("a.b.c").add(5);
  ASSERT_NE(m.find_counter("a.b.c"), nullptr);
  EXPECT_EQ(m.counter_value("a.b.c"), 5u);
  EXPECT_EQ(m.counter_value("never.touched"), 0u);

  m.gauge("g").set(2.5);
  ASSERT_NE(m.find_gauge("g"), nullptr);
  EXPECT_DOUBLE_EQ(m.find_gauge("g")->value(), 2.5);

  m.histogram("h").observe(1.0);
  ASSERT_NE(m.find_histogram("h"), nullptr);
  EXPECT_EQ(m.find_histogram("h")->count(), 1u);
}

TEST(TelemetryTest, HandleCreatesItsInstrumentOnFirstUseOnly) {
  CounterHandle saves("x.saves");
  HistogramHandle save_s("x.save_s");
  count(nullptr, saves);  // null-safe, like the name-keyed helpers
  observe(nullptr, save_s, 1.0);

  MetricsRegistry m;
  EXPECT_EQ(m.find_counter("x.saves"), nullptr);  // holding one creates none
  count(&m, saves);
  count(&m, saves, 2);
  observe(&m, save_s, 0.5);
  EXPECT_EQ(m.counter_value("x.saves"), 3u);
  ASSERT_NE(m.find_histogram("x.save_s"), nullptr);
  EXPECT_EQ(m.find_histogram("x.save_s")->count(), 1u);

  // A second registry gets its own instrument; the first keeps its count.
  MetricsRegistry other;
  count(&other, saves);
  EXPECT_EQ(other.counter_value("x.saves"), 1u);
  EXPECT_EQ(m.counter_value("x.saves"), 3u);
  count(&m, saves);
  EXPECT_EQ(m.counter_value("x.saves"), 4u);
}

TEST(TelemetryTest, HandleResolvesAgainstANewRegistryAtTheSameAddress) {
  CounterHandle c("x.c");
  std::optional<MetricsRegistry> slot;
  slot.emplace();
  count(&*slot, c);
  slot.reset();
  slot.emplace();  // same storage, so the same address
  count(&*slot, c);
  EXPECT_EQ(slot->counter_value("x.c"), 1u);
}

TEST(TelemetryTest, SpansAndInstantsRecordTimeline) {
  MetricsRegistry m;
  const auto id = m.begin_span(10 * sim::kSecond, "vm/node0", "save");
  m.instant(11 * sim::kSecond, "vm/node0", "blip");
  m.end_span(id, 12 * sim::kSecond);
  m.end_span(MetricsRegistry::kInvalidSpan, 0);  // no-op
  m.end_span(999, 0);                            // unknown id: no-op

  ASSERT_EQ(m.spans().size(), 1u);
  EXPECT_EQ(m.spans()[0].track, "vm/node0");
  EXPECT_EQ(m.spans()[0].name, "save");
  EXPECT_EQ(m.spans()[0].begin, 10 * sim::kSecond);
  EXPECT_EQ(m.spans()[0].end, 12 * sim::kSecond);
  EXPECT_FALSE(m.spans()[0].open);
  ASSERT_EQ(m.instants().size(), 1u);
  EXPECT_EQ(m.instants()[0].name, "blip");
}

TEST(TelemetryTest, NullRegistryHelpersAreSafe) {
  count(nullptr, "x");
  observe(nullptr, "x", 1.0);
  gauge_set(nullptr, "x", 1.0);
  const auto id = begin_span(nullptr, 0, "t", "n");
  EXPECT_EQ(id, MetricsRegistry::kInvalidSpan);
  end_span(nullptr, id, 1);
  instant(nullptr, 0, "t", "n");
}

// ---- export ---------------------------------------------------------------

TEST(TelemetryTest, MetricsJsonContainsEveryInstrument) {
  MetricsRegistry m;
  m.counter("n.c").add(7);
  m.gauge("n.g").set(1.5);
  m.histogram("n.h").observe(0.25);
  m.instant(sim::kSecond, "t", "tick");
  std::ostringstream out;
  m.write_metrics_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"n.c\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"n.g\""), std::string::npos);
  EXPECT_NE(json.find("\"n.h\""), std::string::npos);
  EXPECT_NE(json.find("\"instants\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
}

TEST(TelemetryTest, ChromeTraceHasMetadataSpansAndInstants) {
  MetricsRegistry m;
  const auto id = m.begin_span(sim::kSecond, "lsc", "round");
  m.end_span(id, 2 * sim::kSecond);
  m.begin_span(3 * sim::kSecond, "lsc", "stuck");  // stays open -> "B"
  m.instant(sim::kSecond, "dvc", "recovered");
  std::ostringstream out;
  m.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_EQ(json.front(), '[');
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"lsc\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  // 1 s of sim time is 1e6 trace microseconds.
  EXPECT_NE(json.find("\"ts\": 1000000.000"), std::string::npos);
}

// ---- trace bridge (satellite: TraceLog -> telemetry) ----------------------

TEST(TelemetryTest, TraceBridgeCountsWarningsAndErrorsPerComponent) {
  sim::TraceLog log;
  MetricsRegistry m;
  bridge_trace_errors(log, m);
  log.emit(0, sim::TraceLevel::kInfo, "dvc", "quiet");
  log.emit(0, sim::TraceLevel::kWarn, "dvc", "worrying");
  log.emit(0, sim::TraceLevel::kError, "hypervisor/3", "bad");
  log.emit(0, sim::TraceLevel::kError, "hypervisor/3", "worse");

  EXPECT_EQ(m.counter_value("trace.warn.dvc"), 1u);
  EXPECT_EQ(m.counter_value("trace.error.hypervisor/3"), 2u);
  EXPECT_EQ(m.counter_value("trace.warn.hypervisor/3"), 0u);
  // The bridge and the ring buffer must agree on totals.
  EXPECT_EQ(m.counter_value("trace.warn.dvc") +
                m.counter_value("trace.error.hypervisor/3"),
            log.count_at_least(sim::TraceLevel::kWarn));
}

// ---- end-to-end across subsystems -----------------------------------------

TEST(TelemetryIntegrationTest, CheckpointRestoreTouchesEverySubsystem) {
  TestBed::Options opt;
  opt.clusters = 2;
  opt.nodes_per_cluster = 4;
  opt.store.write_bps = 400e6;
  opt.store.read_bps = 800e6;
  TestBed bed(opt);

  core::VcSpec spec;
  spec.name = "vc";
  spec.size = 3;
  spec.guest.ram_bytes = 64ull << 20;
  core::VirtualCluster& vc = bed.dvc->create_vc(spec, {0, 1, 2}, {});
  bed.sim.run_until(20 * sim::kSecond);
  app::ParallelApp application(bed.sim, bed.fabric.network(), vc.contexts(),
                               test::alltoall_job(3, 600, 2048));
  bed.dvc->attach_app(vc, application);
  application.start();

  ckpt::NtpLscCoordinator lsc(bed.sim, {}, sim::Rng(3));
  lsc.set_metrics(&bed.metrics);
  std::optional<ckpt::LscResult> result;
  bed.sim.schedule_after(5 * sim::kSecond, [&] {
    bed.dvc->checkpoint_vc(vc, lsc,
                           [&](ckpt::LscResult res) { result = res; });
  });
  bed.sim.run_until(60 * sim::kSecond);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->ok);

  bool restored = false;
  bed.dvc->restore_vc(vc, {4, 5, 6}, [&](bool ok) { restored = ok; });
  bed.sim.run_until(300 * sim::kSecond);
  ASSERT_TRUE(restored);

  const MetricsRegistry& m = bed.metrics;
  // vm: every guest booted (twice: provisioning + restore), saved, restored.
  EXPECT_GE(m.counter_value("vm.hypervisor.boots"), 3u);
  EXPECT_EQ(m.counter_value("vm.hypervisor.saves"), 3u);
  EXPECT_EQ(m.counter_value("vm.hypervisor.restores"), 3u);
  EXPECT_GT(m.counter_value("vm.hypervisor.bytes_saved"), 0u);
  // ckpt: one successful coordinated round with its timing histograms.
  EXPECT_EQ(m.counter_value("ckpt.lsc.rounds"), 1u);
  EXPECT_EQ(m.counter_value("ckpt.lsc.members_saved"), 3u);
  ASSERT_NE(m.find_histogram("ckpt.lsc.round_s"), nullptr);
  EXPECT_EQ(m.find_histogram("ckpt.lsc.round_s")->count(), 1u);
  // net: the app's all-to-all traffic went over the wire.
  EXPECT_GT(m.counter_value("net.network.packets_sent"), 0u);
  EXPECT_GT(m.counter_value("net.network.packets_delivered"), 0u);
  // storage: images streamed through the store both ways.
  EXPECT_EQ(m.counter_value("storage.store.writes"), 3u);
  EXPECT_GT(m.counter_value("storage.store.reads"), 0u);
  EXPECT_EQ(m.counter_value("storage.images.members_added"), 3u);
  EXPECT_EQ(m.counter_value("storage.images.sets_sealed"), 1u);
  // core: the control plane recorded the checkpoint and the restore.
  EXPECT_EQ(m.counter_value("core.dvc.vcs_created"), 1u);
  EXPECT_EQ(m.counter_value("core.dvc.checkpoints"), 1u);
  EXPECT_EQ(m.counter_value("core.dvc.restores"), 1u);
  // Timeline: per-node save spans and the control-plane track exist.
  bool saw_save_span = false;
  bool saw_dvc_track = false;
  for (const auto& s : m.spans()) {
    saw_save_span |= s.track == "vm/node0" && s.name == "save" && !s.open;
    saw_dvc_track |= s.track == "dvc";
  }
  EXPECT_TRUE(saw_save_span);
  EXPECT_TRUE(saw_dvc_track);
}

TEST(TelemetryIntegrationTest, SchedulerReportsIntoSharedRegistry) {
  // rm::Scheduler is not part of the MachineRoom; it attaches to any
  // registry the same way every other subsystem does.
  sim::Simulation sim;
  hw::Fabric fabric(sim, {});
  fabric.add_cluster("c0", 4);
  rm::Scheduler sched(sim, fabric, {});
  MetricsRegistry m;
  sched.set_metrics(&m);

  rm::JobRequest req;
  req.name = "probe";
  req.nodes_requested = 2;
  req.node_seconds_work = 100.0;
  sched.submit(req);
  sim.run();

  EXPECT_EQ(m.counter_value("rm.scheduler.jobs_submitted"), 1u);
  EXPECT_EQ(m.counter_value("rm.scheduler.jobs_started"), 1u);
  EXPECT_EQ(m.counter_value("rm.scheduler.jobs_completed"), 1u);
  ASSERT_NE(m.find_gauge("rm.scheduler.running"), nullptr);
  EXPECT_DOUBLE_EQ(m.find_gauge("rm.scheduler.running")->value(), 0.0);
  EXPECT_DOUBLE_EQ(m.find_gauge("rm.scheduler.running")->max(), 1.0);
  ASSERT_EQ(m.spans().size(), 1u);
  EXPECT_EQ(m.spans()[0].track, "rm");
  EXPECT_EQ(m.spans()[0].name, "probe");
  EXPECT_FALSE(m.spans()[0].open);
}

TEST(TelemetryIntegrationTest, SameSeedRunsExportIdenticalJson) {
  auto run_once = [](std::string& metrics_json, std::string& trace_json) {
    TestBed::Options opt;
    opt.clusters = 1;
    opt.nodes_per_cluster = 4;
    opt.seed = 1234;
    TestBed bed(opt);
    core::VcSpec spec;
    spec.size = 3;
    spec.guest.ram_bytes = 32ull << 20;
    core::VirtualCluster& vc = bed.dvc->create_vc(spec, {0, 1, 2}, {});
    bed.sim.run_until(20 * sim::kSecond);
    app::ParallelApp application(bed.sim, bed.fabric.network(),
                                 vc.contexts(),
                                 test::alltoall_job(3, 50, 2048));
    bed.dvc->attach_app(vc, application);
    application.start();
    ckpt::NtpLscCoordinator lsc(bed.sim, {}, sim::Rng(9));
    lsc.set_metrics(&bed.metrics);
    bed.sim.schedule_after(5 * sim::kSecond,
                           [&] { bed.dvc->checkpoint_vc(vc, lsc, {}); });
    bed.sim.run_until(120 * sim::kSecond);
    std::ostringstream a;
    std::ostringstream b;
    bed.metrics.write_metrics_json(a);
    bed.metrics.write_chrome_trace(b);
    metrics_json = a.str();
    trace_json = b.str();
  };
  std::string m1;
  std::string t1;
  std::string m2;
  std::string t2;
  run_once(m1, t1);
  run_once(m2, t2);
  EXPECT_FALSE(m1.empty());
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(t1, t2);
}

}  // namespace
}  // namespace dvc::telemetry
