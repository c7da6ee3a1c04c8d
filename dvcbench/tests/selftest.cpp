// dvcbench self-tests: the tail-checked percentile, the metric-name
// grammar, the result schema (and its agreement with BENCHMARK.json), the
// replay check, the reference clock and the host-span trace.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "calib.hpp"
#include "host_trace.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace dvcbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, RefusesATailWithFewerThanTenSamplesBeyondIt) {
  EXPECT_THROW((void)percentile(ramp(99), 90), std::domain_error);
  EXPECT_NO_THROW((void)percentile(ramp(100), 90));
  EXPECT_THROW((void)percentile(ramp(19), 50), std::domain_error);
  EXPECT_NO_THROW((void)percentile(ramp(20), 50));
  EXPECT_THROW((void)percentile({}, 50), std::domain_error);
  EXPECT_EQ(samples_beyond(100, 90), 10u);
  EXPECT_EQ(samples_beyond(99, 90), 9u);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(percentile(ramp(101), 50), 50.0);
  EXPECT_DOUBLE_EQ(percentile(ramp(101), 90), 90.0);
  EXPECT_DOUBLE_EQ(percentile(ramp(100), 50), 49.5);
  std::vector<double> shuffled = ramp(100);
  std::swap(shuffled[3], shuffled[97]);
  EXPECT_DOUBLE_EQ(percentile(shuffled, 90), percentile(ramp(100), 90));
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0}), 2.5);
}

TEST(MetricNames, FollowTheGrammar) {
  EXPECT_TRUE(valid_metric_name("cells_per_s"));
  EXPECT_TRUE(valid_metric_name("sim.host_ns_per_event"));
  EXPECT_TRUE(valid_metric_name("9lives-x.y_z"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/no"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("sim s"));
  EXPECT_FALSE(valid_unit(std::string(17, 's')));

  std::set<std::string> names;
  for (const auto* defs : {&end_to_end_defs(), &per_layer_defs()}) {
    for (const MetricDef& d : *defs) {
      EXPECT_TRUE(valid_metric_name(d.name)) << d.name;
      EXPECT_TRUE(valid_unit(d.unit)) << d.unit;
      EXPECT_TRUE(names.insert(d.name).second) << d.name << " repeated";
    }
  }
}

TEST(ResultSchema, PrintsTheFourKeysInOrder) {
  RunResult r;
  r.correct = true;
  r.attempted = 12;
  r.failed = 0;
  r.metrics = {{"latency_ms", 1.25, "ms"}, {"setup_s", 0.5, "s"}};
  EXPECT_EQ(r.to_json(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

TEST(ResultSchema, RejectsMalformedResults) {
  RunResult r;
  r.attempted = 1;
  r.metrics = {{"a", 1.0, "s"}, {"a", 2.0, "s"}};
  EXPECT_THROW((void)r.to_json(), std::invalid_argument);
  r.metrics = {{"bad name", 1.0, "s"}};
  EXPECT_THROW((void)r.to_json(), std::invalid_argument);
  r.metrics = {{"a", std::numeric_limits<double>::quiet_NaN(), "s"}};
  EXPECT_THROW((void)r.to_json(), std::invalid_argument);
  r.metrics = {{"a", 1.0, "s"}};
  r.attempted = 0;
  EXPECT_THROW((void)r.to_json(), std::invalid_argument);
}

TEST(ResultSchema, NumbersKeepEveryDigit) {
  const double v = 0.1 + 0.2;
  EXPECT_EQ(std::stod(format_number(v)), v);
  EXPECT_EQ(format_number(2.0), "2");
}

TEST(ResultSchema, EmitMetricsNeedsExactlyTheDefinedNames) {
  const std::vector<MetricDef> defs = {{"a", "s"}, {"b", "ms"}};
  std::vector<Metric> out;
  emit_metrics(defs, {{"b", 2.0}, {"a", 1.0}}, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].name, "a");
  EXPECT_EQ(out[1].unit, "ms");
  out.clear();
  EXPECT_THROW(emit_metrics(defs, {{"a", 1.0}}, out), std::logic_error);
  out.clear();
  EXPECT_THROW(emit_metrics(defs, {{"a", 1.0}, {"b", 2.0}, {"c", 3.0}}, out),
               std::logic_error);
}

/// Metric names listed under `section` in BENCHMARK.json.
std::vector<std::string> benchmark_json_names(const std::string& text,
                                              const std::string& section) {
  const auto begin = text.find("\"" + section + "\"");
  EXPECT_NE(begin, std::string::npos) << section;
  const auto end = text.find(']', begin);
  std::vector<std::string> names;
  const std::string key = "\"name\": \"";
  for (auto p = text.find(key, begin); p != std::string::npos && p < end;
       p = text.find(key, p + 1)) {
    const auto from = p + key.size();
    names.push_back(text.substr(from, text.find('"', from) - from));
  }
  return names;
}

TEST(ResultSchema, AgreesWithBenchmarkJson) {
  std::ifstream file(std::string(DVCBENCH_REPO_ROOT) + "/BENCHMARK.json");
  ASSERT_TRUE(file) << "BENCHMARK.json not found";
  std::ostringstream text;
  text << file.rdbuf();
  const auto names_of = [](const std::vector<MetricDef>& defs) {
    std::vector<std::string> v;
    for (const MetricDef& d : defs) v.emplace_back(d.name);
    return v;
  };
  EXPECT_EQ(benchmark_json_names(text.str(), "end_to_end"),
            names_of(end_to_end_defs()));
  EXPECT_EQ(benchmark_json_names(text.str(), "per_layer"),
            names_of(per_layer_defs()));
  EXPECT_EQ(benchmark_json_names(text.str(), "workloads"), workload_names());
}

TEST(Replay, TripsOnAPerturbedOutcome) {
  const auto w = make_workload("sweep26", 7, DVCBENCH_GRID_DIR);
  const CellResult a = w->run(0);
  const CellResult b = w->run(0);
  ASSERT_TRUE(a.ok) << a.outcome;
  EXPECT_EQ(replay_mismatches({a.outcome}, {{0, b.outcome}}), 0u);

  std::string perturbed = b.outcome;
  const auto at = perturbed.find("\"sim_time_s\":");
  ASSERT_NE(at, std::string::npos);
  perturbed[perturbed.find_first_of("0123456789", at)] ^= 1;
  EXPECT_EQ(replay_mismatches({a.outcome}, {{0, perturbed}}), 1u);
  EXPECT_EQ(replay_mismatches({a.outcome}, {{5, b.outcome}}), 1u)
      << "a rerun of a cell with no first run is a mismatch";
}

TEST(Workloads, SameSeedSameInputsOtherSeedOtherInputs) {
  for (const std::string& name : workload_names()) {
    const auto a = make_workload(name, 3, DVCBENCH_GRID_DIR);
    const auto b = make_workload(name, 3, DVCBENCH_GRID_DIR);
    const auto c = make_workload(name, 4, DVCBENCH_GRID_DIR);
    ASSERT_EQ(a->size(), b->size()) << name;
    EXPECT_GE(a->size(), 100u) << name << ": p90 needs 100 cells per pass";
    for (std::size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ(a->key(i), b->key(i));
    }
    EXPECT_NE(a->key(0), c->key(0)) << name;
  }
  EXPECT_THROW((void)make_workload("nope", 1, DVCBENCH_GRID_DIR),
               std::invalid_argument);
}

TEST(ReferenceClock, TaskIsDeterministicAndScalesFollowTheLocalSpeed) {
  EXPECT_EQ(reference_task(), kReferenceChecksum);
  EXPECT_EQ(reference_task(), kReferenceChecksum);

  EXPECT_DOUBLE_EQ(reference_scale({kReferenceTaskS}), 1.0);
  EXPECT_DOUBLE_EQ(reference_scale({1e-3, 4e-3, 2e-3}), kReferenceTaskS / 2e-3);
  EXPECT_THROW((void)reference_scale({}), std::logic_error);

  // A machine that halves its speed half-way through: each point is scaled
  // by the speed around it, not by the run's median.
  std::vector<double> tasks(20, kReferenceTaskS);
  for (std::size_t i = 10; i < tasks.size(); ++i) tasks[i] *= 2;
  const std::vector<double> scales = reference_scales(tasks);
  ASSERT_EQ(scales.size(), tasks.size());
  EXPECT_DOUBLE_EQ(scales.front(), 1.0);
  EXPECT_DOUBLE_EQ(scales[5], 1.0);
  EXPECT_DOUBLE_EQ(scales[15], 0.5);
  EXPECT_DOUBLE_EQ(scales.back(), 0.5);
  // Fewer tasks than the window: every point uses all of them.
  EXPECT_EQ(reference_scales({1e-3, 3e-3}),
            (std::vector<double>{kReferenceTaskS / 2e-3,
                                 kReferenceTaskS / 2e-3}));
  EXPECT_TRUE(reference_scales({}).empty());
}

TEST(HostTrace, RecordsParentsAndWritesAChromeTrace) {
  HostTrace t;
  t.set_cell(3);
  {
    const HostTrace::Scope outer(t, "tools.cell");
    const HostTrace::Scope inner(t, "sim.run_until");
  }
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[0].parent, HostTrace::kNoParent);
  EXPECT_EQ(t.spans()[1].parent, 0);
  EXPECT_EQ(t.spans()[1].cell, 3u);
  EXPECT_LE(t.spans()[0].start_ns, t.spans()[1].start_ns);
  EXPECT_GE(t.spans()[0].end_ns, t.spans()[1].end_ns);
  EXPECT_EQ(t.count("sim.run_until"), 1u);

  std::ostringstream out;
  t.write_chrome_trace(out, {{"sim.events", 42.0, "count"}});
  const std::string s = out.str();
  EXPECT_EQ(s.front(), '[');
  EXPECT_NE(s.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(s.find("\"parent\": 0"), std::string::npos);
  EXPECT_NE(s.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(s.find("\"sim.events\""), std::string::npos);
}

}  // namespace
}  // namespace dvcbench
