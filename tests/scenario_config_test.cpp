#include <gtest/gtest.h>

#include "tools/scenario_config.hpp"

namespace dvc::tools {
namespace {

TEST(ScenarioConfigTest, ParsesTypedValues) {
  const auto cfg = ScenarioConfig::parse(
      "# a comment\n"
      "experiment = reliability\n"
      "vc_size=26   # trailing comment\n"
      "iter_seconds =  0.25\n"
      "\n"
      "proactive = yes\n");
  EXPECT_EQ(cfg.get_string("experiment", ""), "reliability");
  EXPECT_EQ(cfg.get_int("vc_size", 0), 26);
  EXPECT_DOUBLE_EQ(cfg.get_double("iter_seconds", 0.0), 0.25);
  EXPECT_TRUE(cfg.get_bool("proactive", false));
  EXPECT_TRUE(cfg.has("vc_size"));
  EXPECT_FALSE(cfg.has("missing"));
}

TEST(ScenarioConfigTest, FallbacksApplyForMissingKeys) {
  const auto cfg = ScenarioConfig::parse("");
  EXPECT_EQ(cfg.get_string("x", "dflt"), "dflt");
  EXPECT_EQ(cfg.get_int("x", 7), 7);
  EXPECT_DOUBLE_EQ(cfg.get_double("x", 1.5), 1.5);
  EXPECT_FALSE(cfg.get_bool("x", false));
}

TEST(ScenarioConfigTest, RejectsMalformedInput) {
  EXPECT_THROW(ScenarioConfig::parse("not a key value line\n"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioConfig::parse("= value\n"), std::invalid_argument);
  const auto cfg = ScenarioConfig::parse("n = twelve\nb = maybe\n");
  EXPECT_THROW((void)cfg.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)cfg.get_double("n", 0.0), std::invalid_argument);
  EXPECT_THROW((void)cfg.get_bool("b", false), std::invalid_argument);
}

TEST(ScenarioConfigTest, MalformedLineReportsLineNumber) {
  try {
    ScenarioConfig::parse("a = 1\n\n# fine\nbroken line\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
  }
}

TEST(ScenarioConfigTest, BadNumericsNameTheKeyAndValue) {
  const auto cfg = ScenarioConfig::parse(
      "count = 12x\nratio = 0.5.1\nempty =\n");
  for (const char* key : {"count", "ratio", "empty"}) {
    try {
      (void)cfg.get_int(key, 0);
      FAIL() << "expected std::invalid_argument for key " << key;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos);
    }
  }
  EXPECT_THROW((void)cfg.get_double("ratio", 0.0), std::invalid_argument);
  // Trailing garbage after a valid prefix must not parse as the prefix.
  EXPECT_THROW((void)cfg.get_int("count", 0), std::invalid_argument);
}

TEST(ScenarioConfigTest, U32KeysRejectValuesThatWouldNarrow) {
  const auto cfg = ScenarioConfig::parse(
      "msg_bytes = 5000000000\nneg = -1\nmax = 4294967295\n");
  try {
    (void)cfg.get_u32("msg_bytes", 0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("msg_bytes"), std::string::npos) << what;
    EXPECT_NE(what.find("5000000000"), std::string::npos) << what;
  }
  EXPECT_THROW((void)cfg.get_u32("neg", 0), std::invalid_argument);
  EXPECT_EQ(cfg.get_u32("max", 0), 4294967295u);
  EXPECT_EQ(cfg.get_u32("missing", 7), 7u);
}

TEST(ScenarioConfigTest, ValidateKeysRejectsUnknownKey) {
  const auto cfg = ScenarioConfig::parse("experiment = migrate\nsede = 7\n");
  try {
    cfg.validate_keys({"experiment", "seed"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("sede"), std::string::npos);
  }
  // The full vocabulary passes.
  cfg.validate_keys({"experiment", "seed", "sede"});
}

TEST(ScenarioConfigTest, CoordinatorAndPartitionFaultKeysRoundTrip) {
  // The dvcsim vocabulary for the coordinator fault domain and the
  // partition fault class: every key parses to its intended type and
  // passes key validation; a typo in any of them still fails loudly.
  const auto cfg = ScenarioConfig::parse(
      "fault.partition_mtbf_s = 180\n"
      "fault.partition_s = 25\n"
      "fault.coordinator_crash_mtbf_s = 200\n"
      "fault.coordinator_down_s = 15.5\n"
      "coordinator.head_node = 0\n"
      "coordinator.lease_s = 10\n");
  cfg.validate_keys({"fault.partition_mtbf_s", "fault.partition_s",
                     "fault.coordinator_crash_mtbf_s",
                     "fault.coordinator_down_s", "coordinator.head_node",
                     "coordinator.lease_s"});
  EXPECT_DOUBLE_EQ(cfg.get_double("fault.partition_mtbf_s", 0.0), 180.0);
  EXPECT_DOUBLE_EQ(cfg.get_double("fault.partition_s", 0.0), 25.0);
  EXPECT_DOUBLE_EQ(cfg.get_double("fault.coordinator_crash_mtbf_s", 0.0),
                   200.0);
  EXPECT_DOUBLE_EQ(cfg.get_double("fault.coordinator_down_s", 0.0), 15.5);
  EXPECT_EQ(cfg.get_int("coordinator.head_node", -1), 0);
  EXPECT_DOUBLE_EQ(cfg.get_double("coordinator.lease_s", 0.0), 10.0);

  const auto typo = ScenarioConfig::parse("coordinator.headnode = 0\n");
  EXPECT_THROW(typo.validate_keys({"coordinator.head_node"}),
               std::invalid_argument);
}

TEST(ScenarioConfigTest, LastDuplicateWins) {
  const auto cfg = ScenarioConfig::parse("a = 1\na = 2\n");
  EXPECT_EQ(cfg.get_int("a", 0), 2);
  EXPECT_EQ(cfg.entries().size(), 1u);
}

}  // namespace
}  // namespace dvc::tools
