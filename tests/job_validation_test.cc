// Job validation through the one front door, LocalCluster::RunJob: a
// job spec and its JobConfig either run or come back as InvalidArgument
// before any map task. The suite keeps the name these checks had when a
// builder class fronted RunJob; the checks themselves are unchanged.

#include "src/mr/cluster.h"

#include <gtest/gtest.h>

#include <string>

#include "src/workloads/clickstream.h"
#include "src/workloads/jobs.h"

namespace onepass {
namespace {

JobConfig ValidConfig() {
  JobConfig cfg;
  cfg.engine = EngineKind::kIncHash;
  cfg.cluster.nodes = 4;
  cfg.cluster.cores_per_node = 2;
  cfg.cluster.map_slots = 2;
  cfg.cluster.reduce_slots = 2;
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 64 << 10;
  cfg.map_side_combine = true;
  return cfg;
}

ChunkStore EmptyInput() {
  ChunkStore input(64 << 10, 4);
  input.Seal();
  return input;
}

Status RunOnEmptyInput(const JobSpec& spec, const JobConfig& cfg) {
  return LocalCluster::RunJob(spec, cfg, EmptyInput()).status();
}

TEST(JobBuilderTest, ValidConfigurationPasses) {
  EXPECT_TRUE(RunOnEmptyInput(ClickCountJob(), ValidConfig()).ok());
}

TEST(JobBuilderTest, MissingMapperFails) {
  JobSpec spec = ClickCountJob();
  spec.mapper = nullptr;
  const Status s = RunOnEmptyInput(spec, ValidConfig());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("mapper"), std::string_view::npos);
}

TEST(JobBuilderTest, EngineApiMismatchDetected) {
  JobSpec no_inc = ClickCountJob();
  no_inc.inc = nullptr;
  JobConfig dinc = ValidConfig();
  dinc.engine = EngineKind::kDincHash;
  EXPECT_TRUE(RunOnEmptyInput(no_inc, dinc).IsInvalidArgument());

  JobSpec neither = ClickCountJob();
  neither.reducer = nullptr;
  neither.inc = nullptr;
  JobConfig mr = ValidConfig();
  mr.engine = EngineKind::kMRHash;
  EXPECT_TRUE(RunOnEmptyInput(neither, mr).IsInvalidArgument());
}

TEST(JobBuilderTest, RangeChecks) {
  JobConfig cfg = ValidConfig();
  cfg.chunk_bytes = 0;
  EXPECT_TRUE(RunOnEmptyInput(ClickCountJob(), cfg).IsInvalidArgument());
  cfg = ValidConfig();
  cfg.merge_factor = 1;
  EXPECT_TRUE(RunOnEmptyInput(ClickCountJob(), cfg).IsInvalidArgument());
  cfg = ValidConfig();
  cfg.engine = EngineKind::kDincHash;
  cfg.dinc_coverage_threshold = 1.5;
  EXPECT_TRUE(RunOnEmptyInput(ClickCountJob(), cfg).IsInvalidArgument());
  cfg = ValidConfig();
  cfg.cluster.nodes = 0;
  EXPECT_TRUE(RunOnEmptyInput(ClickCountJob(), cfg).IsInvalidArgument());
  cfg = ValidConfig();
  cfg.snapshots = -1;
  EXPECT_TRUE(RunOnEmptyInput(ClickCountJob(), cfg).IsInvalidArgument());
}

TEST(JobBuilderTest, RunsEndToEnd) {
  ClickStreamConfig clicks;
  clicks.num_clicks = 5'000;
  clicks.num_users = 100;
  ChunkStore input(64 << 10, 4);
  GenerateClickStream(clicks, &input);

  JobConfig cfg = ValidConfig();
  cfg.collect_outputs = true;
  auto r = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // One output per user that actually appeared in the stream.
  EXPECT_GT(r->outputs.size(), 80u);
  EXPECT_LE(r->outputs.size(), 100u);
  EXPECT_EQ(r->outputs.size(), r->metrics.reduce_groups);
}

TEST(JobBuilderTest, RunSurfacesValidationErrors) {
  EXPECT_TRUE(RunOnEmptyInput(JobSpec(), ValidConfig()).IsInvalidArgument());
}

}  // namespace
}  // namespace onepass
