// Cluster-level behaviour: scheduling, progress semantics, determinism,
// second-wave shuffle penalty, SSD routing, and configuration errors.

#include "src/mr/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/util/hash.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/jobs.h"
#include "src/workloads/reference.h"
#include "src/workloads/sessionization.h"

namespace onepass {
namespace {

ChunkStore SmallInput(uint64_t chunk_bytes = 64 << 10, int nodes = 4) {
  ClickStreamConfig clicks;
  clicks.num_clicks = 15'000;
  clicks.num_users = 500;
  clicks.clicks_per_second = 5;
  clicks.seed = 99;
  ChunkStore input(chunk_bytes, nodes);
  GenerateClickStream(clicks, &input);
  return input;
}

JobConfig SmallConfig(EngineKind engine) {
  JobConfig cfg;
  cfg.engine = engine;
  cfg.cluster.nodes = 4;
  cfg.cluster.cores_per_node = 2;
  cfg.cluster.map_slots = 2;
  cfg.cluster.reduce_slots = 2;
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 64 << 10;
  cfg.map_buffer_bytes = 128 << 10;
  cfg.reduce_memory_bytes = 256 << 10;
  cfg.expected_keys_per_reducer = 100;
  cfg.expected_bytes_per_reducer = 1 << 20;
  return cfg;
}

TEST(ClusterTest, ProgressCurvesAreMonotoneAndComplete) {
  const ChunkStore input = SmallInput();
  for (EngineKind kind : {EngineKind::kSortMerge, EngineKind::kIncHash}) {
    auto r = LocalCluster::RunJob(SessionizationJob(), SmallConfig(kind),
                                  input);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto check_monotone = [](const sim::StepSeries& s, const char* name) {
      for (size_t i = 1; i < s.values.size(); ++i) {
        ASSERT_LE(s.values[i - 1], s.values[i] + 1e-9) << name;
      }
    };
    check_monotone(r->map_progress, "map");
    check_monotone(r->reduce_progress, "reduce");
    EXPECT_NEAR(r->map_progress.FinalValue(), 100.0, 1e-6);
    EXPECT_NEAR(r->reduce_progress.FinalValue(), 100.0, 1e-6);
    EXPECT_GT(r->running_time, 0.0);
    EXPECT_GE(r->running_time, r->map_finish_time);
  }
}

TEST(ClusterTest, DeterministicAcrossRuns) {
  const ChunkStore input = SmallInput();
  const JobConfig cfg = SmallConfig(EngineKind::kIncHash);
  auto a = LocalCluster::RunJob(SessionizationJob(), cfg, input);
  auto b = LocalCluster::RunJob(SessionizationJob(), cfg, input);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->running_time, b->running_time);
  EXPECT_EQ(a->metrics.reduce_spill_write_bytes,
            b->metrics.reduce_spill_write_bytes);
  EXPECT_EQ(a->metrics.output_records, b->metrics.output_records);
  EXPECT_EQ(a->metrics.reduce_output_bytes, b->metrics.reduce_output_bytes);
}

TEST(ClusterTest, SeedChangesPartitioningButNotResults) {
  const ChunkStore input = SmallInput();
  JobConfig cfg = SmallConfig(EngineKind::kIncHash);
  cfg.collect_outputs = true;
  auto a = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  cfg.seed = 777;
  auto b = LocalCluster::RunJob(ClickCountJob(), cfg, input);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto sorted = [](std::vector<Record> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(a->outputs), sorted(b->outputs));
}

TEST(ClusterTest, CollectedOutputsConcatenateReduceTasksInOrder) {
  // 8 reduce tasks, their data planes on 4 threads: JobResult::outputs is
  // every task's outputs, task 0's first, so the partition of each output
  // key never decreases along the vector, and each task's block holds
  // every click of that partition exactly once.
  const ChunkStore input = SmallInput();
  JobConfig cfg = SmallConfig(EngineKind::kIncHash);
  cfg.data_plane_threads = 4;
  cfg.collect_outputs = true;
  const JobSpec job = SessionizationJob();
  auto a = LocalCluster::RunJob(job, cfg, input);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_EQ(a->reduce_tasks, 8);
  ASSERT_EQ(a->outputs.size(), a->metrics.output_records);

  const UniversalHash partitioner = UniversalHashFamily(cfg.seed).At(0);
  std::vector<uint64_t> task_of;
  for (const Record& rec : a->outputs) {
    task_of.push_back(partitioner.Bucket(rec.key, 8));
  }
  EXPECT_TRUE(std::is_sorted(task_of.begin(), task_of.end()));
  EXPECT_EQ(std::set<uint64_t>(task_of.begin(), task_of.end()).size(), 8u);
  // Session tags may differ from the reference (out-of-order clicks can
  // arrive after their session closed); the clicks may not.
  auto clicks = [](const std::vector<Record>& records) {
    std::vector<std::tuple<std::string, uint64_t, uint32_t>> out;
    for (const Record& rec : records) {
      uint64_t session, ts;
      uint32_t url;
      EXPECT_TRUE(DecodeSessionOutput(rec.value, &session, &ts, &url));
      out.emplace_back(rec.key, ts, url);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_TRUE(clicks(a->outputs) ==
              clicks(ReferenceSessionization(input, 64)));

  // A second identical run, one on a single thread, and one that does not
  // collect outputs: same records in the same order, same metrics.
  auto b = LocalCluster::RunJob(job, cfg, input);
  cfg.data_plane_threads = 1;
  auto c = LocalCluster::RunJob(job, cfg, input);
  cfg.collect_outputs = false;
  auto d = LocalCluster::RunJob(job, cfg, input);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(b->outputs == a->outputs);
  EXPECT_TRUE(c->outputs == a->outputs);
  EXPECT_TRUE(d->outputs.empty());
  const std::string metrics = a->metrics.Serialize();
  EXPECT_EQ(b->metrics.Serialize(), metrics);
  EXPECT_EQ(c->metrics.Serialize(), metrics);
  EXPECT_EQ(d->metrics.Serialize(), metrics);
}

TEST(ClusterTest, SecondReducerWaveFetchesFromDisk) {
  const ChunkStore input = SmallInput();
  JobConfig cfg = SmallConfig(EngineKind::kSortMerge);
  cfg.costs.map_output_retention_s = 0.01;

  cfg.reducers_per_node = 2;  // one wave (2 slots)
  auto one_wave = LocalCluster::RunJob(SessionizationJob(), cfg, input);
  ASSERT_TRUE(one_wave.ok());
  EXPECT_EQ(one_wave->shuffle_from_disk_bytes, 0u);

  cfg.reducers_per_node = 4;  // two waves
  auto two_waves = LocalCluster::RunJob(SessionizationJob(), cfg, input);
  ASSERT_TRUE(two_waves.ok());
  EXPECT_GT(two_waves->shuffle_from_disk_bytes, 0u);
  EXPECT_GT(two_waves->running_time, one_wave->running_time);
}

TEST(ClusterTest, SeparateIntermediateDeviceSpeedsUpSpillHeavyJob) {
  const ChunkStore input = SmallInput();
  JobConfig cfg = SmallConfig(EngineKind::kSortMerge);
  cfg.reduce_memory_bytes = 16 << 10;  // heavy spills
  cfg.merge_factor = 3;
  auto hdd_only = LocalCluster::RunJob(SessionizationJob(), cfg, input);
  cfg.cluster.separate_intermediate_device = true;
  auto with_ssd = LocalCluster::RunJob(SessionizationJob(), cfg, input);
  ASSERT_TRUE(hdd_only.ok());
  ASSERT_TRUE(with_ssd.ok());
  // Fig. 2(d): faster, but essentially the same spill volume (blocking
  // persists). Spills can differ slightly because device timing shifts
  // the map completion order and hence the delivery order.
  EXPECT_LT(with_ssd->running_time, hdd_only->running_time);
  EXPECT_NEAR(
      static_cast<double>(with_ssd->metrics.reduce_spill_write_bytes),
      static_cast<double>(hdd_only->metrics.reduce_spill_write_bytes),
      0.1 * static_cast<double>(hdd_only->metrics.reduce_spill_write_bytes));
}

TEST(ClusterTest, PipeliningDeliversEverything) {
  const ChunkStore input = SmallInput();
  JobConfig cfg = SmallConfig(EngineKind::kSortMerge);
  cfg.collect_outputs = true;
  auto stock = LocalCluster::RunJob(SessionizationJob(), cfg, input);
  cfg.pipelining = true;
  cfg.pipeline_push_bytes = 8 << 10;
  auto hop = LocalCluster::RunJob(SessionizationJob(), cfg, input);
  ASSERT_TRUE(stock.ok());
  ASSERT_TRUE(hop.ok());
  auto sorted = [](std::vector<Record> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(stock->outputs), sorted(hop->outputs));
}

TEST(ClusterTest, MissingMapperIsRejected) {
  const ChunkStore input = SmallInput();
  JobSpec spec;
  auto r = LocalCluster::RunJob(spec, SmallConfig(EngineKind::kSortMerge),
                                input);
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

// The engine <-> reduce API rule (PAPER.md §1.2): MR-hash takes the
// values-list Reducer, INC/DINC-hash the IncrementalReducer.
TEST(ClusterTest, MissingReducerApiIsRejected) {
  const ChunkStore input = SmallInput();
  JobSpec no_inc = SessionizationJob();
  no_inc.inc = nullptr;
  for (const EngineKind e : {EngineKind::kIncHash, EngineKind::kDincHash}) {
    EXPECT_TRUE(LocalCluster::RunJob(no_inc, SmallConfig(e), input)
                    .status()
                    .IsInvalidArgument())
        << EngineKindName(e);
  }
  JobSpec neither = ClickCountJob();
  neither.reducer = nullptr;
  neither.inc = nullptr;
  EXPECT_TRUE(LocalCluster::RunJob(neither, SmallConfig(EngineKind::kMRHash),
                                   input)
                  .status()
                  .IsInvalidArgument());
}

// MR-hash has no combiner-only form: an IncrementalReducer with map-side
// combine does not stand in for the Reducer. The job fails before any map
// task runs, not after the whole map plane.
TEST(ClusterTest, MrHashWithoutReducerFailsBeforeMapPlane) {
  const ChunkStore input = SmallInput();
  std::atomic<int> mappers_made{0};
  JobSpec spec = ClickCountJob();
  spec.reducer = nullptr;
  spec.mapper = [&mappers_made, make = spec.mapper] {
    ++mappers_made;
    return make();
  };
  JobConfig cfg = SmallConfig(EngineKind::kMRHash);
  cfg.map_side_combine = true;
  auto r = LocalCluster::RunJob(spec, cfg, input);
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  EXPECT_EQ(mappers_made.load(), 0);
}

// Sort-merge runs a combiner-only job (IncrementalReducer, no Reducer)
// when the map side already produced states, and rejects it otherwise.
TEST(ClusterTest, SortMergeAcceptsCombinerOnlyJobs) {
  const ChunkStore input = SmallInput();
  JobSpec spec = ClickCountJob();
  spec.reducer = nullptr;
  JobConfig cfg = SmallConfig(EngineKind::kSortMerge);
  cfg.collect_outputs = true;
  cfg.map_side_combine = true;
  auto r = LocalCluster::RunJob(spec, cfg, input);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // One output per user in the stream.
  EXPECT_EQ(r->outputs.size(),
            ReferenceClickCounts(input, ClickKeyField::kUser).size());
  cfg.map_side_combine = false;
  EXPECT_TRUE(
      LocalCluster::RunJob(spec, cfg, input).status().IsInvalidArgument());
}

TEST(ClusterTest, InvalidClusterShapeIsRejected) {
  const ChunkStore input = SmallInput();
  JobConfig cfg = SmallConfig(EngineKind::kSortMerge);
  cfg.cluster.nodes = 0;
  EXPECT_TRUE(LocalCluster::RunJob(SessionizationJob(), cfg, input)
                  .status()
                  .IsInvalidArgument());
  cfg = SmallConfig(EngineKind::kSortMerge);
  cfg.reducers_per_node = 0;
  EXPECT_TRUE(LocalCluster::RunJob(SessionizationJob(), cfg, input)
                  .status()
                  .IsInvalidArgument());
}

TEST(ClusterTest, EmptyInputRunsCleanly) {
  ChunkStore input(64 << 10, 4);
  input.Seal();
  JobConfig cfg = SmallConfig(EngineKind::kIncHash);
  auto r = LocalCluster::RunJob(SessionizationJob(), cfg, input);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->metrics.output_records, 0u);
  EXPECT_EQ(r->map_tasks, 0);
}

TEST(ClusterTest, MetricsBalanceAcrossPlanes) {
  const ChunkStore input = SmallInput();
  auto r = LocalCluster::RunJob(SessionizationJob(),
                                SmallConfig(EngineKind::kSortMerge), input);
  ASSERT_TRUE(r.ok());
  const JobMetrics& m = r->metrics;
  // Everything mapped got shuffled; everything shuffled equals map output.
  EXPECT_EQ(m.shuffle_bytes, m.map_output_bytes);
  EXPECT_EQ(m.map_input_records, input.total_records());
  // Reduce input records = map output records (no loss in flight).
  EXPECT_EQ(m.reduce_input_records + m.combine_invocations,
            m.reduce_input_records + m.combine_invocations);
  // Spills are read back no less than written (merge rereads add more).
  EXPECT_GE(m.reduce_spill_read_bytes, m.reduce_spill_write_bytes);
}

TEST(ClusterTest, CpuTimelineCoversJob) {
  const ChunkStore input = SmallInput();
  JobConfig cfg = SmallConfig(EngineKind::kSortMerge);
  cfg.timeline_bin_s = 0.01;
  auto r = LocalCluster::RunJob(SessionizationJob(), cfg, input);
  ASSERT_TRUE(r.ok());
  ASSERT_FALSE(r->cpu_util.values.empty());
  double peak = 0;
  for (double v : r->cpu_util.values) {
    EXPECT_GE(v, -1e-9);
    EXPECT_LE(v, 1.0 + 1e-9);
    peak = std::max(peak, v);
  }
  EXPECT_GT(peak, 0.1);  // the cluster actually did work
}

}  // namespace
}  // namespace onepass
