// Config-space contract (DESIGN.md §5.11): every execution knob changes
// cost, never answers. kKnobs declares each knob's values (the first is
// the baseline), invariance class and engagement counters; kRows names
// points of the knob product. One rule checks every row: flip each knob
// that is off its baseline back to it, and compare the two runs under the
// knob's class. Every run must also equal its workload's reference and
// show each knob's counters. A failure names the row and the flipped
// knob, a one-line repro. Runs are memoized per process, so a shared
// baseline runs once.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/mr/cluster.h"
#include "src/mr/job_manager.h"
#include "src/util/simd_dispatch.h"
#include "src/workloads/clickstream.h"
#include "src/workloads/documents.h"
#include "src/workloads/jobs.h"
#include "src/workloads/reference.h"
#include "src/workloads/sessionization.h"
#include "tests/job_result_util.h"

namespace onepass {
namespace {

// Order-free digests of a multiset of lines: the sum of the lines' hashes
// is the same in any order, and needs no sort.
size_t Hash(const std::string& line) { return std::hash<std::string>()(line); }

size_t OutputsDigest(const std::vector<Record>& records) {
  size_t sum = 0;
  for (const Record& rec : records) sum += Hash(rec.key + '=' + rec.value);
  return sum;
}

// Sessionization output as (user, ts, url) lines without the session id:
// the click multiset, which every engine keeps under any memory pressure.
size_t SessionClicks(const std::vector<Record>& records) {
  size_t sum = 0;
  for (const Record& rec : records) {
    uint64_t session = 0, ts = 0;
    uint32_t url = 0;
    const bool ok = DecodeSessionOutput(rec.value, &session, &ts, &url);
    sum += Hash(rec.key + (ok ? ' ' + std::to_string(ts) + ' ' +
                                    std::to_string(url)
                              : " undecodable"));
  }
  return sum;
}

// Bytes the intermediate byte plane moved: U2 + U3 + U4 (reads + writes).
uint64_t IntermediateBytes(const JobMetrics& m) {
  return m.map_spill_write_bytes + m.map_spill_read_bytes +
         m.map_output_bytes + m.shuffle_bytes + m.reduce_spill_write_bytes +
         m.reduce_spill_read_bytes;
}

// ---------------------------------------------------------------------------
// The contract table.

enum class Invariance { kBytes, kMultiset, kReference };

enum Knob {
  kThreads, kBatch, kSimd, kCodec, kShuffle, kCombine, kCheckpoint, kFaults,
  kNumKnobs,
};

using M = const JobMetrics&;

struct KnobSpec {
  const char* name;
  std::vector<const char*> values;  // values[0] is the baseline
  Invariance invariance;
  // engaged > 0 off the baseline and idle == 0 at it, in every run
  // (nullptr: no counter; idle defaults to engaged).
  uint64_t (*engaged)(M) = nullptr;
  uint64_t (*idle)(M) = nullptr;
};

const KnobSpec kKnobs[kNumKnobs] = {
    {"threads", {"1", "2", "8"}, Invariance::kBytes},
    {"batch", {"1", "7", "64", "0"}, Invariance::kBytes},
    {"simd", {"scalar", "detected"}, Invariance::kBytes},
    {"codec", {"none", "lz"}, Invariance::kMultiset,
     [](M m) { return m.codec_shuffle_raw_bytes; },
     [](M m) {
       return m.codec_shuffle_raw_bytes + m.codec_shuffle_encoded_bytes +
              m.codec_map_spill_raw_bytes + m.codec_reduce_spill_raw_bytes +
              m.codec_bucket_raw_bytes;
     }},
    {"shuffle", {"disk", "resident", "resident@4K"}, Invariance::kMultiset,
     [](M m) {
       return m.resident_publish_segments + m.resident_spilled_segments;
     },
     [](M m) {
       return m.resident_publish_segments + m.resident_hit_bytes +
              m.resident_spilled_segments;
     }},
    {"combine", {"task", "node", "node@4K"}, Invariance::kMultiset,
     [](M m) {
       return std::min(m.node_combine_tasks, m.node_combine_input_records);
     },
     [](M m) { return m.node_combine_tasks + m.node_combine_input_records; }},
    {"checkpoint", {"0", "4"}, Invariance::kMultiset,
     [](M m) { return m.checkpoints_written; }},
    {"faults", {"clean", "union", "reduce-crash"}, Invariance::kReference,
     [](M m) { return m.node_crashes; }},
};

// Zipf-1.1 users with 128-byte padded records, or Zipf-0.8 users.
enum class Input { kZipf11Padded, kZipf08 };
// Click count at 8 KB reduce memory; sessionization at 64 KB without
// map-side combine; FrequentUserJob(10) at 8 KB.
enum class Workload { kClicks, kSessions, kThreshold };

// The answer with delivery order factored out: the click multiset of a
// sessionization (its session ids follow arrival in the bounded buffer),
// and the deduplicated flagged set of a threshold job (DINC may re-flag a
// key, and a crossing reports the count it crosses at).
size_t OrderFreeAnswer(Workload workload, const std::vector<Record>& records) {
  if (workload == Workload::kClicks) return OutputsDigest(records);
  if (workload == Workload::kSessions) return SessionClicks(records);
  std::set<std::string> flagged;
  for (const Record& rec : records) flagged.insert(rec.key);
  size_t sum = 0;
  for (const std::string& key : flagged) sum += Hash(key);
  return sum;
}

using Values = std::array<int, kNumKnobs>;  // indexes into KnobSpec::values
struct Row {
  Input input;
  Workload workload;
  Values v;
};

constexpr Input kZ11 = Input::kZipf11Padded, kZ08 = Input::kZipf08;
constexpr Workload kClk = Workload::kClicks, kSes = Workload::kSessions,
                   kThr = Workload::kThreshold;

// Sessionization never runs under combine = node: its combine is
// order-sensitive inside the bounded session buffer, which the combine
// scope contract excludes (config.h, DESIGN.md §5.10). The 4 KB budgets
// sit in rows whose pushes overflow them. R1, R4 and R20 hold the thread
// flips that cross no other multiset knob. R16 is the regression row for
// the codec-free delivery order (DESIGN.md §5.5).
const Row kRows[] = {
    // v: threads batch simd codec shuffle combine checkpoint faults
    /* R1  */ {kZ11, kClk, {2, 1, 0, 0, 0, 0, 0, 0}},
    /* R2  */ {kZ11, kClk, {2, 2, 0, 1, 0, 2, 0, 0}},
    /* R3  */ {kZ11, kClk, {0, 3, 0, 0, 0, 0, 0, 0}},
    /* R4  */ {kZ11, kClk, {2, 3, 0, 0, 0, 0, 0, 1}},
    /* R5  */ {kZ11, kClk, {0, 1, 0, 0, 0, 0, 0, 1}},
    /* R6  */ {kZ08, kClk, {1, 2, 0, 0, 2, 1, 0, 0}},
    /* R7  */ {kZ08, kClk, {2, 3, 0, 0, 2, 0, 0, 1}},
    /* R8  */ {kZ08, kClk, {1, 3, 1, 1, 1, 2, 0, 1}},
    /* R9  */ {kZ08, kClk, {2, 1, 0, 1, 1, 1, 0, 0}},
    /* R10 */ {kZ08, kClk, {0, 2, 1, 0, 1, 0, 1, 1}},
    /* R11 */ {kZ08, kClk, {1, 1, 1, 0, 2, 2, 1, 2}},
    /* R12 */ {kZ08, kClk, {0, 0, 0, 0, 0, 1, 0, 1}},
    /* R13 */ {kZ08, kClk, {0, 3, 0, 1, 1, 1, 1, 2}},
    /* R14 */ {kZ08, kClk, {0, 0, 0, 0, 0, 2, 0, 0}},
    /* R15 */ {kZ08, kClk, {2, 2, 0, 0, 0, 1, 0, 2}},
    /* R16 */ {kZ08, kSes, {0, 0, 0, 1, 2, 0, 0, 0}},
    /* R17 */ {kZ08, kSes, {0, 2, 0, 0, 2, 0, 0, 1}},
    /* R18 */ {kZ08, kThr, {2, 0, 1, 0, 0, 1, 1, 0}},
    /* R19 */ {kZ08, kThr, {1, 1, 0, 0, 0, 0, 0, 1}},
    /* R20 */ {kZ11, kClk, {1, 0, 0, 0, 0, 0, 0, 0}},
    /* R21 */ {kZ08, kSes, {2, 3, 1, 0, 1, 0, 0, 0}},
    /* R22 */ {kZ08, kSes, {1, 1, 0, 0, 0, 0, 1, 2}},
    /* R23 */ {kZ08, kThr, {2, 3, 0, 1, 1, 1, 0, 0}},
    /* R24 */ {kZ08, kThr, {0, 2, 1, 0, 2, 2, 0, 2}},
    /* R25 */ {kZ08, kClk, {0, 0, 0, 0, 1, 0, 0, 2}},
};

std::string Describe(EngineKind engine, const Row& row) {
  static const char* const kInputs[] = {"zipf1.1-padded", "zipf0.8"};
  static const char* const kWorkloads[] = {"clicks", "sessions", "threshold"};
  std::string s = "engine=" + std::string(EngineKindName(engine)) +
                  " input=" + kInputs[static_cast<int>(row.input)] +
                  " workload=" + kWorkloads[static_cast<int>(row.workload)];
  for (int k = 0; k < kNumKnobs; ++k) {
    s += std::string(" ") + kKnobs[k].name + "=" +
         kKnobs[k].values.at(row.v[k]);
  }
  return s;
}

const ChunkStore& Store(Input input, int replication) {
  static std::map<std::pair<Input, int>, std::unique_ptr<ChunkStore>> cache;
  std::unique_ptr<ChunkStore>& slot = cache[{input, replication}];
  if (!slot) {
    const bool padded = input == Input::kZipf11Padded;
    slot = std::make_unique<ChunkStore>(64 << 10, 5, replication);
    GenerateClickStream({.num_clicks = padded ? 24'000u : 30'000u,
                         .num_users = padded ? 1'200u : 1'500u,
                         .user_skew = padded ? 1.1 : 0.8,
                         .record_bytes = padded ? 128u : 64u,
                         .seed = padded ? 58u : 11u},
                        slot.get());
  }
  return *slot;
}

JobConfig BuildConfig(EngineKind engine, const Row& row) {
  const Values& v = row.v;
  const bool sessions = row.workload == Workload::kSessions;
  JobConfig cfg;
  cfg.engine = engine;
  cfg.cluster = {.nodes = 5, .cores_per_node = 2, .map_slots = 2,
                 .reduce_slots = 2};
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 64 << 10;
  cfg.merge_factor = 4;
  cfg.bucket_page_bytes = 1024;
  cfg.collect_outputs = true;
  cfg.expected_keys_per_reducer = 150;
  cfg.expected_bytes_per_reducer = 64 << 10;
  cfg.map_side_combine = !sessions;
  cfg.reduce_memory_bytes = sessions ? 64 << 10 : 8 << 10;  // 8 KB: spills
  cfg.data_plane_threads = std::array{1, 2, 8}[v[kThreads]];
  cfg.batch_records = std::array{1, 7, 64, 0}[v[kBatch]];
  cfg.block_codec = v[kCodec] ? BlockCodecKind::kLz : BlockCodecKind::kNone;
  cfg.shuffle_mode = v[kShuffle] ? ShuffleMode::kResident : ShuffleMode::kDisk;
  cfg.resident_cache_bytes = v[kShuffle] == 2 ? 4096 : 0;
  cfg.combine_scope = v[kCombine] ? CombineScope::kNode : CombineScope::kTask;
  cfg.node_combine_budget_bytes = v[kCombine] == 2 ? 4096 : 0;
  cfg.checkpoint_interval_segments = v[kCheckpoint] ? 4 : 0;
  cfg.replication = v[kFaults] ? 2 : 1;
  if (v[kFaults] == 1) {
    // Every fault kind at once, corruption and torn writes included.
    cfg.faults.crashes.push_back({.node = 2, .at_map_fraction = 0.5});
    cfg.faults.stragglers.push_back(
        {.node = 1, .cpu_factor = 2.0, .disk_factor = 1.5});
    cfg.faults.disk_error_rate = 0.05;
    cfg.faults.fetch_failure_rate = 0.05;
    cfg.faults.speculative_execution = true;
    cfg.faults.corruption_rate = 0.01;
    cfg.faults.torn_writes = true;
  } else if (v[kFaults] == 2) {
    cfg.faults.crashes.push_back({.node = 1, .at_reduce_fraction = 0.3});
  }
  return cfg;
}

// The reference's order-free answer for a workload over an input.
size_t Reference(Input input, Workload workload) {
  static std::map<std::pair<Input, Workload>, size_t> cache;
  auto [it, fresh] = cache.try_emplace({input, workload});
  if (!fresh) return it->second;
  const ChunkStore& store = Store(input, 1);
  if (workload == Workload::kSessions) {
    return it->second = SessionClicks(
               ReferenceSessionization(store, kDefaultClickPayloadBytes));
  }
  std::vector<Record> want;
  for (const auto& [user, n] :
       ReferenceClickCounts(store, ClickKeyField::kUser)) {
    if (workload == Workload::kClicks || n >= 10) {
      want.push_back({user, std::to_string(n)});
    }
  }
  return it->second = OrderFreeAnswer(workload, want);
}

// A finished run: its counters, the hash of its fingerprint, and the
// digests of its outputs and its order-free answer.
struct RunRecord {
  JobMetrics metrics;
  size_t fingerprint, outputs, answer;
};

// Runs each point once per process and checks its answer and its knobs'
// counters as it lands.
const RunRecord* Run(EngineKind engine, const Row& row) {
  static std::map<std::string, std::optional<RunRecord>> runs;
  const std::string key = Describe(engine, row);
  auto [it, fresh] = runs.try_emplace(key);
  if (!fresh) return it->second ? &*it->second : nullptr;
  const JobSpec job = row.workload == kClk   ? ClickCountJob()
                      : row.workload == kSes ? SessionizationJob()
                                             : FrequentUserJob(10);
  const SimdTier saved = CurrentSimdTier();
  SetSimdTier(row.v[kSimd] ? DetectSimdTier() : SimdTier::kScalar);
  auto run = LocalCluster::RunJob(job, BuildConfig(engine, row),
                                  Store(row.input, row.v[kFaults] ? 2 : 1));
  SetSimdTier(saved);
  if (!run.ok()) {
    ADD_FAILURE() << key << ": " << run.status().ToString();
    return nullptr;
  }
  const size_t answer = OrderFreeAnswer(row.workload, run->outputs);
  EXPECT_EQ(answer, Reference(row.input, row.workload))
      << key << ": differs from the reference";
  for (int k = 0; k < kNumKnobs; ++k) {
    const KnobSpec& knob = kKnobs[k];
    if (knob.engaged == nullptr) continue;
    if (row.v[k] != 0) {
      EXPECT_GT(knob.engaged(run->metrics), 0u)
          << key << ": " << knob.name << " never engaged";
    } else {
      EXPECT_EQ((knob.idle ? knob.idle : knob.engaged)(run->metrics), 0u)
          << key << ": " << knob.name << " charged counters at its baseline";
    }
  }
  it->second = RunRecord{run->metrics, Hash(Fingerprint(*run)),
                         OutputsDigest(run->outputs), answer};
  return &*it->second;
}

// A flip sets one knob of a row back to its baseline. Reference-class
// knobs have none: Run checks every answer against the reference.
bool IsFlip(const Row& row, int k) {
  return row.v[k] != 0 && kKnobs[k].invariance != Invariance::kReference;
}

// The one comparison rule: flip knob k of `row` back to its baseline and
// compare the two runs under k's class.
void CheckFlip(EngineKind engine, const Row& row, Knob k) {
  const KnobSpec& knob = kKnobs[k];
  Row flipped = row;
  flipped.v[k] = 0;
  const std::string where = Describe(engine, row) + " | flip " + knob.name +
                            "=" + knob.values[row.v[k]] + "->" +
                            knob.values[0];
  const RunRecord* got = Run(engine, row);
  const RunRecord* base = Run(engine, flipped);
  if (got == nullptr || base == nullptr) return;
  if (knob.invariance == Invariance::kBytes) {
    EXPECT_EQ(got->fingerprint, base->fingerprint) << where;
  } else if (k == kCombine && row.workload == kThr) {
    // A node-level push moves the count a threshold crosses at.
    EXPECT_EQ(got->answer, base->answer) << where;
  } else {
    EXPECT_EQ(got->outputs, base->outputs) << where;
  }

  const JobMetrics& g = got->metrics;
  const JobMetrics& m = base->metrics;
  if (k == kCodec) {
    EXPECT_LT(IntermediateBytes(g), IntermediateBytes(m)) << where;
  }
  if (k == kShuffle && row.v[k] == 2) {
    EXPECT_GT(g.resident_spilled_segments, 0u) << where;
  }
  if (k == kCombine) {
    EXPECT_LE(g.shuffle_bytes, m.shuffle_bytes) << where;
    // Sort-merge's sorted combine streams and never degrades to the sketch.
    if (row.v[k] == 2 && engine != EngineKind::kSortMerge) {
      EXPECT_GT(g.node_combine_sketch_shards, 0u) << where;
    }
  }
}

// ---------------------------------------------------------------------------
// Each flip is checked under one test id of the suites the table replaced,
// so test history stays comparable: CaseOf names it as "Suite.Name".

std::string CaseOf(const Row& r, Knob k) {
  const std::string run = r.v[kFaults] ? "FaultedRun" : "CleanRun";
  switch (k) {
    case kThreads:  // by the off-baseline knob the flip crosses
      return (r.v[kCodec]     ? "CodecEquivalence.LzRun"
              : r.v[kShuffle] ? "ResidentEquivalence.ResidentRun"
              : r.v[kCombine] ? "NodeCombineEquivalence.NodeRun"
                              : "ParallelDeterminism." + run) +
             "ByteIdenticalAcrossThreadCounts";
    case kBatch:
      return "BatchEquivalence." + run + "ByteIdenticalAcrossBatchShapes";
    case kCodec:
      return r.v[kFaults] ? "CodecEquivalence.FaultedCorruptedRunSameAnswer"
                          : "CodecEquivalence.CleanRunSameAnswerFewerBytes";
    case kShuffle:
      return "ResidentEquivalence." +
             (r.v[kShuffle] == 2   ? "CachePressureSpillsMidJobSameAnswer"
              : r.workload == kSes ? "SessionizationSameAnswer"
                                   : run + "SameAnswer");
    case kCombine:
      return "NodeCombineEquivalence." +
             (r.v[kCombine] == 2   ? "BudgetPressureSketchFallbackSameAnswer"
              : r.workload == kThr ? "ThresholdWorkloadFlagsSameKeys"
              : r.v[kFaults] == 2  ? "ReducePhaseCrashSameAnswer"
                                   : run + "SameAnswer");
    default:
      return "ConfigSpace.EveryOtherFlipHoldsItsContract";
  }
}

class ConfigSpace : public ::testing::TestWithParam<EngineKind> {};
using ParallelDeterminism = ConfigSpace;
using BatchEquivalence = ConfigSpace;
using CodecEquivalence = ConfigSpace;
using ResidentEquivalence = ConfigSpace;
using NodeCombineEquivalence = ConfigSpace;

// Checks every flip whose case is `id`.
void CheckCase(EngineKind engine, const std::string& id) {
  int flips = 0;
  for (const Row& row : kRows) {
    for (int k = 0; k < kNumKnobs; ++k) {
      if (IsFlip(row, k) && CaseOf(row, Knob(k)) == id) {
        CheckFlip(engine, row, Knob(k));
        ++flips;
      }
    }
  }
  EXPECT_GT(flips, 0) << id << " checks no flip";
}

#define CASE(Suite, Name) \
  TEST_P(Suite, Name) { CheckCase(GetParam(), #Suite "." #Name); }
CASE(ParallelDeterminism, CleanRunByteIdenticalAcrossThreadCounts)
CASE(ParallelDeterminism, FaultedRunByteIdenticalAcrossThreadCounts)
CASE(BatchEquivalence, CleanRunByteIdenticalAcrossBatchShapes)
CASE(BatchEquivalence, FaultedRunByteIdenticalAcrossBatchShapes)
CASE(CodecEquivalence, CleanRunSameAnswerFewerBytes)
CASE(CodecEquivalence, FaultedCorruptedRunSameAnswer)
CASE(CodecEquivalence, LzRunByteIdenticalAcrossThreadCounts)
CASE(ResidentEquivalence, CleanRunSameAnswer)
CASE(ResidentEquivalence, FaultedRunSameAnswer)
CASE(ResidentEquivalence, SessionizationSameAnswer)
CASE(ResidentEquivalence, CachePressureSpillsMidJobSameAnswer)
CASE(ResidentEquivalence, ResidentRunByteIdenticalAcrossThreadCounts)
CASE(NodeCombineEquivalence, CleanRunSameAnswer)
CASE(NodeCombineEquivalence, FaultedRunSameAnswer)
CASE(NodeCombineEquivalence, ReducePhaseCrashSameAnswer)
CASE(NodeCombineEquivalence, ThresholdWorkloadFlagsSameKeys)
CASE(NodeCombineEquivalence, BudgetPressureSketchFallbackSameAnswer)
CASE(NodeCombineEquivalence, NodeRunByteIdenticalAcrossThreadCounts)
CASE(ConfigSpace, EveryOtherFlipHoldsItsContract)

std::string EngineParamName(const ::testing::TestParamInfo<EngineKind>& i) {
  std::string name(EngineKindName(i.param));
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

#define ENGINES(Suite)                                                      \
  INSTANTIATE_TEST_SUITE_P(                                                 \
      Engines, Suite,                                                       \
      ::testing::Values(EngineKind::kSortMerge, EngineKind::kMRHash,        \
                        EngineKind::kIncHash, EngineKind::kDincHash),       \
      EngineParamName)
ENGINES(ConfigSpace);
ENGINES(ParallelDeterminism);
ENGINES(BatchEquivalence);
ENGINES(CodecEquivalence);
ENGINES(ResidentEquivalence);
ENGINES(NodeCombineEquivalence);

// Every flip's case is a registered test.
TEST(ConfigSpace, EveryFlipHasACase) {
  std::set<std::string> cases;
  const ::testing::UnitTest& unit = *::testing::UnitTest::GetInstance();
  for (int i = 0; i < unit.total_test_suite_count(); ++i) {
    const ::testing::TestSuite& suite = *unit.GetTestSuite(i);
    const std::string name = suite.name();  // "Engines/Suite"
    for (int j = 0; j < suite.total_test_count(); ++j) {
      const std::string test = suite.GetTestInfo(j)->name();  // "Name/engine"
      cases.insert(name.substr(name.find('/') + 1) + '.' +
                   test.substr(0, test.find('/')));
    }
  }
  for (const Row& row : kRows) {
    for (int k = 0; k < kNumKnobs; ++k) {
      if (!IsFlip(row, k)) continue;
      EXPECT_EQ(cases.count(CaseOf(row, Knob(k))), 1u)
          << Describe(EngineKind::kSortMerge, row) << " | flip "
          << kKnobs[k].name << ": no test " << CaseOf(row, Knob(k));
    }
  }
}

TEST(ConfigSpace, TableCoversEveryKnobPair) {
  auto covered = [](auto has) {
    return std::any_of(std::begin(kRows), std::end(kRows), has);
  };
  for (int a = 0; a < kNumKnobs; ++a) {
    for (size_t va = 0; va < kKnobs[a].values.size(); ++va) {
      for (int b = a + 1; b < kNumKnobs; ++b) {
        for (size_t vb = 0; vb < kKnobs[b].values.size(); ++vb) {
          EXPECT_TRUE(covered([&](const Row& row) {
            return row.v[a] == int(va) && row.v[b] == int(vb);
          })) << "no row has " << kKnobs[a].name << "=" << kKnobs[a].values[va]
              << " with " << kKnobs[b].name << "=" << kKnobs[b].values[vb];
        }
      }
      // Every workload meets every knob value, but sessionization never
      // runs under combine = node.
      for (const Workload w : {kClk, kSes, kThr}) {
        const bool excluded = w == kSes && a == kCombine && va != 0;
        EXPECT_EQ(covered([&](const Row& row) {
                    return row.workload == w && row.v[a] == int(va);
                  }),
                  !excluded)
            << "workload " << static_cast<int>(w) << " with "
            << kKnobs[a].name << "=" << kKnobs[a].values[va];
      }
    }
  }
}

TEST(ConfigSpace, FingerprintCoversEveryField) {
  const auto kDoubles = {&JobResult::running_time, &JobResult::map_finish_time,
                         &JobResult::map_cpu_s, &JobResult::reduce_cpu_s};
  JobResult r;
  for (double JobResult::*f : kDoubles) r.*f = 2.5;
  r.outputs = {{"k", "1"}};
  const std::string want = Fingerprint(r);
  std::vector<std::function<void(JobResult*)>> perturbations = {
      [](JobResult* x) { x->map_tasks += 1; },
      [](JobResult* x) { x->reduce_tasks += 1; },
      [](JobResult* x) { x->shuffle_from_disk_bytes += 1; },
      [](JobResult* x) { x->metrics.shuffle_bytes += 1; },
      [](JobResult* x) { x->cpu_util.values.push_back(0.5); },
      [](JobResult* x) { x->iowait.bin_seconds = 1; },
      [](JobResult* x) { x->outputs[0].value = "2"; },
  };
  for (double JobResult::*f : kDoubles) {  // one ulp must show
    perturbations.push_back(
        [f](JobResult* x) { x->*f = std::nextafter(x->*f, 3.0); });
  }
  for (sim::StepSeries JobResult::*f :
       {&JobResult::map_progress, &JobResult::reduce_progress,
        &JobResult::shuffle_progress, &JobResult::reduce_work_progress,
        &JobResult::output_progress, &JobResult::active_map,
        &JobResult::active_shuffle, &JobResult::active_merge,
        &JobResult::active_reduce}) {
    perturbations.push_back([f](JobResult* x) { (x->*f).Add(1, 1); });
  }
  for (size_t i = 0; i < perturbations.size(); ++i) {
    JobResult changed = r;
    perturbations[i](&changed);
    EXPECT_NE(Fingerprint(changed), want) << "perturbation " << i;
  }
  // Host wall-clock fields are outside the determinism contract.
  r.map_plane_wall_s = r.reduce_plane_wall_s = 1;
  EXPECT_EQ(Fingerprint(r), want);
}

// ---------------------------------------------------------------------------
// Manager rows: a JobManager batch (two tenants, staggered arrivals, a
// queue that overflows, a deadline that fires, fair share with preemption,
// faults) under the threads knob's byte class.

std::string Fingerprint(const ManagerResult& r) {
  std::string fp;
  for (const JobOutcome& o : r.jobs) {
    fp.append(JobOutcomeStateName(o.state)).append(1, '\n');
    Put(&fp, {{"retries", o.retries}, {"arrival", o.arrival_time},
              {"start", o.start_time}, {"finish", o.finish_time},
              {"status", static_cast<int>(o.status.code())}});
    if (o.state == JobOutcomeState::kCompleted) fp += Fingerprint(o.result);
  }
  for (const TenantStats& t : r.tenants) {
    fp += "tenant " + t.name + '\n';
    Put(&fp, {{"submitted", t.jobs_submitted}, {"completed", t.jobs_completed},
              {"rejected", t.jobs_rejected}, {"failed", t.jobs_failed},
              {"deadline", t.jobs_deadline_exceeded},
              {"mean", t.mean_latency_s}, {"p50", t.p50_latency_s},
              {"p99", t.p99_latency_s}, {"max", t.max_latency_s}});
  }
  Put(&fp, {{"makespan", r.makespan}, {"avg_util", r.avg_cpu_utilization},
            {"preemptions", r.preemptions},
            {"throttle_skips", r.throttle_skips},
            {"rejected", r.rejected_jobs}});
  Put(&fp, "cpu_util", r.cpu_util);
  return fp;
}

std::vector<JobSubmission> ManagerBatch(bool faulted, int threads) {
  static const ChunkStore* input = [] {
    auto* store = new ChunkStore(32 << 10, 4, 2);
    GenerateClickStream(
        {.num_clicks = 12'000, .num_users = 600, .seed = 99}, store);
    return store;
  }();
  JobConfig cfg;
  cfg.engine = EngineKind::kMRHash;
  cfg.cluster = {.nodes = 4, .cores_per_node = 2, .map_slots = 2,
                 .reduce_slots = 2};
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 32 << 10;
  cfg.map_buffer_bytes = 128 << 10;
  cfg.reduce_memory_bytes = 64 << 10;
  cfg.map_side_combine = true;
  cfg.collect_outputs = true;
  cfg.expected_keys_per_reducer = 150;
  cfg.expected_bytes_per_reducer = 64 << 10;
  cfg.replication = 2;
  cfg.data_plane_threads = threads;
  if (faulted) {
    cfg.faults.stragglers = {{.node = 1, .cpu_factor = 2.0}};
    cfg.faults.fetch_failure_rate = 0.1;
    cfg.faults.disk_error_rate = 0.02;
    cfg.faults.speculative_execution = true;
  }
  // {tenant, arrival, deadline}: job 3's deadline expires mid-flight, and
  // job 6 overflows the 2-deep queue at the burst peak.
  const double kJobs[][3] = {{0, 0.0, 0},  {0, 0.0, 0},   {1, 0.05, 0},
                             {1, 0.1, 0.3}, {0, 0.1, 0},  {1, 0.1, 0},
                             {0, 0.1, 0},  {1, 1.5, 0}};
  std::vector<JobSubmission> subs;
  for (const auto& [tenant, arrival, deadline] : kJobs) {
    subs.push_back({ClickCountJob(), cfg, input, static_cast<int>(tenant),
                    arrival, deadline});
    subs.back().config.seed += subs.size() - 1;  // distinct fault schedules
  }
  return subs;
}

// Fair share with preemption (the defaults) over the batch's cluster.
ManagerConfig BatchManager() {
  ManagerConfig mc;
  mc.cluster = ManagerBatch(false, 1)[0].config.cluster;
  mc.max_concurrent_jobs = 3;
  mc.max_queued_jobs = 2;
  mc.max_job_retries = 1;
  mc.tenants = {{"batch", 1.0, 0}, {"interactive", 3.0, 0}};
  mc.timeline_bin_s = 5.0;
  return mc;
}

TEST(MultiTenantDeterminismTest, IdenticalAcrossThreadCounts) {
  for (const bool faulted : {false, true}) {
    std::string baseline;  // threads = 1
    for (const char* threads : kKnobs[kThreads].values) {
      auto mr = JobManager::Run(BatchManager(),
                                ManagerBatch(faulted, std::stoi(threads)));
      ASSERT_TRUE(mr.ok()) << mr.status().ToString();
      EXPECT_GT(mr->rejected_jobs, 0);  // the batch exercises rejection ...
      EXPECT_TRUE(std::any_of(  // ... and deadlines
          mr->jobs.begin(), mr->jobs.end(), [](const JobOutcome& o) {
            return o.state == JobOutcomeState::kDeadlineExceeded;
          }));
      if (baseline.empty()) baseline = Fingerprint(*mr);
      EXPECT_TRUE(Fingerprint(*mr) == baseline)
          << "manager batch faulted=" << faulted << " threads=" << threads
          << " | flip threads->1";
    }
  }
}

// Back-to-back runs of the same batch are bit-identical too (no hidden
// global state in the pool or manager).
TEST(MultiTenantDeterminismTest, RepeatedRunsIdentical) {
  ManagerConfig mc = BatchManager();
  mc.max_job_retries = 0;
  mc.tenants = {{"batch", 1.0, 2}, {"interactive", 3.0, 0}};
  const std::vector<JobSubmission> subs = ManagerBatch(true, 0);
  auto a = JobManager::Run(mc, subs);
  auto b = JobManager::Run(mc, subs);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(Fingerprint(*a), Fingerprint(*b));
}

TEST(CodecZipfWordCount, IntermediateBytesDropAtLeastTwofold) {
  // The acceptance bar: on the Zipf'd word-count (trigram) workload the
  // encoded byte plane is at most half the raw one.
  DocumentCorpusConfig docs;
  docs.num_records = 6'000;
  docs.words_per_record = 20;
  docs.vocabulary = 40'000;
  docs.word_skew = 1.0;
  docs.seed = 20110614;
  ChunkStore input(256 << 10, 3, 1);
  GenerateDocuments(docs, &input);

  JobConfig cfg;
  cfg.engine = EngineKind::kSortMerge;  // the spill-heaviest engine
  cfg.cluster.nodes = 3;
  cfg.cluster.cores_per_node = 2;
  cfg.cluster.map_slots = 2;
  cfg.cluster.reduce_slots = 2;
  cfg.reducers_per_node = 2;
  cfg.chunk_bytes = 256 << 10;
  cfg.map_buffer_bytes = 128 << 10;   // forces map-side spill runs
  cfg.reduce_memory_bytes = 64 << 10;  // forces reduce-side runs
  cfg.merge_factor = 4;
  cfg.collect_outputs = false;

  auto RunWith = [&](BlockCodecKind codec) {
    cfg.block_codec = codec;
    auto r = LocalCluster::RunJob(TrigramCountJob(/*threshold=*/5), cfg,
                                  input);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return IntermediateBytes(r->metrics);
  };
  const uint64_t raw = RunWith(BlockCodecKind::kNone);
  const uint64_t enc = RunWith(BlockCodecKind::kLz);
  EXPECT_GE(raw, 2 * enc) << "raw=" << raw << " encoded=" << enc
                          << " ratio=" << static_cast<double>(raw) / enc;
}

}  // namespace
}  // namespace onepass
