// Unit tests for the map task runner: sort path (spills, external merge,
// combiner), hash paths (partition grouping, init, map-side combine), and
// pipelining pushes.

#include "src/mr/map_runner.h"

#include <gtest/gtest.h>

#include <map>

#include "src/util/crc32c.h"
#include "src/util/random.h"
#include "src/workloads/count_workloads.h"

namespace onepass {
namespace {

class IdentityMapper : public Mapper {
 public:
  void Map(std::string_view key, std::string_view value,
           Emitter* out) override {
    out->Emit(key, value);
  }
};

KvBuffer MakeChunk(int records, int key_space, size_t value_bytes = 32) {
  KvBuffer chunk;
  for (int i = 0; i < records; ++i) {
    chunk.Append("k" + std::to_string(i % key_space),
                 std::string(value_bytes, 'v'));
  }
  return chunk;
}

JobConfig BaseConfig(EngineKind engine) {
  JobConfig cfg;
  cfg.engine = engine;
  cfg.map_buffer_bytes = 64 << 10;
  return cfg;
}

// Gathers (key, count) over all partitions of all pushes.
std::map<std::string, uint64_t> AllRecords(const MapTaskOutput& out) {
  std::map<std::string, uint64_t> m;
  for (const auto& push : out.pushes) {
    for (const auto& part : push.partitions) {
      KvBufferReader reader(part);
      std::string_view k, v;
      while (reader.Next(&k, &v)) ++m[std::string(k)];
    }
  }
  return m;
}

TEST(MapRunnerTest, ModeSelection) {
  JobConfig cfg;
  cfg.engine = EngineKind::kSortMerge;
  EXPECT_EQ(SelectMapOutputMode(cfg, false), MapOutputMode::kSortRaw);
  cfg.map_side_combine = true;
  EXPECT_EQ(SelectMapOutputMode(cfg, true), MapOutputMode::kSortCombine);
  cfg.engine = EngineKind::kMRHash;
  cfg.map_side_combine = false;
  EXPECT_EQ(SelectMapOutputMode(cfg, true), MapOutputMode::kHashRaw);
  cfg.map_side_combine = true;
  EXPECT_EQ(SelectMapOutputMode(cfg, true), MapOutputMode::kHashCombine);
  cfg.engine = EngineKind::kIncHash;
  cfg.map_side_combine = false;
  EXPECT_EQ(SelectMapOutputMode(cfg, true), MapOutputMode::kHashInit);
}

TEST(MapRunnerTest, SortPathSortsWithinPartitions) {
  const JobConfig cfg = BaseConfig(EngineKind::kSortMerge);
  IdentityMapper mapper;
  UniversalHashFamily family(1);
  MapRunner runner(cfg, MapOutputMode::kSortRaw, family.At(0), 4, &mapper,
                   nullptr);
  auto out = runner.Run(MakeChunk(500, 50));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->sorted);
  ASSERT_EQ(out->pushes.size(), 1u);
  for (const auto& part : out->pushes[0].partitions) {
    KvBufferReader reader(part);
    std::string_view k, v, prev;
    std::string prev_owned;
    while (reader.Next(&k, &v)) {
      EXPECT_LE(prev_owned, std::string(k));
      prev_owned = std::string(k);
      (void)prev;
    }
  }
}

TEST(MapRunnerTest, SortPathPreservesEveryRecord) {
  const JobConfig cfg = BaseConfig(EngineKind::kSortMerge);
  IdentityMapper mapper;
  UniversalHashFamily family(1);
  MapRunner runner(cfg, MapOutputMode::kSortRaw, family.At(0), 8, &mapper,
                   nullptr);
  auto out = runner.Run(MakeChunk(1000, 100));
  ASSERT_TRUE(out.ok());
  const auto all = AllRecords(*out);
  uint64_t total = 0;
  for (const auto& [k, c] : all) total += c;
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(all.size(), 100u);
  EXPECT_EQ(out->metrics.map_output_records, 1000u);
}

TEST(MapRunnerTest, SortPathSpillsOnSmallBuffer) {
  JobConfig cfg = BaseConfig(EngineKind::kSortMerge);
  cfg.map_buffer_bytes = 2 << 10;  // forces external sort
  cfg.merge_factor = 3;
  IdentityMapper mapper;
  UniversalHashFamily family(1);
  MapRunner runner(cfg, MapOutputMode::kSortRaw, family.At(0), 4, &mapper,
                   nullptr);
  auto out = runner.Run(MakeChunk(2000, 100, 64));
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out->metrics.map_spill_write_bytes, 0u);
  EXPECT_GT(out->metrics.map_spill_read_bytes, 0u);
  // Output is still complete and sorted.
  uint64_t total = 0;
  for (const auto& [k, c] : AllRecords(*out)) total += c;
  EXPECT_EQ(total, 2000u);
  EXPECT_TRUE(out->sorted);
}

TEST(MapRunnerTest, SortCombineCollapsesKeys) {
  JobConfig cfg = BaseConfig(EngineKind::kSortMerge);
  cfg.map_side_combine = true;
  CountingIncReducer inc(0);
  // Emit count-states through a counting map.
  class CountMapper : public Mapper {
   public:
    void Map(std::string_view key, std::string_view, Emitter* out) override {
      out->Emit(key, EncodeCountState(1, false));
    }
  } mapper;
  UniversalHashFamily family(1);
  MapRunner runner(cfg, MapOutputMode::kSortCombine, family.At(0), 4,
                   &mapper, &inc);
  auto out = runner.Run(MakeChunk(1000, 10));
  ASSERT_TRUE(out.ok());
  // 1000 records over 10 keys collapse to 10 output records.
  EXPECT_EQ(out->metrics.map_output_records, 10u);
  // Each carries the full count.
  uint64_t total_count = 0;
  for (const auto& push : out->pushes) {
    for (const auto& part : push.partitions) {
      KvBufferReader reader(part);
      std::string_view k, v;
      while (reader.Next(&k, &v)) {
        uint64_t c = 0;
        bool e = false;
        ASSERT_TRUE(DecodeCountState(v, &c, &e));
        total_count += c;
      }
    }
  }
  EXPECT_EQ(total_count, 1000u);
}

TEST(MapRunnerTest, HashRawGroupsByPartitionWithoutSorting) {
  const JobConfig cfg = BaseConfig(EngineKind::kMRHash);
  IdentityMapper mapper;
  UniversalHashFamily family(1);
  MapRunner runner(cfg, MapOutputMode::kHashRaw, family.At(0), 4, &mapper,
                   nullptr);
  auto out = runner.Run(MakeChunk(500, 50));
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->sorted);
  uint64_t total = 0;
  for (const auto& [k, c] : AllRecords(*out)) total += c;
  EXPECT_EQ(total, 500u);
  // Partition routing must agree with the partitioner.
  const UniversalHash h1 = family.At(0);
  for (size_t p = 0; p < out->pushes[0].partitions.size(); ++p) {
    KvBufferReader reader(out->pushes[0].partitions[p]);
    std::string_view k, v;
    while (reader.Next(&k, &v)) {
      EXPECT_EQ(h1.Bucket(k, 4), p);
    }
  }
}

TEST(MapRunnerTest, HashCombineProducesOneStatePerKeyPerFlush) {
  JobConfig cfg = BaseConfig(EngineKind::kIncHash);
  cfg.map_side_combine = true;
  CountingIncReducer inc(0);
  class CountMapper : public Mapper {
   public:
    void Map(std::string_view key, std::string_view, Emitter* out) override {
      out->Emit(key, EncodeCountState(1, false));
    }
  } mapper;
  UniversalHashFamily family(1);
  MapRunner runner(cfg, MapOutputMode::kHashCombine, family.At(0), 4,
                   &mapper, &inc);
  auto out = runner.Run(MakeChunk(4000, 20));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->metrics.map_output_records, 20u);
  EXPECT_LT(out->metrics.map_output_bytes, 4000u * 10);
}

TEST(MapRunnerTest, PipeliningPushesAtGranularity) {
  JobConfig cfg = BaseConfig(EngineKind::kSortMerge);
  cfg.pipelining = true;
  cfg.pipeline_push_bytes = 4 << 10;
  IdentityMapper mapper;
  UniversalHashFamily family(1);
  MapRunner runner(cfg, MapOutputMode::kSortRaw, family.At(0), 4, &mapper,
                   nullptr);
  auto out = runner.Run(MakeChunk(1000, 100, 64));
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out->pushes.size(), 4u);  // many small pushes
  // Gates are valid op indices in increasing order.
  uint32_t prev_gate = 0;
  for (const auto& push : out->pushes) {
    EXPECT_LT(push.gate_op, out->trace.ops.size());
    EXPECT_GE(push.gate_op, prev_gate);
    prev_gate = push.gate_op;
  }
  // All records still delivered.
  uint64_t total = 0;
  for (const auto& [k, c] : AllRecords(*out)) total += c;
  EXPECT_EQ(total, 1000u);
  // No map-side merge in pipelining mode: no spill accounting.
  EXPECT_EQ(out->metrics.map_spill_write_bytes, 0u);
}

TEST(MapRunnerTest, EmptyChunk) {
  const JobConfig cfg = BaseConfig(EngineKind::kSortMerge);
  IdentityMapper mapper;
  UniversalHashFamily family(1);
  MapRunner runner(cfg, MapOutputMode::kSortRaw, family.At(0), 4, &mapper,
                   nullptr);
  auto out = runner.Run(KvBuffer());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->pushes.size(), 1u);
  EXPECT_EQ(out->metrics.map_output_records, 0u);
}

TEST(MapRunnerTest, TraceStartsWithStartupAndInputRead) {
  const JobConfig cfg = BaseConfig(EngineKind::kSortMerge);
  IdentityMapper mapper;
  UniversalHashFamily family(1);
  MapRunner runner(cfg, MapOutputMode::kSortRaw, family.At(0), 2, &mapper,
                   nullptr);
  auto out = runner.Run(MakeChunk(10, 5));
  ASSERT_TRUE(out.ok());
  ASSERT_GE(out->trace.ops.size(), 3u);
  EXPECT_EQ(out->trace.ops[0].tag, OpTag::kStartup);
  EXPECT_EQ(out->trace.ops[1].tag, OpTag::kMapInput);
  EXPECT_TRUE(out->trace.ops[1].is_read);
}

// Tie-order pin for the sort path. std::sort is not stable, so records
// with equal (partition, key) leave the map buffer in whatever order the
// introsort's moves put them; sort-merge sessionization and order-sensitive
// combiners see that order. The chunk mixes short keys, keys sharing long
// prefixes, keys differing only past byte 8, and keys with embedded '\0' /
// 0xFF bytes, each repeated many times with distinct values. The digests
// pin every partition's bytes, equal-key order included, as the plain
// (partition, key) comparison sorted them; a comparator or sort change that
// moves any tie changes them.
KvBuffer TieOrderChunk() {
  const std::vector<std::string> keys = {
      std::string(""),
      std::string("a"),
      std::string("ab"),
      std::string("ab\0", 3),
      std::string("ab\x01"),
      std::string("ab\xff"),
      std::string("ab\xff\xff\xff\xff\xff\xff\xff"),
      std::string("12345678"),
      std::string("12345678\0", 9),
      std::string("123456789"),
      std::string("the quick brown"),
      std::string("the quick brown fox"),
      std::string("the quick brown fix"),
      std::string("\xff\xff\xff\xff\xff\xff\xff\xff"),
      std::string("\xff\xff\xff\xff\xff\xff\xff\xff\x00", 9),
      std::string("\0\0\0\0\0\0\0\0", 8),
      std::string("\0\0\0\0\0\0\0\0\x01", 9),
  };
  Xoshiro256StarStar rng(2024);
  KvBuffer chunk;
  for (int i = 0; i < 3000; ++i) {
    const std::string& key = keys[rng.NextBounded(keys.size())];
    chunk.Append(key, "v" + std::to_string(i) +
                          std::string(rng.NextBounded(24), 'x'));
  }
  return chunk;
}

// CRC32C chained over every partition of every push, in push order.
uint32_t PartitionDigest(const MapTaskOutput& out) {
  uint32_t crc = 0;
  for (const auto& push : out.pushes) {
    for (const auto& part : push.partitions) {
      crc = Crc32cExtend(crc, part.data());
    }
  }
  return crc;
}

// True iff some equal-key run in some partition is not in emit order, i.e.
// the pin below would see a change of the sort's tie permutation.
bool HasUnstableTies(const MapTaskOutput& out) {
  for (const auto& push : out.pushes) {
    for (const auto& part : push.partitions) {
      KvBufferReader reader(part);
      std::string_view k, v;
      std::string prev_key;
      long prev_seq = -1;
      bool first = true;
      while (reader.Next(&k, &v)) {
        const long seq = std::stol(std::string(v.substr(1)));
        if (!first && k == prev_key && seq < prev_seq) return true;
        first = false;
        prev_key = std::string(k);
        prev_seq = seq;
      }
    }
  }
  return false;
}

TEST(MapRunnerTest, SortPathTieOrderIsPinned) {
  const KvBuffer chunk = TieOrderChunk();
  IdentityMapper mapper;
  UniversalHashFamily family(1);
  struct Case {
    const char* name;
    uint64_t map_buffer_bytes;
    bool pipelining;
    uint32_t digest;
  };
  const Case cases[] = {
      // Whole chunk sorted in memory.
      {"in-memory", 1 << 20, false, 0x27ee2c21u},
      // Spilled runs merged by the external sort.
      {"external", 8 << 10, false, 0xda2ecf39u},
      // Every cut published as its own sorted push.
      {"pipelined", 8 << 10, true, 0x90a95d44u},
  };
  for (const Case& c : cases) {
    JobConfig cfg = BaseConfig(EngineKind::kSortMerge);
    cfg.map_buffer_bytes = c.map_buffer_bytes;
    cfg.pipelining = c.pipelining;
    cfg.pipeline_push_bytes = c.pipelining ? c.map_buffer_bytes : 0;
    MapRunner runner(cfg, MapOutputMode::kSortRaw, family.At(0), 3, &mapper,
                     nullptr);
    auto out = runner.Run(chunk);
    ASSERT_TRUE(out.ok()) << c.name;
    EXPECT_EQ(out->metrics.map_output_records, 3000u) << c.name;
    EXPECT_TRUE(HasUnstableTies(*out)) << c.name;
    EXPECT_EQ(PartitionDigest(*out), c.digest)
        << c.name << ": 0x" << std::hex << PartitionDigest(*out);
  }
}

}  // namespace
}  // namespace onepass
