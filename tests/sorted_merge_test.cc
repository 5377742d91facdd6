#include "src/engine/sorted_merge.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/util/random.h"

namespace onepass {
namespace {

KvBuffer SortedBuffer(std::vector<std::pair<std::string, std::string>> v) {
  std::sort(v.begin(), v.end());
  KvBuffer buf;
  for (const auto& [k, val] : v) buf.Append(k, val);
  return buf;
}

TEST(SortedMergeTest, MergesInGlobalKeyOrder) {
  const KvBuffer a = SortedBuffer({{"a", "1"}, {"c", "2"}, {"e", "3"}});
  const KvBuffer b = SortedBuffer({{"b", "4"}, {"d", "5"}});
  SortedKvMerger merger({&a, &b});
  std::string expected_keys = "abcde";
  std::string_view k, v;
  size_t i = 0;
  while (merger.Next(&k, &v)) {
    ASSERT_LT(i, expected_keys.size());
    EXPECT_EQ(k, std::string(1, expected_keys[i]));
    ++i;
  }
  EXPECT_EQ(i, 5u);
  EXPECT_EQ(merger.records_merged(), 5u);
}

TEST(SortedMergeTest, EqualKeysStableByInputIndex) {
  const KvBuffer a = SortedBuffer({{"k", "from-a"}});
  const KvBuffer b = SortedBuffer({{"k", "from-b"}});
  SortedKvMerger merger({&a, &b});
  std::string_view k, v;
  ASSERT_TRUE(merger.Next(&k, &v));
  EXPECT_EQ(v, "from-a");
  ASSERT_TRUE(merger.Next(&k, &v));
  EXPECT_EQ(v, "from-b");
}

TEST(SortedMergeTest, NextGroupCollectsAllValues) {
  const KvBuffer a = SortedBuffer({{"x", "1"}, {"y", "2"}});
  const KvBuffer b = SortedBuffer({{"x", "3"}, {"z", "4"}});
  const KvBuffer c = SortedBuffer({{"x", "5"}});
  SortedKvMerger merger({&a, &b, &c});
  std::string_view key;
  std::vector<std::string_view> values;
  ASSERT_TRUE(merger.NextGroup(&key, &values));
  EXPECT_EQ(key, "x");
  EXPECT_EQ(values.size(), 3u);
  ASSERT_TRUE(merger.NextGroup(&key, &values));
  EXPECT_EQ(key, "y");
  ASSERT_TRUE(merger.NextGroup(&key, &values));
  EXPECT_EQ(key, "z");
  EXPECT_FALSE(merger.NextGroup(&key, &values));
}

TEST(SortedMergeTest, EmptyAndSingleInputs) {
  const KvBuffer empty;
  const KvBuffer one = SortedBuffer({{"a", "1"}});
  {
    SortedKvMerger merger({&empty});
    std::string_view k, v;
    EXPECT_FALSE(merger.Next(&k, &v));
  }
  {
    SortedKvMerger merger({&empty, &one, &empty});
    std::string_view k, v;
    ASSERT_TRUE(merger.Next(&k, &v));
    EXPECT_EQ(k, "a");
    EXPECT_FALSE(merger.Next(&k, &v));
  }
  {
    SortedKvMerger merger({});
    std::string_view k, v;
    EXPECT_FALSE(merger.Next(&k, &v));
  }
}

using Pairs = std::vector<std::pair<std::string, std::string>>;

// Reference merge: every input concatenated in input order, then stably
// sorted by key, so equal keys keep input order and within-input order.
Pairs ReferenceMerge(const std::vector<Pairs>& inputs) {
  Pairs all;
  for (const Pairs& in : inputs) all.insert(all.end(), in.begin(), in.end());
  std::stable_sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    return std::string_view(a.first) < std::string_view(b.first);
  });
  return all;
}

// Keys built to stress the prefix comparison: shorter than 8 bytes, sharing
// 8+ byte prefixes, differing only past byte 8, embedded '\0' and 0xFF.
std::string StressKey(Xoshiro256StarStar* rng) {
  static const std::vector<std::string> kStems = {
      std::string(""),
      std::string("ab"),
      std::string("ab\0", 3),
      std::string("ab\x01"),
      std::string("ab\xff"),
      std::string("shared-p"),
      std::string("shared-prefix-"),
      std::string("\xff\xff\xff\xff\xff\xff\xff\xff"),
      std::string("\0\0\0\0\0\0\0\0", 8),
  };
  std::string key = kStems[rng->NextBounded(kStems.size())];
  const std::string tail_bytes("\0\x01z\xff", 4);
  const uint64_t tail = rng->NextBounded(4);
  for (uint64_t i = 0; i < tail; ++i) {
    key.push_back(tail_bytes[rng->NextBounded(tail_bytes.size())]);
  }
  return key;
}

// Builds k sorted inputs (some empty) whose values are unique tags, so any
// tie-order slip shows in the value sequence.
std::vector<Pairs> RandomInputs(Xoshiro256StarStar* rng, int k) {
  std::vector<Pairs> inputs(k);
  for (int i = 0; i < k; ++i) {
    if (rng->NextBounded(5) == 0) continue;  // empty input
    const uint64_t n = rng->NextBounded(40);
    for (uint64_t j = 0; j < n; ++j) {
      inputs[i].emplace_back(StressKey(rng), "in" + std::to_string(i) +
                                                 "#" + std::to_string(j));
    }
    std::stable_sort(inputs[i].begin(), inputs[i].end(),
                     [](const auto& a, const auto& b) {
                       return std::string_view(a.first) <
                              std::string_view(b.first);
                     });
  }
  return inputs;
}

std::vector<KvBuffer> ToBuffers(const std::vector<Pairs>& inputs) {
  std::vector<KvBuffer> bufs(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    for (const auto& [k, v] : inputs[i]) bufs[i].Append(k, v);
  }
  return bufs;
}

std::vector<const KvBuffer*> Pointers(const std::vector<KvBuffer>& bufs) {
  std::vector<const KvBuffer*> out;
  for (const KvBuffer& b : bufs) out.push_back(&b);
  return out;
}

class SortedMergeDifferentialTest : public testing::TestWithParam<int> {};

TEST_P(SortedMergeDifferentialTest, NextMatchesStableSortReference) {
  const int k = GetParam();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Xoshiro256StarStar rng(seed * 1000 + k);
    const std::vector<Pairs> inputs = RandomInputs(&rng, k);
    const Pairs expected = ReferenceMerge(inputs);
    const std::vector<KvBuffer> bufs = ToBuffers(inputs);
    SortedKvMerger merger(Pointers(bufs));
    Pairs got;
    std::string_view key, value;
    while (merger.Next(&key, &value)) got.emplace_back(key, value);
    ASSERT_EQ(got, expected) << "k=" << k << " seed=" << seed;
    EXPECT_EQ(merger.records_merged(), expected.size());
    EXPECT_FALSE(merger.Next(&key, &value));
    EXPECT_EQ(merger.records_merged(), expected.size());
  }
}

TEST_P(SortedMergeDifferentialTest, GroupsMatchReferenceWithInterleavedNext) {
  const int k = GetParam();
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Xoshiro256StarStar rng(seed * 7919 + k);
    const std::vector<Pairs> inputs = RandomInputs(&rng, k);
    const Pairs expected = ReferenceMerge(inputs);
    const std::vector<KvBuffer> bufs = ToBuffers(inputs);
    SortedKvMerger merger(Pointers(bufs));
    // Walk the reference and the merger together, choosing Next or
    // NextGroup at random each step. A group must hold every remaining
    // record of the reference's current key run.
    size_t pos = 0;
    for (;;) {
      if (rng.NextBounded(2) == 0) {
        std::string_view key, value;
        const bool ok = merger.Next(&key, &value);
        ASSERT_EQ(ok, pos < expected.size()) << "k=" << k << " seed=" << seed;
        if (!ok) break;
        EXPECT_EQ(key, expected[pos].first);
        EXPECT_EQ(value, expected[pos].second);
        ++pos;
      } else {
        std::string_view key;
        std::vector<std::string_view> values;
        const bool ok = merger.NextGroup(&key, &values);
        ASSERT_EQ(ok, pos < expected.size()) << "k=" << k << " seed=" << seed;
        if (!ok) break;
        EXPECT_EQ(key, expected[pos].first);
        size_t end = pos;
        while (end < expected.size() && expected[end].first == key) ++end;
        ASSERT_EQ(values.size(), end - pos) << "k=" << k << " seed=" << seed;
        for (size_t i = 0; i < values.size(); ++i) {
          EXPECT_EQ(values[i], expected[pos + i].second);
        }
        pos = end;
      }
      EXPECT_EQ(merger.records_merged(), pos);
    }
    EXPECT_EQ(merger.records_merged(), expected.size());
  }
}

INSTANTIATE_TEST_SUITE_P(FanIn, SortedMergeDifferentialTest,
                         testing::Values(0, 1, 2, 3, 22, 129));

TEST(SortedMergeTest, RandomizedMergeEqualsGlobalSort) {
  Xoshiro256StarStar rng(123);
  std::vector<Pairs> inputs;
  for (int r = 0; r < 7; ++r) {
    Pairs pairs;
    const int n = 1 + static_cast<int>(rng.NextBounded(50));
    for (int i = 0; i < n; ++i) {
      pairs.emplace_back("key" + std::to_string(rng.NextBounded(30)),
                         std::to_string(rng.Next() % 1000));
    }
    std::sort(pairs.begin(), pairs.end());
    inputs.push_back(std::move(pairs));
  }
  // Stable reference: equal keys keep input order, so a tie-order slip
  // shows in the values, not only the keys.
  const Pairs all = ReferenceMerge(inputs);
  const std::vector<KvBuffer> runs = ToBuffers(inputs);
  SortedKvMerger merger(Pointers(runs));
  std::string_view k, v;
  size_t i = 0;
  while (merger.Next(&k, &v)) {
    ASSERT_LT(i, all.size());
    EXPECT_EQ(k, all[i].first);
    EXPECT_EQ(v, all[i].second);
    ++i;
  }
  EXPECT_EQ(i, all.size());
}

TEST(SortedMergeTest, GroupThenNextInterleavingIsConsistent) {
  const KvBuffer a = SortedBuffer({{"a", "1"}, {"a", "2"}, {"b", "3"}});
  SortedKvMerger merger({&a});
  std::string_view key;
  std::vector<std::string_view> values;
  ASSERT_TRUE(merger.NextGroup(&key, &values));
  EXPECT_EQ(values.size(), 2u);
  std::string_view k, v;
  ASSERT_TRUE(merger.Next(&k, &v));
  EXPECT_EQ(k, "b");
  EXPECT_FALSE(merger.Next(&k, &v));
}

}  // namespace
}  // namespace onepass
