// Microbenchmark: the map-side CPU cost the paper attacks (§2.3) —
// sorting the map output buffer by (partition, key) versus hash-based
// grouping (partition-count + one-scan placement, or a combine hash
// table). These are the *real* CPU costs of the data plane (the simulated
// cost model is calibrated separately).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/mr/map_runner.h"
#include "src/util/hash.h"
#include "src/util/kv_buffer.h"
#include "src/util/random.h"
#include "src/workloads/clickstream.h"

namespace onepass {
namespace {

std::vector<std::pair<std::string, std::string>> MakePairs(int n) {
  Xoshiro256StarStar rng(7);
  ZipfGenerator users(50'000, 0.8);
  std::vector<std::pair<std::string, std::string>> pairs;
  pairs.reserve(n);
  for (int i = 0; i < n; ++i) {
    pairs.emplace_back(UserKey(users.Next(&rng)), std::string(52, 'v'));
  }
  return pairs;
}

// Sorts the buffer exactly as MapRunner's sort path does: SortEntry
// records with the KeyPrefix computed at emit, ordered by SortEntryLess.
void BM_SortMapBuffer(benchmark::State& state) {
  const auto pairs = MakePairs(static_cast<int>(state.range(0)));
  UniversalHashFamily family(1);
  const UniversalHash h1 = family.At(0);
  for (auto _ : state) {
    std::vector<SortEntry> entries;
    entries.reserve(pairs.size());
    for (const auto& [k, v] : pairs) {
      entries.push_back(
          {static_cast<uint32_t>(h1.Bucket(k, 40)), KeyPrefix(k), k, v});
    }
    std::sort(entries.begin(), entries.end(), SortEntryLess());
    benchmark::DoNotOptimize(entries);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortMapBuffer)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 18);

void BM_HashPartitionGroup(benchmark::State& state) {
  const auto pairs = MakePairs(static_cast<int>(state.range(0)));
  UniversalHashFamily family(1);
  const UniversalHash h1 = family.At(0);
  for (auto _ : state) {
    // Count per partition, then place in one scan (§5's hash map output).
    std::vector<uint32_t> counts(40, 0);
    std::vector<uint32_t> parts(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      parts[i] = static_cast<uint32_t>(h1.Bucket(pairs[i].first, 40));
      ++counts[parts[i]];
    }
    std::vector<uint32_t> offsets(40, 0);
    for (int p = 1; p < 40; ++p) offsets[p] = offsets[p - 1] + counts[p - 1];
    std::vector<uint32_t> placed(pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      placed[offsets[parts[i]]++] = static_cast<uint32_t>(i);
    }
    benchmark::DoNotOptimize(placed);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashPartitionGroup)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 18);

void BM_HashCombineTable(benchmark::State& state) {
  const auto pairs = MakePairs(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    std::unordered_map<std::string_view, uint64_t> table;
    table.reserve(pairs.size() / 4);
    for (const auto& [k, v] : pairs) ++table[k];
    benchmark::DoNotOptimize(table);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashCombineTable)->Arg(1 << 12)->Arg(1 << 15)->Arg(1 << 18);

}  // namespace
}  // namespace onepass
