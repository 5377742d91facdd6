// Microbenchmark: k-way sorted merge (the reduce side of sort-merge) as a
// function of fan-in, vs hash-table grouping of the same data — the CPU
// side of the paper's sort-merge critique.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/engine/sorted_merge.h"
#include "src/util/kv_buffer.h"
#include "src/util/random.h"
#include "src/workloads/clickstream.h"

namespace onepass {
namespace {

// Key sets: user ids (short, distinct early) and word trigrams as
// trigram_sortmerge emits them ("w000123 w004567 w000001": 23 bytes, Zipf
// word ids, so many keys share their first word and the 8-byte prefix).
enum KeySet { kUserKeys = 0, kTrigramKeys = 1 };

std::string TrigramKey(ZipfGenerator* words, Xoshiro256StarStar* rng) {
  char buf[32];
  const auto w = [&] {
    return static_cast<unsigned long long>(words->Next(rng));
  };
  const unsigned long long a = w(), b = w(), c = w();
  std::snprintf(buf, sizeof(buf), "w%06llu w%06llu w%06llu", a, b, c);
  return buf;
}

std::vector<KvBuffer> MakeSortedRuns(int runs, int records_per_run,
                                     KeySet key_set = kUserKeys) {
  Xoshiro256StarStar rng(11);
  ZipfGenerator users(20'000, 0.8);
  ZipfGenerator words(50'000, 0.9);
  std::vector<KvBuffer> out(runs);
  for (int r = 0; r < runs; ++r) {
    std::vector<std::string> keys;
    keys.reserve(records_per_run);
    for (int i = 0; i < records_per_run; ++i) {
      keys.push_back(key_set == kUserKeys ? UserKey(users.Next(&rng))
                                          : TrigramKey(&words, &rng));
    }
    std::sort(keys.begin(), keys.end());
    for (const auto& k : keys) out[r].Append(k, "0123456789abcdef");
  }
  return out;
}

void MergeAll(benchmark::State& state, const std::vector<KvBuffer>& runs) {
  for (auto _ : state) {
    std::vector<const KvBuffer*> inputs;
    for (const auto& r : runs) inputs.push_back(&r);
    SortedKvMerger merger(std::move(inputs));
    std::string_view k, v;
    uint64_t n = 0;
    while (merger.Next(&k, &v)) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * (1 << 17));
}

// Fan-in 22 is the reduce-spill merge fan-in of trigram_sortmerge.
void BM_KWayMerge(benchmark::State& state) {
  const int fan_in = static_cast<int>(state.range(0));
  MergeAll(state, MakeSortedRuns(fan_in, (1 << 17) / fan_in));
}
BENCHMARK(BM_KWayMerge)->Arg(2)->Arg(8)->Arg(22)->Arg(32)->Arg(128);

void BM_KWayMergeTrigram(benchmark::State& state) {
  const int fan_in = static_cast<int>(state.range(0));
  MergeAll(state, MakeSortedRuns(fan_in, (1 << 17) / fan_in, kTrigramKeys));
}
BENCHMARK(BM_KWayMergeTrigram)->Arg(2)->Arg(8)->Arg(22)->Arg(32)->Arg(128);

void BM_HashGroupSameData(benchmark::State& state) {
  const int fan_in = static_cast<int>(state.range(0));
  const auto runs = MakeSortedRuns(fan_in, (1 << 17) / fan_in);
  for (auto _ : state) {
    std::unordered_map<std::string_view, uint64_t> groups;
    for (const auto& r : runs) {
      KvBufferReader reader(r);
      std::string_view k, v;
      while (reader.Next(&k, &v)) ++groups[k];
    }
    benchmark::DoNotOptimize(groups.size());
  }
  state.SetItemsProcessed(state.iterations() * (1 << 17));
}
BENCHMARK(BM_HashGroupSameData)->Arg(2)->Arg(8)->Arg(22)->Arg(32)->Arg(128);

}  // namespace
}  // namespace onepass
