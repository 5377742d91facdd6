// Streaming k-way merge over sorted KvBuffers, with group iteration.
//
// Used by the sort-merge engine's spill merges and final merge, the map-side
// external sort and the node combine tier. Inputs must each be sorted by
// key (byte-lexicographic); the merger yields records in global key order,
// stable by input index for equal keys.
//
// The inputs' current records sit at the leaves of a loser tree (a
// tournament tree whose internal nodes remember the loser of each match),
// ordered by (key, input index). Each Next replays one leaf-to-root path,
// ceil(log2 k) comparisons. Every head caches its key's KeyPrefix, so most
// comparisons are one integer compare; full keys are compared only on a
// prefix tie.

#ifndef ONEPASS_ENGINE_SORTED_MERGE_H_
#define ONEPASS_ENGINE_SORTED_MERGE_H_

#include <algorithm>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/util/kv_buffer.h"

namespace onepass {

class SortedKvMerger {
 public:
  explicit SortedKvMerger(std::vector<const KvBuffer*> inputs);

  // Advances to the next record in key order. Views are valid as long as
  // the underlying buffers live.
  bool Next(std::string_view* key, std::string_view* value);

  // Groups consecutive equal keys: fills `values` with every value of the
  // next key. Returns false at end.
  bool NextGroup(std::string_view* key, std::vector<std::string_view>* values);

  uint64_t records_merged() const { return records_merged_; }

 private:
  struct Head {
    // KeyPrefix(key). All ones once the input is exhausted, so a done head
    // orders after any live head with a smaller prefix without a done check;
    // TieBefore settles the rest.
    uint64_t prefix = 0;
    std::string_view key;
    std::string_view value;
    bool done = false;  // input exhausted: orders after every live head
  };

  // Loads input i's next record into its head, or marks it done.
  void Advance(size_t input);

  // True iff input a's head orders strictly before input b's.
  bool Before(uint32_t a, uint32_t b) const {
    const uint64_t pa = heads_[a].prefix;
    const uint64_t pb = heads_[b].prefix;
    if (pa != pb) return pa < pb;
    return TieBefore(a, b);
  }
  // Before() on equal prefixes: done heads last, then full key, then input
  // index.
  bool TieBefore(uint32_t a, uint32_t b) const {
    const Head& x = heads_[a];
    const Head& y = heads_[b];
    if (x.done | y.done) [[unlikely]] {
      if (x.done != y.done) return y.done;
      return a < b;
    }
    // Equal prefixes: the first min(size, 8) bytes of both keys agree.
    const size_t skip = std::min<size_t>({x.key.size(), y.key.size(), 8});
    const int c = x.key.substr(skip).compare(y.key.substr(skip));
    if (c != 0) return c < 0;
    return a < b;
  }

  std::vector<KvBufferReader> readers_;
  std::vector<Head> heads_;
  // tree_[0] is the current winner (the input holding the smallest head);
  // tree_[n] for 1 <= n < k holds the loser of the match at node n. Leaf i
  // is node k + i, and node n's parent is n / 2.
  std::vector<uint32_t> tree_;
  uint64_t records_merged_ = 0;
  bool pending_valid_ = false;
  std::string_view pending_key_;
  std::string_view pending_value_;
};

}  // namespace onepass

#endif  // ONEPASS_ENGINE_SORTED_MERGE_H_
