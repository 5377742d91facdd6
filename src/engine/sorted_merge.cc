#include "src/engine/sorted_merge.h"

namespace onepass {

SortedKvMerger::SortedKvMerger(std::vector<const KvBuffer*> inputs) {
  const size_t k = inputs.size();
  readers_.reserve(k);
  for (const KvBuffer* in : inputs) {
    readers_.emplace_back(*in);
  }
  heads_.resize(k);
  for (size_t i = 0; i < k; ++i) Advance(i);
  if (k == 0) return;

  // Build the tree bottom-up: play each internal node's match between the
  // winners of its two subtrees, keep the loser there, pass the winner up.
  tree_.assign(k, 0);
  std::vector<uint32_t> winner(2 * k);
  for (size_t i = 0; i < k; ++i) winner[k + i] = static_cast<uint32_t>(i);
  for (size_t n = k - 1; n >= 1; --n) {
    const uint32_t l = winner[2 * n];
    const uint32_t r = winner[2 * n + 1];
    if (Before(r, l)) {
      winner[n] = r;
      tree_[n] = l;
    } else {
      winner[n] = l;
      tree_[n] = r;
    }
  }
  tree_[0] = winner[1];
}

void SortedKvMerger::Advance(size_t input) {
  Head& h = heads_[input];
  if (readers_[input].Next(&h.key, &h.value)) {
    h.prefix = KeyPrefix(h.key);
  } else {
    h.prefix = ~uint64_t{0};
    h.key = {};
    h.value = {};
    h.done = true;
  }
}

bool SortedKvMerger::Next(std::string_view* key, std::string_view* value) {
  if (pending_valid_) {
    *key = pending_key_;
    *value = pending_value_;
    pending_valid_ = false;
    ++records_merged_;
    return true;
  }
  if (tree_.empty()) return false;
  const uint32_t top = tree_[0];
  const Head& h = heads_[top];
  if (h.done) return false;
  *key = h.key;
  *value = h.value;
  ++records_merged_;

  // Refill the winner's leaf and replay its path to the root.
  Advance(top);
  const size_t k = tree_.size();
  uint32_t winner = top;
  for (size_t n = (k + top) / 2; n >= 1; n /= 2) {
    const uint32_t challenger = tree_[n];
    if (Before(challenger, winner)) {
      tree_[n] = winner;
      winner = challenger;
    }
  }
  tree_[0] = winner;
  return true;
}

bool SortedKvMerger::NextGroup(std::string_view* key,
                               std::vector<std::string_view>* values) {
  values->clear();
  std::string_view k, v;
  if (!Next(&k, &v)) return false;
  *key = k;
  values->push_back(v);
  while (Next(&k, &v)) {
    if (k != *key) {
      // Push back for the next group.
      pending_valid_ = true;
      pending_key_ = k;
      pending_value_ = v;
      --records_merged_;
      break;
    }
    values->push_back(v);
  }
  return true;
}

}  // namespace onepass
