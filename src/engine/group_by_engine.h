// GroupByEngine: the pluggable reduce-side group-by implementation.
//
// A reduce task feeds its engine one shuffle delivery (a KvBuffer segment
// from a finished map task) at a time via Consume(), then calls Finish()
// once all input has arrived. The engine implements "group data by key,
// then apply the reduce function to each group" — this is exactly the
// component the paper swaps out: Hadoop's sort-merge vs the hash-based
// family (MR-hash / INC-hash / DINC-hash).
//
// Engines run on the real data plane: they move actual bytes through
// buffers, spill files, and merges, while charging every CPU and I/O cost
// to the task's CostTrace for the simulated time plane.

#ifndef ONEPASS_ENGINE_GROUP_BY_ENGINE_H_
#define ONEPASS_ENGINE_GROUP_BY_ENGINE_H_

#include <memory>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/mr/api.h"
#include "src/mr/config.h"
#include "src/mr/cost_trace.h"
#include "src/mr/metrics.h"
#include "src/mr/output.h"
#include "src/storage/checkpoint.h"
#include "src/util/hash.h"
#include "src/util/kv_buffer.h"

namespace onepass {

struct EngineContext {
  TraceRecorder* trace = nullptr;
  JobMetrics* metrics = nullptr;
  OutputCollector* out = nullptr;
  const JobConfig* config = nullptr;
  // Per-job independent hash family; levels 1+ belong to the reduce side
  // (level 0 is the map-side partitioner h1).
  UniversalHashFamily hashes{0};
  // Exactly one of these is set, matching the engine's API contract.
  Reducer* reducer = nullptr;
  IncrementalReducer* inc = nullptr;
  // True when the map side already applied the initialize function, so the
  // incoming "values" are states that Combine() can fold directly.
  bool values_are_states = false;
  // Data integrity (DESIGN.md §5.2): the job's fault plan, consulted by
  // the engine's spill-bucket layer for seeded corruption, and a stable
  // id naming this task in the plan's corruption keyspace (reduce task
  // index + 1; 0 in harnesses that do not inject).
  const sim::FaultPlan* faults = nullptr;
  uint64_t integrity_owner = 0;
};

class GroupByEngine {
 public:
  explicit GroupByEngine(const EngineContext& ctx) : ctx_(ctx) {}
  virtual ~GroupByEngine() = default;

  GroupByEngine(const GroupByEngine&) = delete;
  GroupByEngine& operator=(const GroupByEngine&) = delete;

  // Feeds one shuffle delivery. `sorted` is true when the segment is
  // key-ordered (sort-merge map output).
  virtual Status Consume(const KvBuffer& segment, bool sorted) = 0;

  // Completes the group-by after the last delivery: drains spills, applies
  // the reduce/finalize function to every group, and emits all output.
  virtual Status Finish() = 0;

  // Produces a snapshot of the answer over the data received so far
  // (MapReduce Online's periodic snapshots, §3.3(4)). Non-destructive.
  // The sort-merge implementation re-runs the merge over everything
  // received — the expensive, non-incremental behaviour the paper calls
  // out; incremental engines emit continuously and need no snapshots, so
  // the default is a no-op.
  virtual Status Snapshot() { return Status::OK(); }

  // Checkpointed recovery (DESIGN.md §5.6). SaveCheckpoint serializes the
  // engine's complete mid-stream state into named fields, non-destructively
  // — Consume can continue right after, and a run that checkpoints emits
  // byte-identical output to one that does not. RestoreCheckpoint loads a
  // saved image into a freshly constructed engine under the same config;
  // consuming the remaining deliveries then yields exactly the output the
  // saved engine would have produced. Neither charges trace or metrics:
  // the cluster prices checkpoint I/O in the time plane.
  virtual Status SaveCheckpoint(CheckpointWriter* w) const {
    (void)w;
    return Status::Unimplemented("engine does not support checkpointing");
  }
  virtual Status RestoreCheckpoint(CheckpointReader* r) {
    (void)r;
    return Status::Unimplemented("engine does not support checkpointing");
  }

 protected:
  EngineContext ctx_;
};

// The spec <-> engine rule (PAPER.md §1.2): which reduce API each engine
// needs. MR-hash needs the values-list Reducer, INC/DINC-hash need the
// IncrementalReducer (init/cb/fn), and sort-merge needs a Reducer or, for
// a combiner-only job, an IncrementalReducer whose states the map side
// already produced (`values_are_states`, from SelectMapOutputMode).
// LocalCluster::PrepareJob checks it before any map task runs, and
// CreateGroupByEngine checks it again for every engine it builds.
Status CheckReduceApi(EngineKind kind, bool has_reducer, bool has_inc,
                      bool values_are_states);

// Creates the engine implementing `kind` after checking CheckReduceApi on
// the context's reducers. kSortMerge may carry an IncrementalReducer next
// to its Reducer to act as the reduce-side combiner.
Result<std::unique_ptr<GroupByEngine>> CreateGroupByEngine(
    EngineKind kind, const EngineContext& ctx);

// ValueIterator over a vector of views (used when a key's values have been
// collected in memory).
class VectorValueIterator : public ValueIterator {
 public:
  explicit VectorValueIterator(const std::vector<std::string_view>* values)
      : values_(values) {}

  bool Next(std::string_view* value) override {
    if (pos_ >= values_->size()) return false;
    *value = (*values_)[pos_++];
    return true;
  }

 private:
  const std::vector<std::string_view>* values_;
  size_t pos_ = 0;
};

}  // namespace onepass

#endif  // ONEPASS_ENGINE_GROUP_BY_ENGINE_H_
