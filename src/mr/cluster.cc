#include "src/mr/cluster.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/dfs/chunk_reader.h"
#include "src/engine/group_by_engine.h"
#include "src/mr/cost_trace.h"
#include "src/mr/map_runner.h"
#include "src/mr/node_combine.h"
#include "src/mr/output.h"
#include "src/mr/slot_pool.h"
#include "src/sim/event_queue.h"
#include "src/storage/block_format.h"
#include "src/storage/checkpoint.h"
#include "src/storage/framed_io.h"
#include "src/util/crc32c.h"
#include "src/util/hash.h"
#include "src/util/thread_pool.h"

namespace onepass {
namespace {

// A task re-run with the block codec off, reduced to what the provisional
// replay needs: its trace and the op that publishes each push.
struct CodecFreeTrace {
  CostTrace trace;
  std::map<uint32_t, uint32_t> gates;  // gate op -> push index
};

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Runs body(t) for every task t in [0, n) — on `pool` when given, else
// sequentially — and returns the lowest-index non-OK status. Each body
// writes only to state slotted by its own index, so the thread count and
// execution order never show in the results; the sequential path stops at
// the first failure, the parallel path runs everything but reports the
// same (lowest-index) status.
Status RunDataPlaneTasks(ThreadPool* pool, size_t n,
                         const std::function<void(size_t)>& body,
                         const std::vector<Status>& statuses) {
  if (pool != nullptr) {
    pool->ParallelFor(n, body);
    for (size_t t = 0; t < n; ++t) {
      if (!statuses[t].ok()) return statuses[t];
    }
    return Status::OK();
  }
  for (size_t t = 0; t < n; ++t) {
    body(t);
    if (!statuses[t].ok()) return statuses[t];
  }
  return Status::OK();
}

}  // namespace

Result<PreparedJob> LocalCluster::PrepareJob(const JobSpec& spec,
                                             const JobConfig& config,
                                             const ChunkStore& input,
                                             const ResidentContext* resident) {
  RETURN_IF_ERROR(config.Validate());
  if (!spec.mapper) {
    return Status::InvalidArgument("job needs a mapper factory");
  }
  const ClusterConfig& cl = config.cluster;

  const bool has_inc = static_cast<bool>(spec.inc);
  const MapOutputMode mode = SelectMapOutputMode(config, has_inc);
  const bool values_are_states = ModeProducesStates(mode);
  RETURN_IF_ERROR(CheckReduceApi(config.engine,
                                 static_cast<bool>(spec.reducer), has_inc,
                                 values_are_states));
  const bool node_combine = config.combine_scope == CombineScope::kNode;
  if (node_combine && !has_inc) {
    return Status::InvalidArgument(
        "combine_scope=kNode needs an IncrementalReducer factory (the node "
        "tier folds co-located map outputs with its combine function)");
  }

  const int total_reducers = cl.nodes * config.reducers_per_node;
  const bool resident_mode = config.shuffle_mode == ShuffleMode::kResident;
  // State carry-over applies to the engines whose reduce state *is* the
  // answer-so-far (INC/DINC key->state tables); SM/MR-hash chains still
  // get the resident shuffle and stable placement but start cold.
  const bool carry_engine = config.engine == EngineKind::kIncHash ||
                            config.engine == EngineKind::kDincHash;
  const ResidentStateHandle* prior_state =
      resident_mode && resident && carry_engine ? resident->prior_state
                                                : nullptr;
  if (prior_state && prior_state->empty()) prior_state = nullptr;
  if (prior_state && prior_state->reducers() != total_reducers) {
    return Status::InvalidArgument(
        "resident state carries " + std::to_string(prior_state->reducers()) +
        " reducers but the job runs " + std::to_string(total_reducers));
  }
  if (prior_state && (prior_state->engine != config.engine ||
                      prior_state->seed != config.seed)) {
    return Status::InvalidArgument(
        "resident state engine/seed does not match the adopting job (the "
        "hash family, and so the table layout, derives from both)");
  }
  const UniversalHashFamily hashes(config.seed);
  const UniversalHash h1 = hashes.At(0);

  PreparedJob pj(config);
  JobResult& result = pj.result;
  result.map_tasks = static_cast<int>(input.chunks().size());
  result.reduce_tasks = total_reducers;

  // The data plane may run on a work-stealing pool (DESIGN.md §5.3): all
  // map tasks execute concurrently, and each reduce task's engine runs
  // concurrently once the provisional replay has fixed its delivery
  // order. Every task writes only to its own slot; metrics merge and
  // output concatenation happen in task-id order after the join, so
  // threads=1 and threads=N produce byte-identical JobResults. The time
  // plane (the Replayer) stays single-threaded and authoritative.
  const size_t num_maps = input.chunks().size();
  const int threads = std::min<int>(
      ThreadPool::ResolveThreads(config.data_plane_threads),
      static_cast<int>(std::max<size_t>(
          {num_maps, static_cast<size_t>(total_reducers), size_t{1}})));
  std::optional<ThreadPool> pool;
  if (threads > 1) pool.emplace(threads);

  // ---- Phase 1: map data plane ----
  // Chunks are read through the verified DFS path: each replica's framed
  // bytes are checked at the read boundary, bad copies are quarantined and
  // re-replicated, and the post-recovery replica view feeds placement.
  // Concurrent tasks share the reader, but task m only touches chunk m's
  // replica view, and all fault/corruption draws are pure functions of
  // (task id, stream id).
  //
  // Under a block codec each task also runs once with the codec off, and
  // phase 2 orders deliveries by those codec-free traces: encoded sizes
  // move simulated publish times, and an order-sensitive reducer must see
  // the same deliveries in the same order under kNone and kLz (DESIGN.md
  // §5.5). Only the trace and push gates of that run are kept.
  ChunkReader chunk_reader(&input, config.integrity, &pj.plan);
  const bool coded = config.block_codec != BlockCodecKind::kNone;
  JobConfig codec_free_config = config;
  codec_free_config.block_codec = BlockCodecKind::kNone;
  std::vector<CodecFreeTrace> codec_free(coded ? num_maps : 0);
  std::vector<MapTaskOutput> map_outs(num_maps);
  std::vector<Status> map_statuses(num_maps, Status::OK());
  const double map_plane_start = WallSeconds();
  RETURN_IF_ERROR(RunDataPlaneTasks(
      pool ? &*pool : nullptr, num_maps,
      [&](size_t m) {
        ChunkReadStats read_stats;
        Result<KvBuffer> records =
            chunk_reader.Read(static_cast<int>(m), &read_stats);
        if (!records.ok()) {
          map_statuses[m] = records.status();
          return;
        }
        auto run_map = [&](const JobConfig& cfg) {
          std::unique_ptr<Mapper> mapper = spec.mapper();
          std::unique_ptr<IncrementalReducer> inc =
              has_inc ? spec.inc() : nullptr;
          MapRunner runner(cfg, mode, h1, total_reducers, mapper.get(),
                           inc.get(), &pj.plan, static_cast<int>(m));
          return runner.Run(records.value(), &read_stats);
        };
        Result<MapTaskOutput> mo = run_map(config);
        if (!mo.ok()) {
          map_statuses[m] = mo.status();
          return;
        }
        map_outs[m] = std::move(mo).value();
        if (coded) {
          Result<MapTaskOutput> raw = run_map(codec_free_config);
          if (!raw.ok()) {
            map_statuses[m] = raw.status();
            return;
          }
          codec_free[m].trace = std::move(raw->trace);
          for (uint32_t p = 0; p < raw->pushes.size(); ++p) {
            codec_free[m].gates[raw->pushes[p].gate_op] = p;
          }
        }
      },
      map_statuses));
  result.map_plane_wall_s = WallSeconds() - map_plane_start;
  for (const MapTaskOutput& mo : map_outs) result.metrics.Merge(mo.metrics);

  // Map traces move into the PreparedJob now (phase 3 needs only the
  // partition payloads left behind in map_outs); the replay inputs point
  // into pj.map_traces, which later moves of the PreparedJob never
  // relocate. Reserve room for the node combine tier's virtual tasks (one
  // per occupied node, appended below) so those pointers survive the
  // appends too.
  pj.map_traces.reserve(map_outs.size() +
                        (node_combine ? static_cast<size_t>(cl.nodes) : 0));
  for (auto& mo : map_outs) pj.map_traces.push_back(std::move(mo.trace));
  pj.map_ins.resize(map_outs.size());
  for (size_t m = 0; m < map_outs.size(); ++m) {
    Replayer::MapTaskIn& in = pj.map_ins[m];
    const std::vector<int>& reps = chunk_reader.replicas(static_cast<int>(m));
    in.node = input.chunks()[m].node;
    in.replicas = reps;
    // A quarantined primary cannot host the data-local first attempt;
    // fall over to the first surviving holder.
    if (!reps.empty() &&
        std::find(reps.begin(), reps.end(), in.node) == reps.end()) {
      in.node = reps.front();
    }
    in.trace = &pj.map_traces[m];
    in.num_pushes = static_cast<uint32_t>(map_outs[m].pushes.size());
    for (uint32_t p = 0; p < in.num_pushes; ++p) {
      in.gates[map_outs[m].pushes[p].gate_op] = p;
    }
    // Chain locality (DESIGN.md §5.9): when this iteration re-reads the
    // previous iteration's store, prefer the replica that produced the
    // output last time — PickMapNode breaks load ties by replica order,
    // so moving the prior winner to the front pins the map there whenever
    // it holds a copy and is not overloaded.
    if (resident_mode && resident && resident->placement &&
        resident->prior_input == &input &&
        resident->placement->map_node.size() == pj.map_ins.size()) {
      const int prior_node = resident->placement->map_node[m];
      auto prior_it =
          std::find(in.replicas.begin(), in.replicas.end(), prior_node);
      if (prior_it != in.replicas.end()) {
        std::rotate(in.replicas.begin(), prior_it, prior_it + 1);
        in.node = prior_node;
      }
    }
  }

  // ---- Node combine stage (DESIGN.md §5.10) ----
  // Between the map plane and the provisional replay: map tasks under
  // combine_scope == kNode produced node feeds instead of pushes, so group
  // them by their placement node and run one NodeCombiner per occupied
  // node, merging feeds in task-id order (node-level determinism barrier).
  // Each combiner's result is appended as a *virtual map task*: its trace
  // replays like any map task's, its single combined push carries the
  // node's whole output, and its `deps` list makes the push lineage of
  // every contributing task for fault recovery.
  if (node_combine) {
    std::vector<std::vector<int>> node_tasks(
        static_cast<size_t>(cl.nodes));
    for (size_t m = 0; m < num_maps; ++m) {
      node_tasks[static_cast<size_t>(pj.map_ins[m].node)].push_back(
          static_cast<int>(m));
    }
    std::vector<int> combine_nodes;
    for (int n = 0; n < cl.nodes; ++n) {
      if (!node_tasks[static_cast<size_t>(n)].empty()) {
        combine_nodes.push_back(n);
      }
    }
    const bool sorted_feeds = mode == MapOutputMode::kSortCombine;
    std::vector<NodeCombineOutput> combine_outs(combine_nodes.size());
    if (coded) codec_free.resize(num_maps + combine_nodes.size());
    std::vector<Status> combine_statuses(combine_nodes.size(), Status::OK());
    const double combine_start = WallSeconds();
    RETURN_IF_ERROR(RunDataPlaneTasks(
        pool ? &*pool : nullptr, combine_nodes.size(),
        [&](size_t i) {
          const int n = combine_nodes[i];
          std::vector<const MapTaskOutput*> feeds;
          for (int m : node_tasks[static_cast<size_t>(n)]) {
            feeds.push_back(&map_outs[static_cast<size_t>(m)]);
          }
          auto run_combine = [&](const JobConfig& cfg) {
            std::unique_ptr<IncrementalReducer> inc = spec.inc();
            return NodeCombiner(cfg, h1, total_reducers, inc.get())
                .Run(feeds, sorted_feeds);
          };
          combine_outs[i] = run_combine(config);
          // The feeds are raw under any codec, so the codec-free combine
          // reads the same ones.
          if (coded) {
            NodeCombineOutput raw = run_combine(codec_free_config);
            codec_free[num_maps + i] = {std::move(raw.trace),
                                        {{raw.push.gate_op, 0}}};
          }
        },
        combine_statuses));
    result.map_plane_wall_s += WallSeconds() - combine_start;
    for (size_t i = 0; i < combine_nodes.size(); ++i) {
      const int n = combine_nodes[i];
      NodeCombineOutput& co = combine_outs[i];
      result.metrics.Merge(co.metrics);
      MapTaskOutput virt;
      virt.sorted = sorted_feeds;
      virt.pushes.push_back(std::move(co.push));
      const size_t c = map_outs.size();
      map_outs.push_back(std::move(virt));
      pj.map_traces.push_back(std::move(co.trace));
      pj.map_ins.emplace_back();
      Replayer::MapTaskIn& in = pj.map_ins[c];
      // Home node first, then every other node: the combine is not bound
      // to an input chunk, so after a crash it can re-run anywhere once
      // its deps' contributions are re-materialized.
      in.node = n;
      in.replicas.push_back(n);
      for (int o = 0; o < cl.nodes; ++o) {
        if (o != n) in.replicas.push_back(o);
      }
      in.trace = &pj.map_traces[c];
      in.num_pushes = 1;
      in.gates[map_outs[c].pushes[0].gate_op] = 0;
      in.deps = node_tasks[static_cast<size_t>(n)];
      // The feeds are folded into the combined push; drop the buffers.
      for (int m : node_tasks[static_cast<size_t>(n)]) {
        map_outs[static_cast<size_t>(m)].node_feed.clear();
      }
    }
  }

  // ---- Phase 2: provisional replay fixes the delivery order ----
  // Runs under the same FaultPlan as the full replay, so crash-forced map
  // re-executions shift publish times the same way the cluster would see
  // them. The order is only a consumption-order contract for the reduce
  // data plane; the full replay is authoritative for timing. Under a
  // block codec it replays the codec-free traces (phase 1).
  std::vector<std::pair<int, uint32_t>> delivery_order;
  {
    std::vector<Replayer::MapTaskIn> order_ins = pj.map_ins;
    for (size_t m = 0; m < codec_free.size(); ++m) {
      CHECK_EQ(codec_free[m].gates.size(), order_ins[m].gates.size());
      order_ins[m].trace = &codec_free[m].trace;
      order_ins[m].gates = codec_free[m].gates;
    }
    sim::Engine engine;
    SlotPool slots(&engine, pj.config.cluster);
    Replayer provisional(&engine, &slots, codec_free_config, pj.plan,
                         std::move(order_ins), {}, {});
    RETURN_IF_ERROR(provisional.Run());
    std::vector<std::pair<double, std::pair<int, uint32_t>>> order;
    for (size_t m = 0; m < map_outs.size(); ++m) {
      for (uint32_t p = 0; p < map_outs[m].pushes.size(); ++p) {
        order.push_back({provisional.push_ready_time(static_cast<int>(m), p),
                         {static_cast<int>(m), p}});
      }
    }
    std::sort(order.begin(), order.end());
    delivery_order.reserve(order.size());
    for (auto& [t, mp] : order) delivery_order.push_back(mp);
  }

  // ---- Resident shuffle transform (DESIGN.md §5.9) ----
  // Runs after phase 2 on purpose: the consumption-order contract is
  // always computed from the disk-mode traces, so kDisk and kResident
  // consume identical deliveries in identical order and outputs are
  // byte-identical by construction. Only the phase-4 charges change here.
  if (resident_mode) {
    for (size_t m = 0; m < pj.map_ins.size(); ++m) {
      Replayer::MapTaskIn& in = pj.map_ins[m];
      in.resident.assign(in.num_pushes, 1);
      in.push_bytes.assign(in.num_pushes, 0);
      for (uint32_t p = 0; p < in.num_pushes; ++p) {
        in.push_bytes[p] = map_outs[m].pushes[p].bytes;
      }
    }
    // Admit segments in publish order against each producing node's byte
    // budget; the oldest segments evicted under pressure lose residency.
    // Eviction is write-through: a spilled push keeps its original gate
    // disk write (the PR 5 block-codec spill image), so the backstop
    // reuses the existing spill path and correctness never depends on the
    // working set fitting.
    ResidentSegmentCache cache(cl.nodes, config.resident_cache_bytes);
    for (const auto& [m, p] : delivery_order) {
      for (const auto& [em, ep] : cache.Admit(
               pj.map_ins[m].node, m, p, pj.map_ins[m].push_bytes[p])) {
        pj.map_ins[em].resident[ep] = 0;
      }
    }
    // A resident push's publish write becomes a memory-speed CPU op in
    // place (same op index, so the replayer's gate bookkeeping and the
    // progress deltas riding on the op are untouched).
    for (size_t m = 0; m < pj.map_ins.size(); ++m) {
      Replayer::MapTaskIn& in = pj.map_ins[m];
      for (const auto& [gate, p] : in.gates) {
        if (!in.resident[p]) {
          result.metrics.resident_spilled_segments += 1;
          result.metrics.resident_spilled_bytes += in.push_bytes[p];
          continue;
        }
        TraceOp& op = pj.map_traces[m].ops[gate];
        op.resource = OpResource::kCpu;
        op.cpu_s = config.costs.resident_publish_byte_s *
                   static_cast<double>(op.bytes);
        op.bytes = 0;
        op.requests = 0;
        op.is_read = false;
        result.metrics.resident_publish_segments += 1;
        result.metrics.resident_publish_bytes += in.push_bytes[p];
      }
    }
    // M3R input caching: an iteration re-reading the store the previous
    // iteration already scanned serves map input from memory. (The cache
    // is modeled per input store, not per replica: a map rescheduled off
    // its prior node still gets the memory rate — placement makes that
    // the rare case, not the model.)
    if (resident && resident->prior_input == &input) {
      for (CostTrace& t : pj.map_traces) {
        for (TraceOp& op : t.ops) {
          if (op.tag == OpTag::kMapInput &&
              op.resource == OpResource::kDisk && op.is_read) {
            result.metrics.resident_cached_input_bytes += op.bytes;
            op.resource = OpResource::kCpu;
            op.cpu_s = config.costs.cached_input_byte_s *
                       static_cast<double>(op.bytes);
            op.bytes = 0;
            op.requests = 0;
            op.is_read = false;
          }
        }
      }
    }
  }

  // ---- Phase 3: reduce data plane ----
  // With the delivery order fixed by the provisional replay, every reduce
  // task's engine run is independent: it reads the (now immutable) map
  // output segments for its own partition and writes only task-local
  // state, so the tasks execute concurrently on the pool.
  struct ReduceTaskData {
    CostTrace trace;
    std::unique_ptr<TraceRecorder> recorder;
    JobMetrics metrics;
    std::unique_ptr<Reducer> reducer;
    std::unique_ptr<IncrementalReducer> inc;
    std::unique_ptr<OutputCollector> out;
    std::unique_ptr<GroupByEngine> engine;
    std::vector<DeliveryRef> deliveries;
    std::vector<CheckpointMark> checkpoints;
    std::vector<Record> outputs;  // task-local; concatenated in r order
    KvBuffer saved_state;         // pre-Finish engine image (chains only)
    uint64_t saved_raw_bytes = 0;
  };
  std::vector<std::unique_ptr<ReduceTaskData>> reduce_tasks(total_reducers);
  std::vector<Status> reduce_statuses(total_reducers, Status::OK());
  const double reduce_plane_start = WallSeconds();
  RETURN_IF_ERROR(RunDataPlaneTasks(
      pool ? &*pool : nullptr, static_cast<size_t>(total_reducers),
      [&](size_t ri) {
        const int r = static_cast<int>(ri);
        auto task = std::make_unique<ReduceTaskData>();
        task->recorder = std::make_unique<TraceRecorder>(&task->trace);
        TraceRecorder& trace = *task->recorder;
        if (spec.reducer) task->reducer = spec.reducer();
        if (has_inc) task->inc = spec.inc();
        task->out = std::make_unique<OutputCollector>(
            &trace, &task->metrics,
            config.collect_outputs ? &task->outputs : nullptr);

        EngineContext ctx;
        ctx.trace = &trace;
        ctx.metrics = &task->metrics;
        ctx.out = task->out.get();
        ctx.config = &config;
        ctx.hashes = hashes;
        ctx.reducer = task->reducer.get();
        ctx.inc = task->inc.get();
        ctx.values_are_states = values_are_states;
        ctx.faults = &pj.plan;
        ctx.integrity_owner = static_cast<uint64_t>(r) + 1;
        Result<std::unique_ptr<GroupByEngine>> engine =
            CreateGroupByEngine(config.engine, ctx);
        if (!engine.ok()) {
          reduce_statuses[ri] = engine.status();
          return;
        }
        task->engine = std::move(engine).value();

        // State adoption (DESIGN.md §5.9): seed the fresh engine with the
        // prior iteration's table before any delivery, so unchanged keys
        // are never re-aggregated. The adopt cost is charged inside the
        // first replayed section below (ops before the first section mark
        // never replay).
        double adopt_cpu_s = 0;
        if (prior_state != nullptr) {
          CheckpointReader prior_reader(prior_state->states[r]);
          const Status adopted =
              task->engine->RestoreCheckpoint(&prior_reader);
          if (!adopted.ok()) {
            reduce_statuses[ri] = adopted;
            return;
          }
          task->metrics.resident_state_restores += 1;
          task->metrics.resident_state_restored_bytes +=
              prior_state->raw_bytes[r];
          adopt_cpu_s = config.costs.resident_publish_byte_s *
                        static_cast<double>(prior_state->raw_bytes[r]);
        }

        // Snapshot thresholds (§3.3(4)): after each 1/(N+1) of deliveries.
        std::vector<size_t> snapshot_at;
        if (config.snapshots > 0 && !delivery_order.empty()) {
          for (int k = 1; k <= config.snapshots; ++k) {
            snapshot_at.push_back(delivery_order.size() * k /
                                  (config.snapshots + 1));
          }
        }
        uint64_t ckpt_segments = 0;
        size_t delivery_index = 0;
        for (const auto& [m, p] : delivery_order) {
          const PushSegment& push = map_outs[m].pushes[p];
          // Under a block codec the fetched image is the encoded block
          // stream: the CRC check and the wire/disk byte charges cover the
          // *encoded* bytes, and the segment is decoded here before the
          // engine consumes it (DESIGN.md §5.5).
          const bool coded = !push.encoded.empty();
          const std::string* enc = coded ? &push.encoded[r] : nullptr;
          const KvBuffer* segment = coded ? nullptr : &push.partitions[r];
          const uint64_t wire_bytes =
              coded ? enc->size() : segment->bytes();
          // Every fetched segment re-verifies against the CRC its producer
          // stamped at publish time; the time-plane replay decides which
          // fetches the plan corrupts and replays the recovery.
          if (config.integrity.checksums && !push.crcs.empty()) {
            const uint32_t crc =
                coded ? Crc32c(*enc) : Crc32c(segment->data());
            if (crc != push.crcs[r]) {
              reduce_statuses[ri] = Status::Corruption(
                  "map task " + std::to_string(m) + " push " +
                  std::to_string(p) + ": segment for reducer " +
                  std::to_string(r) + " failed checksum verification");
              return;
            }
            task->metrics.verify_bytes += wire_bytes;
            task->metrics.checksum_overhead_bytes += FramedOverheadBytes(
                wire_bytes, config.integrity.block_bytes);
          }
          KvBuffer decoded;
          if (coded) {
            CodecStats dstats;
            Result<KvBuffer> dec = DecodeKvStream(*enc, &dstats);
            if (!dec.ok()) {
              reduce_statuses[ri] = dec.status();
              return;
            }
            decoded = std::move(dec).value();
            task->metrics.decompress_ns += dstats.decompress_ns;
            segment = &decoded;
          }
          DeliveryRef d;
          d.map_task = m;
          d.push = p;
          d.bytes = wire_bytes;
          task->deliveries.push_back(d);
          trace.BeginSection();
          trace.Net(wire_bytes, OpTag::kShuffle,
                    /*d_shuffle_bytes=*/wire_bytes);
          if (adopt_cpu_s > 0) {
            // First delivery section, right after its net op (the
            // replayer requires a section's first op to be the fetch).
            trace.Cpu(adopt_cpu_s, OpTag::kCheckpoint);
            adopt_cpu_s = 0;
          }
          if (coded) {
            trace.Cpu(config.costs.decompress_byte_s *
                          static_cast<double>(segment->bytes()),
                      OpTag::kShuffle);
          }
          task->metrics.shuffle_bytes += wire_bytes;
          const Status consumed =
              task->engine->Consume(*segment, map_outs[m].sorted);
          if (!consumed.ok()) {
            reduce_statuses[ri] = consumed;
            return;
          }
          ++delivery_index;
          if (std::find(snapshot_at.begin(), snapshot_at.end(),
                        delivery_index) != snapshot_at.end()) {
            const Status snap = task->engine->Snapshot();
            if (!snap.ok()) {
              reduce_statuses[ri] = snap;
              return;
            }
          }
          // Reduce-state checkpoint (DESIGN.md §5.6): on the interval
          // boundary, serialize the engine and run the image through the
          // codec + CRC-framing path, charging the compress CPU, the
          // durable write, and the replication transfer. The data plane
          // discards the bytes — restore correctness is proven by the
          // checkpoint unit tests; the time plane replays durability,
          // placement, and recovery from the recorded marks. A checkpoint
          // after the final delivery is useless (Finish follows at once)
          // and skipped.
          if (config.checkpoint_interval_segments > 0) {
            ckpt_segments += 1;
            if (ckpt_segments >= config.checkpoint_interval_segments &&
                delivery_index < delivery_order.size()) {
              CheckpointWriter w;
              const Status saved = task->engine->SaveCheckpoint(&w);
              if (!saved.ok()) {
                reduce_statuses[ri] = saved;
                return;
              }
              const EncodedCheckpoint image = EncodeCheckpoint(
                  w.fields(), config.block_codec, config.codec_block_bytes,
                  config.integrity.block_bytes);
              if (image.coded) {
                trace.Cpu(config.costs.compress_byte_s *
                              static_cast<double>(image.raw_bytes),
                          OpTag::kCheckpoint);
              }
              trace.DiskWrite(image.framed.size(), OpTag::kCheckpoint);
              const uint64_t extra_replicas = static_cast<uint64_t>(
                  config.checkpoint_replication - 1);
              if (extra_replicas > 0) {
                trace.Net(image.framed.size() * extra_replicas,
                          OpTag::kCheckpoint);
              }
              task->metrics.checkpoints_written += 1;
              task->metrics.checkpoint_bytes += image.framed.size();
              task->metrics.checkpoint_replica_bytes +=
                  image.framed.size() * extra_replicas;
              CheckpointMark mark;
              mark.watermark = static_cast<uint32_t>(delivery_index);
              mark.bytes = image.framed.size();
              mark.raw_bytes = image.raw_bytes;
              mark.gate_op =
                  static_cast<uint32_t>(task->trace.ops.size()) - 1;
              task->checkpoints.push_back(mark);
              ckpt_segments = 0;
            }
          }
        }
        trace.BeginSection();
        if (adopt_cpu_s > 0) {
          // No deliveries reached this reducer; charge the adopt in the
          // final section instead (fully replayed, no first-op rule).
          trace.Cpu(adopt_cpu_s, OpTag::kCheckpoint);
          adopt_cpu_s = 0;
        }
        // State carry-over capture: serialize the pre-Finish engine image
        // for the next iteration (Finish drains the spill buckets, so it
        // must run after the save; SaveCheckpoint is non-destructive).
        if (resident_mode && resident != nullptr &&
            resident->save_state != nullptr && carry_engine) {
          CheckpointWriter w;
          const Status saved = task->engine->SaveCheckpoint(&w);
          if (!saved.ok()) {
            reduce_statuses[ri] = saved;
            return;
          }
          task->saved_raw_bytes = w.fields().bytes();
          task->saved_state = w.Take();
          trace.Cpu(config.costs.resident_publish_byte_s *
                        static_cast<double>(task->saved_raw_bytes),
                    OpTag::kCheckpoint);
          task->metrics.resident_state_saved_bytes += task->saved_raw_bytes;
        }
        const Status finished = task->engine->Finish();
        if (!finished.ok()) {
          reduce_statuses[ri] = finished;
          return;
        }
        task->out->Flush();
        reduce_tasks[ri] = std::move(task);
      },
      reduce_statuses));
  result.reduce_plane_wall_s = WallSeconds() - reduce_plane_start;
  if (config.collect_outputs) {
    size_t total_outputs = 0;
    for (const auto& task : reduce_tasks) total_outputs += task->outputs.size();
    result.outputs.reserve(total_outputs);
  }
  for (auto& task : reduce_tasks) {
    result.metrics.Merge(task->metrics);
    if (config.collect_outputs) {
      result.outputs.insert(result.outputs.end(),
                            std::make_move_iterator(task->outputs.begin()),
                            std::make_move_iterator(task->outputs.end()));
    }
  }

  // Package the replay inputs. The intermediate payload bytes are dropped
  // here (only the traces and marks drive the time plane).
  pj.reduce_traces.reserve(reduce_tasks.size());
  for (auto& task : reduce_tasks) {
    pj.reduce_traces.push_back(std::move(task->trace));
  }
  pj.reduce_ins.resize(reduce_tasks.size());
  for (size_t r = 0; r < reduce_tasks.size(); ++r) {
    pj.reduce_ins[r].node =
        static_cast<int>(r) / config.reducers_per_node;
    // Partition-stable placement: pin each reduce partition to the node
    // that finished it last iteration, so adopted state and resident
    // segments are local to the task that reuses them.
    if (resident_mode && resident && resident->placement &&
        resident->placement->reduce_node.size() == reduce_tasks.size()) {
      const int prior_node = resident->placement->reduce_node[r];
      if (prior_node >= 0 && prior_node < cl.nodes) {
        pj.reduce_ins[r].node = prior_node;
      }
    }
    pj.reduce_ins[r].trace = &pj.reduce_traces[r];
    pj.reduce_ins[r].deliveries = std::move(reduce_tasks[r]->deliveries);
    pj.reduce_ins[r].checkpoints = std::move(reduce_tasks[r]->checkpoints);
  }
  if (resident_mode && resident != nullptr &&
      resident->save_state != nullptr && carry_engine) {
    ResidentStateHandle& handle = *resident->save_state;
    handle.states.clear();
    handle.raw_bytes.clear();
    handle.states.reserve(reduce_tasks.size());
    handle.raw_bytes.reserve(reduce_tasks.size());
    for (auto& task : reduce_tasks) {
      handle.states.push_back(std::move(task->saved_state));
      handle.raw_bytes.push_back(task->saved_raw_bytes);
    }
    handle.engine = config.engine;
    handle.seed = config.seed;
  }

  auto scan_trace = [&](const CostTrace& t) {
    for (const TraceOp& op : t.ops) {
      pj.totals.shuffle_bytes += op.d_shuffle_bytes;
      pj.totals.reduce_work += op.d_reduce_work;
      pj.totals.output_bytes += op.d_output_bytes;
    }
  };
  for (const CostTrace& t : pj.map_traces) scan_trace(t);
  for (const CostTrace& t : pj.reduce_traces) scan_trace(t);

  // CPU attribution.
  for (const CostTrace& t : pj.map_traces) {
    for (const TraceOp& op : t.ops) {
      if (op.resource == OpResource::kCpu) result.map_cpu_s += op.cpu_s;
    }
  }
  for (const CostTrace& t : pj.reduce_traces) {
    for (const TraceOp& op : t.ops) {
      if (op.resource == OpResource::kCpu) result.reduce_cpu_s += op.cpu_s;
    }
  }

  return pj;
}

Result<JobResult> LocalCluster::ReplaySolo(PreparedJob pj,
                                           PartitionPlacement* placement) {
  sim::Engine engine;
  SlotPool slots(&engine, pj.config.cluster);
  Replayer replay(&engine, &slots, pj.config, pj.plan, pj.map_ins,
                  pj.reduce_ins, pj.totals);
  RETURN_IF_ERROR(replay.Run());

  JobResult result = std::move(pj.result);
  result.running_time = replay.end_time();
  result.map_finish_time = replay.map_finish_time();
  result.shuffle_from_disk_bytes = replay.shuffle_from_disk_bytes();
  replay.ExportSeries(&result);
  replay.ExportFaultMetrics(&result.metrics);
  slots.ExportUtilization(
      pj.config.timeline_bin_s,
      std::max(replay.end_time(), pj.config.timeline_bin_s),
      &result.cpu_util, &result.iowait);

  if (placement != nullptr) {
    placement->map_node.resize(pj.map_ins.size());
    for (size_t m = 0; m < pj.map_ins.size(); ++m) {
      placement->map_node[m] = replay.map_winner_node(static_cast<int>(m));
    }
    placement->reduce_node.resize(pj.reduce_ins.size());
    for (size_t r = 0; r < pj.reduce_ins.size(); ++r) {
      placement->reduce_node[r] =
          replay.reduce_winner_node(static_cast<int>(r));
    }
  }
  return result;
}

Result<JobResult> LocalCluster::RunJob(const JobSpec& spec,
                                       const JobConfig& config,
                                       const ChunkStore& input) {
  ASSIGN_OR_RETURN(PreparedJob pj, PrepareJob(spec, config, input));
  return ReplaySolo(std::move(pj));
}

}  // namespace onepass
