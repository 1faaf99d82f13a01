// "sharded-cpu": N serial InferenceEngine lanes over ONE shared, shard-
// partitioned RuntimeState — the CPU realization of the parallelism the
// paper's hardware Updater exploits (per-vertex chronological writes, no
// global serialization; §II-A / Alg. 1).
//
// Driven through the plain Backend contract (process_batch on lane 0) it
// is bit-identical to the "cpu" backend: same engine numerics, same state.
// Driven through the ConcurrentBackend contract by a multi-worker
// ServingEngine, non-conflicting micro-batches execute on different lanes
// at once; cross-batch neighbor-memory reads go through the per-shard
// reader/writer locks (graph::ShardLockTable), so disjoint-footprint
// batches never serialize on a global lock.
//
// Each lane pins its OpenMP thread count to 1: lane-level concurrency
// replaces intra-batch OpenMP, keeping N lanes from oversubscribing the
// machine N times over.
#pragma once

#include <memory>
#include <vector>

#include "graph/shard_map.hpp"
#include "runtime/backend.hpp"

namespace tgnn::runtime {

class ShardedCpuBackend final : public ConcurrentBackend {
 public:
  /// `lanes` >= 1 execution lanes, state partitioned into `opts.shards`
  /// shards. `model` and `ds` must outlive the backend.
  ShardedCpuBackend(const core::TgnModel& model, const data::Dataset& ds,
                    std::size_t lanes, const BackendOptions& opts);

  BatchOutput process_batch(
      const graph::BatchRange& r,
      std::span<const graph::NodeId> extras = {}) override;
  void warmup(const graph::BatchRange& range) override;
  void reset() override;
  [[nodiscard]] std::string name() const override {
    if (opts_.precision == kernels::Precision::kFp32) return "sharded-cpu";
    return std::string("sharded-cpu:") +
           kernels::precision_name(opts_.precision);
  }
  [[nodiscard]] std::string describe() const override;
  [[nodiscard]] const data::Dataset& dataset() const override { return ds_; }
  [[nodiscard]] graph::VertexStoreStats store_stats() const override {
    return state_.store_stats();
  }
  /// Degradation seam: flips every lane's numeric mode (legal only with no
  /// batch in flight — the lanes share the model's precision caches).
  bool set_precision(kernels::Precision p) override;
  [[nodiscard]] kernels::Precision precision() const override;
  [[nodiscard]] core::RuntimeState* runtime_state() override {
    return &state_;
  }

  [[nodiscard]] std::size_t lanes() const override { return lanes_.size(); }
  BatchOutput process_batch_on(
      std::size_t lane, const graph::BatchRange& r,
      std::span<const graph::NodeId> extras = {}) override;
  void read_footprint(const graph::BatchRange& r,
                      std::vector<graph::NodeId>& out) const override;

  [[nodiscard]] std::size_t num_shards() const {
    return locks_.map().num_shards();
  }

 private:
  const core::TgnModel& model_;
  const data::Dataset& ds_;
  graph::ShardLockTable locks_;
  core::RuntimeState state_;
  std::vector<std::unique_ptr<core::InferenceEngine>> lanes_;
  BackendOptions opts_;
};

}  // namespace tgnn::runtime
