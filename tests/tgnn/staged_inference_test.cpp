// The staged-execution contract of InferenceEngine: driving a batch stage
// by stage over a caller-owned StageContext is bit-identical to
// process_batch (which is itself the four stages on the engine's own
// context), state evolves identically, contexts are reusable, and
// process_batch / staged driving may interleave between batches on one
// engine. This is the contract the staged replay API
// (runtime::StagedBackend) relies on to time each stage of a served batch.
#include <gtest/gtest.h>

#include <algorithm>

#include "data/synthetic.hpp"
#include "tensor/ops.hpp"
#include "tgnn/inference.hpp"

namespace tgnn::core {
namespace {

data::Dataset staged_ds() {
  data::SyntheticConfig dcfg;
  dcfg.num_users = 120;
  dcfg.num_items = 90;
  dcfg.num_edges = 900;
  dcfg.edge_dim = 5;
  dcfg.seed = 17;
  return data::make_synthetic(dcfg);
}

TgnModel staged_model(const data::Dataset& ds, AttentionKind kind) {
  ModelConfig cfg;
  cfg.mem_dim = 8;
  cfg.time_dim = 4;
  cfg.emb_dim = 6;
  cfg.edge_dim = ds.edge_dim();
  cfg.num_neighbors = 5;
  cfg.prune_budget = 3;
  cfg.attention = kind;
  return TgnModel(cfg, 3);
}

/// Drive one batch through the staged API on `ctx`.
BatchResult run_staged(InferenceEngine& eng, StageContext& ctx,
                       const graph::BatchRange& r,
                       std::span<const graph::NodeId> extras = {}) {
  eng.stage_begin(ctx, r, extras);
  eng.stage_run(Stage::kMemoryUpdate, ctx);
  eng.stage_run(Stage::kNeighborGather, ctx);
  eng.stage_run(Stage::kGnnCompute, ctx);
  eng.stage_run(Stage::kDecode, ctx);
  return eng.stage_finish(ctx);
}

class StagedInference : public ::testing::TestWithParam<AttentionKind> {};

TEST_P(StagedInference, StageByStageMatchesProcessBatch) {
  // Two fresh engines over the same model: one streams through
  // process_batch, the other through the staged API on one reused
  // caller-owned context. Every batch's embeddings — and therefore the
  // state both leave behind — must match bit for bit.
  const auto ds = staged_ds();
  const auto model = staged_model(ds, GetParam());
  InferenceEngine serial(model, ds);
  InferenceEngine staged(model, ds);
  StageContext ctx;
  staged.reserve_context(ctx, 64);

  for (const auto& r : ds.graph.fixed_size_batches(0, 600, 64)) {
    const auto a = serial.process_batch(r);
    const auto b = run_staged(staged, ctx, r);
    ASSERT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(ops::max_abs_diff(a.embeddings, b.embeddings), 0.0f);
    EXPECT_GT(ctx.parts.total(), 0.0);  // stages are individually timed
  }
}

TEST_P(StagedInference, InterleavesWithProcessBatchBetweenBatches) {
  // One engine alternating drivers batch by batch equals pure
  // process_batch streaming — the staged API shares the engine's state,
  // not its serial context.
  const auto ds = staged_ds();
  const auto model = staged_model(ds, GetParam());
  InferenceEngine serial(model, ds);
  InferenceEngine mixed(model, ds);
  StageContext ctx;

  std::size_t i = 0;
  for (const auto& r : ds.graph.fixed_size_batches(0, 600, 50)) {
    const auto a = serial.process_batch(r);
    const auto b = (i++ % 2 == 0) ? mixed.process_batch(r)
                                  : run_staged(mixed, ctx, r);
    ASSERT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(ops::max_abs_diff(a.embeddings, b.embeddings), 0.0f);
  }
}

TEST_P(StagedInference, ExtrasEmbeddedWithoutCommittingState) {
  // Negative-sample extras flow through the staged path exactly as through
  // process_batch: embedded, not committed.
  const auto ds = staged_ds();
  const auto model = staged_model(ds, GetParam());
  InferenceEngine serial(model, ds);
  InferenceEngine staged(model, ds);
  StageContext ctx;
  const std::vector<graph::NodeId> extras = {3, 7, 11};

  for (const auto& r : ds.graph.fixed_size_batches(0, 300, 60)) {
    const auto a = serial.process_batch(r, extras);
    const auto b = run_staged(staged, ctx, r, extras);
    ASSERT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(ops::max_abs_diff(a.embeddings, b.embeddings), 0.0f);
    for (graph::NodeId v : extras) ASSERT_TRUE(b.index.count(v) > 0);
  }
  // After identical streams, the next batch (no extras) still matches: the
  // extras never leaked into either engine's state.
  const graph::BatchRange next{300, 360};
  const auto a = serial.process_batch(next);
  const auto b = run_staged(staged, ctx, next);
  ASSERT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(ops::max_abs_diff(a.embeddings, b.embeddings), 0.0f);
}

TEST_P(StagedInference, ReadFootprintCoversSampledNeighbors) {
  // The hazard-admission query: after any prefix, the footprint of the
  // next batch contains every neighbor the stages would read for it.
  const auto ds = staged_ds();
  const auto model = staged_model(ds, GetParam());
  InferenceEngine eng(model, ds);
  for (const auto& r : ds.graph.fixed_size_batches(0, 400, 50))
    eng.process_batch(r);

  const graph::BatchRange next{400, 450};
  std::vector<graph::NodeId> fp;
  eng.read_footprint(next, fp);
  EXPECT_TRUE(std::is_sorted(fp.begin(), fp.end()));
  EXPECT_TRUE(std::adjacent_find(fp.begin(), fp.end()) == fp.end());

  std::vector<graph::NeighborHit> hits;
  StageContext probe;
  eng.stage_begin(probe, next);
  for (std::size_t i = 0; i < probe.res.nodes.size(); ++i) {
    eng.state().neighbors_into(probe.res.nodes[i], probe.ws.t_event[i],
                               model.config().num_neighbors, hits);
    for (const auto& h : hits)
      EXPECT_TRUE(std::binary_search(fp.begin(), fp.end(), h.node))
          << "missing neighbor " << h.node;
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, StagedInference,
                         ::testing::Values(AttentionKind::kVanilla,
                                           AttentionKind::kSimplified));

TEST(BatchWorkspaceGrow, GrowToNeverShrinks) {
  // The one shared high-water growth rule: grows to the requested size,
  // keeps the high-water mark on smaller requests.
  std::vector<int> v;
  BatchWorkspace::grow_to(v, 5);
  EXPECT_EQ(v.size(), 5u);
  BatchWorkspace::grow_to(v, 3);
  EXPECT_EQ(v.size(), 5u);
  BatchWorkspace::grow_to(v, 9);
  EXPECT_EQ(v.size(), 9u);
}

}  // namespace
}  // namespace tgnn::core
