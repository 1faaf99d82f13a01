// The out-of-core acceptance contract (ISSUE 7): a vertex state that only
// keeps ~10% of its rows resident — spilling the rest through the paged
// store — serves bit-identically to the all-resident tables on every
// engine-backed platform, and the hit/miss/spill counters surface in
// ServingStats. Paging may change *when* a row is in DRAM, never its bits.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "data/synthetic.hpp"
#include "runtime/backend.hpp"
#include "runtime/driver.hpp"
#include "runtime/serving.hpp"
#include "tensor/ops.hpp"

namespace tgnn::runtime {
namespace {

data::Dataset oo_ds() {
  data::SyntheticConfig dcfg;
  dcfg.num_users = 400;
  dcfg.num_items = 300;
  dcfg.num_edges = 1200;
  dcfg.edge_dim = 6;
  dcfg.seed = 77;
  return data::make_synthetic(dcfg);
}

core::TgnModel oo_model(const data::Dataset& ds) {
  core::ModelConfig cfg;
  cfg.mem_dim = 8;
  cfg.time_dim = 4;
  cfg.emb_dim = 6;
  cfg.edge_dim = ds.edge_dim();
  cfg.num_neighbors = 5;
  return core::TgnModel(cfg, 9);
}

/// Run the same batched stream through an all-resident and a 10%-budget
/// instance of `key`; every batch's embeddings must match bit-for-bit.
void expect_budgeted_matches_resident(const std::string& key,
                                      BackendOptions opts = {}) {
  const auto ds = oo_ds();
  const auto model = oo_model(ds);
  auto resident = make_backend(key, model, ds, opts);
  BackendOptions budgeted_opts = opts;
  budgeted_opts.memory_budget = core::RuntimeState::state_bytes(
                                    ds.graph.num_nodes(), model.config()) /
                                10;
  auto budgeted = make_backend(key, model, ds, budgeted_opts);

  for (const auto& r : ds.graph.fixed_size_batches(0, 900, 60)) {
    const auto a = resident->process_batch(r);
    const auto b = budgeted->process_batch(r);
    ASSERT_EQ(a.functional.nodes, b.functional.nodes) << key;
    EXPECT_EQ(ops::max_abs_diff(a.functional.embeddings,
                                b.functional.embeddings),
              0.0f)
        << key;
  }
  const auto st = budgeted->store_stats();
  EXPECT_GT(st.misses, 0u) << key;      // the budget actually paged
  EXPECT_GT(st.evictions, 0u) << key;   // ...and evicted
  EXPECT_EQ(resident->store_stats().misses, 0u) << key;
}

TEST(OutOfCore, CpuBudgetedBitIdenticalToResident) {
  expect_budgeted_matches_resident("cpu");
}

TEST(OutOfCore, CpuMtBudgetedBitIdenticalToResident) {
  BackendOptions opts;
  opts.threads = 3;
  expect_budgeted_matches_resident("cpu-mt", opts);
}

TEST(OutOfCore, ShardedCpuBudgetedBitIdenticalToResident) {
  BackendOptions opts;
  opts.threads = 3;
  opts.shards = 8;
  expect_budgeted_matches_resident("sharded-cpu", opts);
}

TEST(OutOfCore, MemKeySuffixMatchesOptionsBudget) {
  // "cpu:mem=10%" is the CLI spelling of the options-level budget.
  const auto ds = oo_ds();
  const auto model = oo_model(ds);
  auto via_key = make_backend("cpu:mem=10%", model, ds);
  BackendOptions opts;
  opts.memory_budget = core::RuntimeState::state_bytes(ds.graph.num_nodes(),
                                                       model.config()) /
                       10;
  auto via_opts = make_backend("cpu", model, ds, opts);
  for (const auto& r : ds.graph.fixed_size_batches(0, 300, 60)) {
    const auto a = via_key->process_batch(r);
    const auto b = via_opts->process_batch(r);
    EXPECT_EQ(ops::max_abs_diff(a.functional.embeddings,
                                b.functional.embeddings),
              0.0f);
  }
  EXPECT_GT(via_key->store_stats().misses, 0u);
}

TEST(OutOfCore, DeterministicWorkersBudgetedBitIdenticalToSerial) {
  // The hardest composition: budgeted store + concurrent lanes. Three
  // deterministic lanes over the paged store must leave exactly the state
  // serial all-resident serving leaves. The graph is sparse (uniform
  // users, one community) so consecutive micro-batches rarely share a
  // vertex and the lanes actually overlap.
  data::SyntheticConfig dcfg;
  dcfg.num_users = 4000;
  dcfg.num_items = 4000;
  dcfg.num_edges = 1200;
  dcfg.edge_dim = 6;
  dcfg.user_zipf_s = 0.0;
  dcfg.num_communities = 1;
  dcfg.seed = 77;
  const auto ds = data::make_synthetic(dcfg);
  const auto model = oo_model(ds);
  BackendOptions opts;
  opts.threads = 3;
  opts.shards = 8;
  opts.memory_budget = core::RuntimeState::state_bytes(ds.graph.num_nodes(),
                                                       model.config()) /
                       10;
  auto budgeted = make_backend("sharded-cpu", model, ds, opts);
  auto serial = make_backend("cpu", model, ds);

  ServingOptions sopts;
  sopts.max_batch = 20;
  sopts.max_wait_s = 10.0;
  sopts.workers = 3;
  sopts.deterministic = true;
  ServingStats stats;
  {
    ServingEngine server(*budgeted, sopts);
    for (std::size_t i = 0; i < 900; ++i) server.submit(i);
    server.drain();
    stats = server.stats();
  }
  run_stream(*serial, {0, 900}, 20);

  const graph::BatchRange next{900, 960};
  const auto a = budgeted->process_batch(next);
  const auto b = serial->process_batch(next);
  ASSERT_EQ(a.functional.nodes, b.functional.nodes);
  EXPECT_EQ(
      ops::max_abs_diff(a.functional.embeddings, b.functional.embeddings),
      0.0f);
  EXPECT_GT(stats.store.misses, 0u);           // the budget actually paged
  EXPECT_GT(stats.peak_parallel_batches, 1u);  // ...under lane overlap
}

TEST(OutOfCore, ServingStatsExposeStoreCounters) {
  const auto ds = oo_ds();
  const auto model = oo_model(ds);
  BackendOptions opts;
  opts.memory_budget = core::RuntimeState::state_bytes(ds.graph.num_nodes(),
                                                       model.config()) /
                       10;
  auto budgeted = make_backend("cpu", model, ds, opts);
  ServingOptions sopts;
  sopts.max_batch = 60;
  sopts.max_wait_s = 10.0;
  ServingEngine server(*budgeted, sopts);
  for (std::size_t i = 0; i < 600; ++i) server.submit(i);
  server.drain();
  const auto s = server.stats();
  EXPECT_GT(s.store.hits, 0u);
  EXPECT_GT(s.store.misses, 0u);
  EXPECT_GT(s.store.evictions, 0u);
  EXPECT_GT(s.store.hit_rate(), 0.0);
  EXPECT_LT(s.store.hit_rate(), 1.0);

  // All-resident serving reports clean zeros (and hit_rate 1.0 by
  // convention — nothing ever waited on a fault).
  auto resident = make_backend("cpu", model, ds);
  ServingEngine rserver(*resident, sopts);
  for (std::size_t i = 0; i < 600; ++i) rserver.submit(i);
  rserver.drain();
  const auto rs = rserver.stats();
  EXPECT_EQ(rs.store.hits + rs.store.misses, 0u);
  EXPECT_DOUBLE_EQ(rs.store.hit_rate(), 1.0);
}

TEST(OutOfCore, ModelledPlatformsRejectMemorySuffix) {
  const auto ds = oo_ds();
  const auto model = oo_model(ds);
  EXPECT_THROW(make_backend("fpga:mem=50%", model, ds),
               std::invalid_argument);
  EXPECT_THROW(make_backend("gpu-sim:mem=1m", model, ds),
               std::invalid_argument);
  EXPECT_THROW(make_backend("cpu:mem=bogus", model, ds),
               std::invalid_argument);
}

}  // namespace
}  // namespace tgnn::runtime
