// AutoTuner: the candidate space is gated by the backend's contracts,
// options_for realizes candidates into engine-ready ServingOptions, and
// search() runs successive halving — every candidate measured in round 0,
// the better half kept each round, the measured-best of the final round
// returned — while consuming exactly the stream prefix it accounts for in
// next_index.
#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <stdexcept>
#include <string>

#include "data/synthetic.hpp"
#include "perf/auto_tuner.hpp"
#include "runtime/serving.hpp"

namespace tgnn::perf {
namespace {

data::Dataset tuner_ds() {
  data::SyntheticConfig dcfg;
  dcfg.name = "tuner";
  dcfg.num_users = 500;
  dcfg.num_items = 400;
  dcfg.num_edges = 5000;
  dcfg.edge_dim = 8;
  dcfg.seed = 31;
  return data::make_synthetic(dcfg);
}

core::TgnModel tuner_model(const data::Dataset& ds) {
  core::ModelConfig cfg;
  cfg.mem_dim = 8;
  cfg.time_dim = 4;
  cfg.emb_dim = 8;
  cfg.edge_dim = ds.edge_dim();
  cfg.num_neighbors = 5;
  return core::TgnModel(cfg, 13);
}

TEST(AutoTuner, CandidatesGatedByBackendContracts) {
  const auto ds = tuner_ds();
  const auto model = tuner_model(ds);
  AutoTunerOptions topts;
  topts.batch_grid = {32, 128};
  topts.worker_grid = {2, 4, 64};  // 64 exceeds any lane count: skipped
  topts.depth_grid = {2, 4};

  // "cpu" is a StagedBackend but not a ConcurrentBackend: serial and
  // pipelined candidates only.
  auto cpu = runtime::make_backend("cpu", model, ds);
  AutoTuner cpu_tuner(*cpu, topts);
  std::size_t serial = 0, workers = 0, pipelined = 0;
  for (const auto& c : cpu_tuner.candidates()) {
    if (c.pipelined)
      ++pipelined;
    else if (c.workers > 1)
      ++workers;
    else
      ++serial;
  }
  EXPECT_EQ(serial, 2u);
  EXPECT_EQ(workers, 0u);
  EXPECT_EQ(pipelined, 4u);  // 2 batches x 2 depths

  // "sharded-cpu" is both: worker candidates appear, capped at lanes().
  runtime::BackendOptions bopts;
  bopts.threads = 4;
  auto sharded = runtime::make_backend("sharded-cpu", model, ds, bopts);
  AutoTuner sh_tuner(*sharded, topts);
  serial = workers = pipelined = 0;
  for (const auto& c : sh_tuner.candidates()) {
    if (c.pipelined)
      ++pipelined;
    else if (c.workers > 1) {
      EXPECT_LE(c.workers, 4u);
      ++workers;
    } else {
      ++serial;
    }
  }
  EXPECT_EQ(serial, 2u);
  EXPECT_EQ(workers, 4u);  // 2 batches x {2, 4} workers; 64 skipped
  EXPECT_EQ(pipelined, 4u);

  // "gpu-sim" is neither: serial candidates only.
  auto gpu = runtime::make_backend("gpu-sim", model, ds);
  AutoTuner gpu_tuner(*gpu, topts);
  for (const auto& c : gpu_tuner.candidates()) {
    EXPECT_FALSE(c.pipelined);
    EXPECT_EQ(c.workers, 1u);
  }
  EXPECT_EQ(gpu_tuner.candidates().size(), 2u);
}

TEST(AutoTuner, OptionsRealizeCandidate) {
  const auto ds = tuner_ds();
  const auto model = tuner_model(ds);
  auto backend = runtime::make_backend("cpu", model, ds);
  AutoTunerOptions topts;
  topts.max_wait_s = 5e-4;
  AutoTuner tuner(*backend, topts);

  SwCandidate c;
  c.max_batch = 2048;
  c.pipelined = true;
  c.pipeline_depth = 3;
  const auto o = tuner.options_for(c);
  EXPECT_EQ(o.max_batch, 2048u);
  EXPECT_TRUE(o.pipelined);
  EXPECT_EQ(o.pipeline_depth, 3u);
  EXPECT_EQ(o.workers, 1u);  // pipelined candidates never set lanes
  EXPECT_EQ(o.max_wait_s, 5e-4);
  EXPECT_GE(o.queue_capacity, 4 * o.max_batch);  // cap never starves a batch

  c.pipelined = false;
  c.workers = 4;
  EXPECT_EQ(tuner.options_for(c).workers, 4u);
}

/// Serial batches {16, 32, 64} plus pipelined depths {2, 4} on "cpu":
/// 9 candidates, halved 9 -> 4 -> 2 -> 1 over three rounds.
AutoTunerOptions nine_candidates(std::size_t budget) {
  AutoTunerOptions topts;
  topts.budget_events = budget;
  topts.batch_grid = {16, 32, 64};
  topts.worker_grid = {};
  topts.depth_grid = {2, 4};
  return topts;
}

TEST(AutoTuner, SearchReturnsMeasuredBestAndAccountsForTheStream) {
  const auto ds = tuner_ds();
  const auto model = tuner_model(ds);
  auto backend = runtime::make_backend("cpu", model, ds);
  constexpr std::size_t kStart = 200;
  backend->warmup({0, kStart});  // the search resumes the stream here
  AutoTuner tuner(*backend, nine_candidates(900));
  ASSERT_EQ(tuner.candidates().size(), 9u);

  const auto r = tuner.search(kStart);
  // Three rounds of 900 / 3 = 300 events, each split evenly among the
  // survivors: 9 x 33, then 4 x 75, then 2 x 150.
  EXPECT_EQ(r.next_index, kStart + 9 * 33 + 4 * 75 + 2 * 150);
  ASSERT_EQ(r.ranked.size(), 9u);
  // The final round served two candidates; the winner is the faster one,
  // ranked first, and the returned options realize it.
  EXPECT_GE(r.ranked[0].measured_rps, r.ranked[1].measured_rps);
  EXPECT_EQ(r.chosen.describe(), r.ranked[0].candidate.describe());
  EXPECT_EQ(r.options.max_batch, r.chosen.max_batch);
  EXPECT_EQ(r.options.pipelined, r.chosen.pipelined);
  EXPECT_EQ(r.options.pipeline_depth, r.chosen.pipeline_depth);
  EXPECT_FALSE(r.describe().empty());
}

TEST(AutoTuner, SearchMeasuresEveryCandidateInRoundZero) {
  const auto ds = tuner_ds();
  const auto model = tuner_model(ds);
  auto backend = runtime::make_backend("cpu", model, ds);
  AutoTuner tuner(*backend, nine_candidates(900));

  const auto r = tuner.search(0);
  // Every admitted candidate appears exactly once and carries a real
  // measurement: none is ruled out before it has served traffic.
  std::multiset<std::string> admitted, ranked;
  for (const auto& c : tuner.candidates()) admitted.insert(c.describe());
  for (const auto& rc : r.ranked) {
    ranked.insert(rc.candidate.describe());
    EXPECT_GT(rc.measured_rps, 0.0) << rc.candidate.describe();
  }
  EXPECT_EQ(ranked, admitted);
  // Round-0 losers (the last five) are ordered by their measurement.
  for (std::size_t i = 4; i + 1 < r.ranked.size(); ++i)
    EXPECT_GE(r.ranked[i].measured_rps, r.ranked[i + 1].measured_rps);
}

TEST(AutoTuner, SearchOnApanReturnsAMeasuredWinner) {
  // apan reports no stage times; measurement needs none.
  const auto ds = tuner_ds();
  const auto model = tuner_model(ds);
  auto backend = runtime::make_backend("apan", model, ds);
  AutoTunerOptions topts;
  topts.budget_events = 400;
  topts.batch_grid = {16, 64};
  AutoTuner tuner(*backend, topts);
  ASSERT_EQ(tuner.candidates().size(), 2u);  // serial only

  const auto r = tuner.search(0);
  EXPECT_EQ(r.next_index, 400u);  // one round, 2 x 200
  ASSERT_EQ(r.ranked.size(), 2u);
  EXPECT_GT(r.ranked[0].measured_rps, 0.0);
  EXPECT_GE(r.ranked[0].measured_rps, r.ranked[1].measured_rps);
  EXPECT_EQ(r.chosen.max_batch, r.ranked[0].candidate.max_batch);
  EXPECT_EQ(r.options.max_batch, r.chosen.max_batch);
}

TEST(AutoTuner, SearchWithNoAdmittedCandidateThrows) {
  const auto ds = tuner_ds();
  const auto model = tuner_model(ds);
  auto backend = runtime::make_backend("cpu", model, ds);
  AutoTunerOptions topts;
  topts.batch_grid = {};
  AutoTuner tuner(*backend, topts);
  EXPECT_THROW((void)tuner.search(0), std::invalid_argument);
}

}  // namespace
}  // namespace tgnn::perf
