// StageProfiler: EWMA/mean accumulation, windowed percentiles, bottleneck
// identification, and reset semantics.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "perf/stage_profile.hpp"

namespace tgnn::perf {
namespace {

using Stages = std::array<double, core::kNumStages>;

TEST(StageProfile, EmptyProfileIsInert) {
  StageProfiler prof;
  const auto p = prof.snapshot();
  EXPECT_EQ(p.batches, 0u);
  EXPECT_EQ(p.bottleneck_stage(), 0u);
  for (const auto& s : p.stages) {
    EXPECT_EQ(s.ewma_s, 0.0);
    EXPECT_EQ(s.p95_s, 0.0);
  }
}

TEST(StageProfile, ConstantSamplesConvergeEverywhere) {
  // Identical batches: EWMA == mean == p50 == p95 per stage.
  StageProfiler prof(0.2, 32);
  const Stages t{1e-3, 2e-3, 4e-3, 0.5e-3};
  for (int i = 0; i < 64; ++i) prof.record(t, 50, 80, 3);
  const auto p = prof.snapshot();
  EXPECT_EQ(p.batches, 64u);
  for (std::size_t k = 0; k < core::kNumStages; ++k) {
    EXPECT_NEAR(p.stages[k].ewma_s, t[k], 1e-12);
    EXPECT_NEAR(p.stages[k].mean_s, t[k], 1e-12);
    EXPECT_NEAR(p.stages[k].p50_s, t[k], 1e-12);
    EXPECT_NEAR(p.stages[k].p95_s, t[k], 1e-12);
  }
  EXPECT_NEAR(p.ewma_batch_edges, 50.0, 1e-9);
  EXPECT_NEAR(p.vertices_per_edge, 80.0 / 50.0, 1e-9);
  EXPECT_NEAR(p.ewma_queue_depth, 3.0, 1e-9);
  EXPECT_EQ(p.bottleneck_stage(), 2u);  // GnnCompute
  EXPECT_FALSE(p.describe().empty());
}

TEST(StageProfile, PercentilesTrackTheRecentWindowOnly) {
  // 8-sample window: a burst of slow batches after many fast ones must own
  // the percentiles (the EWMA moves slowly, the window moves fast).
  StageProfiler prof(0.2, 8);
  Stages fast{};
  fast[2] = 1e-3;
  Stages slow{};
  slow[2] = 9e-3;
  for (int i = 0; i < 100; ++i) prof.record(fast, 10, 20, 0);
  for (int i = 0; i < 8; ++i) prof.record(slow, 10, 20, 0);
  const auto p = prof.snapshot();
  EXPECT_NEAR(p.stages[2].p50_s, 9e-3, 1e-12);
  EXPECT_NEAR(p.stages[2].p95_s, 9e-3, 1e-12);
  EXPECT_LT(p.stages[2].ewma_s, 9e-3);  // EWMA still remembers the past
}

TEST(StageProfile, EwmaRespondsFasterThanMean) {
  StageProfiler prof(0.5, 16);
  Stages a{};
  a[0] = 1e-3;
  Stages b{};
  b[0] = 5e-3;
  for (int i = 0; i < 50; ++i) prof.record(a, 10, 20, 0);
  for (int i = 0; i < 5; ++i) prof.record(b, 10, 20, 0);
  const auto p = prof.snapshot();
  EXPECT_GT(p.stages[0].ewma_s, p.stages[0].mean_s);
}

TEST(StageProfile, ResetClearsEverything) {
  StageProfiler prof;
  const Stages t{1e-3, 1e-3, 1e-3, 1e-3};
  for (int i = 0; i < 10; ++i) prof.record(t, 30, 60, 2);
  prof.reset();
  EXPECT_EQ(prof.batches(), 0u);
  const auto p = prof.snapshot();
  EXPECT_EQ(p.batches, 0u);
  EXPECT_EQ(p.ewma_batch_edges, 0.0);
  for (const auto& s : p.stages) {
    EXPECT_EQ(s.ewma_s, 0.0);
    EXPECT_EQ(s.mean_s, 0.0);
    EXPECT_EQ(s.p95_s, 0.0);
  }
}

TEST(StageProfile, StageNamesMatchCoreOrder) {
  EXPECT_STREQ(stage_name(0), "MemoryUpdate");
  EXPECT_STREQ(stage_name(1), "NeighborGather");
  EXPECT_STREQ(stage_name(2), "GnnCompute");
  EXPECT_STREQ(stage_name(3), "Decode");
}

}  // namespace
}  // namespace tgnn::perf
