// Admission-control behavior of the ServingEngine: shed / deadline
// policies, the non-blocking and bounded-wait submit variants, typed
// per-request outcomes, and graceful degradation under sustained
// overload.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>

#include "data/synthetic.hpp"
#include "runtime/serving.hpp"
#include "util/stopwatch.hpp"

namespace tgnn::runtime {
namespace {

data::Dataset tiny_ds() {
  data::SyntheticConfig dcfg;
  dcfg.num_users = 30;
  dcfg.num_items = 20;
  dcfg.num_edges = 400;
  dcfg.edge_dim = 7;
  dcfg.seed = 99;
  return data::make_synthetic(dcfg);
}

core::TgnModel tiny_model(const data::Dataset& ds) {
  core::ModelConfig cfg;
  cfg.mem_dim = 8;
  cfg.time_dim = 4;
  cfg.emb_dim = 6;
  cfg.edge_dim = ds.edge_dim();
  cfg.num_neighbors = 5;
  return core::TgnModel(cfg, 1);
}

/// Every submitted index must appear exactly once in the outcome log —
/// the typed-disposition invariant all admission policies share.
void expect_outcomes_partition(const ServingEngine& server,
                               std::size_t num_submitted) {
  const auto log = server.outcome_log();
  ASSERT_EQ(log.size(), num_submitted);
  std::map<std::size_t, RequestOutcome> by_index;
  for (const auto& rec : log)
    EXPECT_TRUE(by_index.emplace(rec.index, rec.outcome).second)
        << "index " << rec.index << " resolved twice";
  for (std::size_t i = 0; i < num_submitted; ++i)
    EXPECT_TRUE(by_index.count(i)) << "index " << i << " never resolved";
}

TEST(Admission, ShedRejectsWithTypedOutcomeWhenQueueFull) {
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  ServingOptions opts;
  opts.queue_capacity = 4;
  opts.max_batch = 100;   // never fills:
  opts.max_wait_s = 30.0; // the scheduler holds the batch open for ages
  opts.admission = AdmissionPolicy::kShed;
  opts.shed_wait_s = 0.0;
  ServingEngine server(*backend, opts);

  // 0..3 fill the queue; 4..9 find it full and shed immediately.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_TRUE(server.submit(i));
  std::size_t shed = 0;
  for (std::size_t i = 4; i < 10; ++i)
    if (!server.submit(i)) ++shed;
  EXPECT_EQ(shed, 6u);

  server.drain();
  const auto s = server.stats();
  EXPECT_EQ(s.num_requests, 4u);
  EXPECT_EQ(s.num_shed, 6u);
  EXPECT_EQ(s.num_expired, 0u);
  expect_outcomes_partition(server, 10);
  for (const auto& rec : server.outcome_log())
    EXPECT_EQ(rec.outcome, rec.index < 4 ? RequestOutcome::kServed
                                         : RequestOutcome::kShed);

  // A shed request is CONSUMED: the stream cursor advanced past it, so
  // the next submit must pass the successor of the last shed index.
  EXPECT_THROW(server.submit(4), std::invalid_argument);
  EXPECT_TRUE(server.submit(10));
  server.drain();
}

TEST(Admission, ShedGapsNeverProduceNonContiguousBatches) {
  // Sheds punch index gaps into the stream. The scheduler must cap each
  // micro-batch at the contiguous run — a batch spanning a gap would feed
  // the backend edges that were never admitted.
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  ServingOptions opts;
  opts.queue_capacity = 4;
  opts.max_batch = 2;  // smaller than the queue: gaps can sit mid-queue
  opts.max_wait_s = 1e-4;
  opts.admission = AdmissionPolicy::kShed;
  opts.shed_wait_s = 0.0;
  ServingEngine server(*backend, opts);

  std::size_t shed = 0;
  const std::size_t kN = 300;
  for (std::size_t i = 0; i < kN; ++i)
    if (!server.submit(i)) ++shed;
  server.drain();

  const auto s = server.stats();
  EXPECT_EQ(s.num_requests + s.num_shed, kN);
  EXPECT_EQ(s.num_shed, shed);
  expect_outcomes_partition(server, kN);

  // Batches are contiguous, strictly increasing, and skip exactly the
  // shed indices.
  std::map<std::size_t, RequestOutcome> by_index;
  for (const auto& rec : server.outcome_log())
    by_index[rec.index] = rec.outcome;
  std::size_t prev_end = 0;
  std::size_t served = 0;
  for (const auto& b : server.batch_log()) {
    EXPECT_GE(b.begin, prev_end);
    EXPECT_GT(b.end, b.begin);
    EXPECT_LE(b.size(), opts.max_batch);
    for (std::size_t i = b.begin; i < b.end; ++i) {
      EXPECT_EQ(by_index[i], RequestOutcome::kServed);
      ++served;
    }
    prev_end = b.end;
  }
  EXPECT_EQ(served, s.num_requests);
}

TEST(Admission, DeadlineExpiresStaleRequestsBeforeDispatch) {
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  ServingOptions opts;
  opts.max_batch = 100;
  opts.max_wait_s = 30.0;  // coalescing would park the batch for ages...
  opts.admission = AdmissionPolicy::kDeadline;
  opts.deadline_s = 5e-3;  // ...but the budget expires requests first
  ServingEngine server(*backend, opts);

  const std::size_t kN = 50;
  for (std::size_t i = 0; i < kN; ++i) server.submit(i);
  // Nothing can dispatch (max_batch unreachable, max_wait huge), so once
  // the 5 ms budget passes the whole backlog expires. Sleep well past the
  // budget BEFORE draining — drain's force-flush would otherwise serve
  // entries that had not expired yet.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.drain();

  const auto s = server.stats();
  EXPECT_EQ(s.num_requests + s.num_expired, kN);
  EXPECT_GE(s.num_expired, 1u);
  expect_outcomes_partition(server, kN);

  // Expired requests were consumed; the stream continues past them. With
  // a sane deadline the follow-up burst is served normally.
  EXPECT_TRUE(server.submit(kN));
  server.drain();
  EXPECT_GE(server.stats().num_requests, 1u);
}

TEST(Admission, DeadlineServesEverythingUnderLightLoad) {
  // A deadline engine with headroom must behave exactly like kBlock:
  // nothing sheds, nothing expires.
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  ServingOptions opts;
  opts.max_batch = 16;
  opts.max_wait_s = 1e-4;
  opts.admission = AdmissionPolicy::kDeadline;
  opts.deadline_s = 30.0;
  ServingEngine server(*backend, opts);
  const std::size_t kN = 200;
  for (std::size_t i = 0; i < kN; ++i) server.submit(i);
  server.drain();
  const auto s = server.stats();
  EXPECT_EQ(s.num_requests, kN);
  EXPECT_EQ(s.num_expired, 0u);
  EXPECT_EQ(s.num_shed, 0u);
  expect_outcomes_partition(server, kN);
}

TEST(Admission, TrySubmitNeverBlocksAndNeverConsumesOnReject) {
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  ServingOptions opts;
  opts.queue_capacity = 2;
  opts.max_batch = 100;
  opts.max_wait_s = 30.0;
  ServingEngine server(*backend, opts);

  EXPECT_TRUE(server.try_submit(0));
  EXPECT_TRUE(server.try_submit(1));
  Stopwatch sw;
  EXPECT_FALSE(server.try_submit(2));  // full — instant rejection
  EXPECT_FALSE(server.try_submit(2));
  EXPECT_LT(sw.seconds(), 1.0);
  // Rejection did not consume index 2: submitting its successor first is
  // still an ordering error.
  EXPECT_THROW(server.try_submit(3), std::invalid_argument);

  server.drain();  // clears the queue
  EXPECT_TRUE(server.try_submit(2));  // the same index, retried, admits
  server.drain();
  EXPECT_EQ(server.stats().num_requests, 3u);
}

TEST(Admission, TimedSubmitBoundsTheWaitWithoutConsuming) {
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  ServingOptions opts;
  opts.queue_capacity = 1;
  opts.max_batch = 100;
  opts.max_wait_s = 30.0;
  ServingEngine server(*backend, opts);

  EXPECT_TRUE(server.submit(0, 1.0));
  Stopwatch sw;
  EXPECT_FALSE(server.submit(1, 0.02));  // full: times out in ~20 ms
  const double waited = sw.seconds();
  EXPECT_GE(waited, 0.02);
  EXPECT_LT(waited, 5.0);

  server.drain();
  EXPECT_TRUE(server.submit(1, 0.02));  // not consumed — retry admits
  server.drain();
  EXPECT_EQ(server.stats().num_requests, 2u);
}

TEST(Admission, DegradesUnderSustainedOverloadAndRecovers) {
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  ServingOptions opts;
  opts.queue_capacity = 2;
  opts.max_batch = 1;  // every request is a batch formation = one
                       // hysteresis evaluation
  opts.max_wait_s = 0.0;
  opts.degrade_under_overload = true;
  opts.degrade_high = 0.25;
  opts.degrade_low = 0.01;
  opts.degrade_patience = 1;
  ServingEngine server(*backend, opts);
  EXPECT_EQ(server.stats().precision, kernels::Precision::kFp32);

  // Saturate: blocking submits keep the queue at capacity, so batch
  // formations observe a pressured queue and walk the ladder down.
  std::size_t i = 0;
  for (; i < 300; ++i) server.submit(i);
  server.drain();
  const auto pressured = server.stats();
  EXPECT_GE(pressured.degrade_steps, 1u);
  EXPECT_NE(pressured.precision, kernels::Precision::kFp32);
  EXPECT_EQ(pressured.num_requests, 300u);  // degraded, not dropped

  // Clear: paced submits leave the queue empty at formation time, so the
  // hysteresis walks back up to the base precision.
  for (const std::size_t end = i + 60; i < end; ++i) {
    server.submit(i);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  server.drain();
  const auto recovered = server.stats();
  EXPECT_EQ(recovered.precision, kernels::Precision::kFp32);

  // The journal holds one kPrecision event per flip. Each flip moves one
  // rung, and the walk starts and ends at fp32, so there are as many flips
  // up as down (degrade_steps), and the last lands back on fp32.
  const auto log = server.tuning_log();
  ASSERT_FALSE(log.empty());
  ASSERT_EQ(log.size(), 2 * recovered.degrade_steps);
  auto prev = static_cast<std::size_t>(kernels::Precision::kFp32);
  for (const TuningEvent& e : log) {
    EXPECT_EQ(e.kind, TuningEvent::Kind::kPrecision);
    EXPECT_NE(e.value, prev);  // every event is a real flip
    prev = e.value;
  }
  EXPECT_EQ(log.back().value,
            static_cast<std::size_t>(kernels::Precision::kFp32));
}

TEST(Admission, BlockPolicyReportsNoOverloadCounters) {
  // The default policy is exactly the pre-admission behavior: every
  // request blocks its way in and is served.
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  ServingOptions opts;
  opts.queue_capacity = 2;
  opts.max_batch = 4;
  opts.max_wait_s = 1e-4;
  ServingEngine server(*backend, opts);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_TRUE(server.submit(i));
  server.drain();
  const auto s = server.stats();
  EXPECT_EQ(s.num_requests, 100u);
  EXPECT_EQ(s.num_shed + s.num_expired + s.num_failed, 0u);
  EXPECT_EQ(s.degrade_steps, 0u);
  EXPECT_EQ(s.precision, kernels::Precision::kFp32);
  expect_outcomes_partition(server, 100);
}

TEST(Admission, OptionValidation) {
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  {
    ServingOptions opts;
    opts.admission = AdmissionPolicy::kShed;
    opts.shed_wait_s = -1.0;
    EXPECT_THROW(ServingEngine(*backend, opts), std::invalid_argument);
  }
  {
    ServingOptions opts;
    opts.admission = AdmissionPolicy::kDeadline;
    opts.deadline_s = 0.0;
    EXPECT_THROW(ServingEngine(*backend, opts), std::invalid_argument);
  }
  {
    ServingOptions opts;
    opts.degrade_under_overload = true;
    opts.degrade_low = 0.8;
    opts.degrade_high = 0.2;
    EXPECT_THROW(ServingEngine(*backend, opts), std::invalid_argument);
  }
}

}  // namespace
}  // namespace tgnn::runtime
