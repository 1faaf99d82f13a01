// Tests of the benchmark's own logic (harness.hpp) on synthetic traces.
#include "harness.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace {

using tgnn::runtime::OutcomeRecord;
using tgnn::runtime::RequestOutcome;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(PoissonSchedule, PureFunctionOfSeedAndRate) {
  const auto a = e2e::poisson_schedule(7, 1000.0, 5000);
  EXPECT_EQ(a, e2e::poisson_schedule(7, 1000.0, 5000));
  EXPECT_NE(a, e2e::poisson_schedule(8, 1000.0, 5000));
  EXPECT_NE(a, e2e::poisson_schedule(7, 2000.0, 5000));
  ASSERT_EQ(a.size(), 5000U);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_GE(a[i], a[i - 1]);
  // 5000 arrivals at 1000/s span about 5 s (sd of the sum ~ 0.07 s).
  EXPECT_NEAR(a.back(), 5.0, 0.35);
  EXPECT_THROW(e2e::poisson_schedule(7, 0.0, 10), std::invalid_argument);
}

TEST(DueTimes, AddsGeneratorLatenessToTheMatchingRequest) {
  // Requests 100..103 due at 0, 1, 2, 3 s; request 102 was submitted 0.5 s
  // late. The engine completed them out of index order: 101, 100, 103, 102
  // (request_latency_s is completion order), and the served records of
  // the outcome log follow that same order.
  const std::vector<double> due = {0.0, 1.0, 2.0, 3.0};
  const std::vector<double> late = {0.0, 0.0, 0.5, 0.0};
  const std::vector<OutcomeRecord> outcomes = {
      {101, RequestOutcome::kServed},
      {100, RequestOutcome::kServed},
      {103, RequestOutcome::kServed},
      {102, RequestOutcome::kServed}};
  const std::vector<double> engine = {0.011, 0.010, 0.013, 0.012};
  const auto t = e2e::due_times(100, due, late, outcomes, engine);
  EXPECT_EQ(t.served, 4U);
  EXPECT_DOUBLE_EQ(t.latency_s[0], 0.010);
  EXPECT_DOUBLE_EQ(t.latency_s[1], 0.011);
  EXPECT_DOUBLE_EQ(t.latency_s[2], 0.512);
  EXPECT_DOUBLE_EQ(t.latency_s[3], 0.013);
  EXPECT_DOUBLE_EQ(t.done_s[2], 2.512);
}

TEST(DueTimes, UnservedRequestsStayNaNAndMismatchesThrow) {
  const std::vector<double> due = {0.0, 1.0};
  const std::vector<double> late = {0.0, 0.0};
  const std::vector<OutcomeRecord> outcomes = {
      {5, RequestOutcome::kShed}, {6, RequestOutcome::kServed}};
  const std::vector<double> engine = {0.002};
  const auto t = e2e::due_times(5, due, late, outcomes, engine);
  EXPECT_TRUE(std::isnan(t.latency_s[0]));
  EXPECT_DOUBLE_EQ(t.latency_s[1], 0.002);
  EXPECT_EQ(t.served, 1U);
  const std::vector<double> two = {0.002, 0.003};
  EXPECT_THROW(e2e::due_times(5, due, late, outcomes, two),
               std::invalid_argument);
  const std::vector<OutcomeRecord> outside = {{9, RequestOutcome::kServed}};
  EXPECT_THROW(e2e::due_times(5, due, late, outside, engine),
               std::invalid_argument);
}

TEST(Quantiles, ReportedWithSampleCounts) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i * 1e-3);
  v.push_back(kNaN);  // an unserved request is not a sample
  const auto q = e2e::quantiles(v);
  EXPECT_EQ(q.n, 1000U);
  EXPECT_DOUBLE_EQ(q.p50, 0.500);
  EXPECT_DOUBLE_EQ(q.p95, 0.950);
  EXPECT_DOUBLE_EQ(q.p99, 0.990);
  EXPECT_EQ(e2e::describe_percentile("p99_ms", 990.0, 0.99, q.n),
            "p99_ms 990.000 ms (n=1000, 10 beyond)");
  EXPECT_EQ(e2e::quantiles(std::vector<double>{}).n, 0U);
}

/// A synthetic rung: `n` requests due every 1/rate s, each served with
/// latency latency(i) (NaN = not served).
template <typename F>
std::pair<std::vector<double>, e2e::DueTimes> rung_trace(std::size_t n,
                                                         double rate,
                                                         F latency) {
  std::vector<double> due(n);
  e2e::DueTimes t;
  t.latency_s.resize(n);
  t.done_s.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = static_cast<double>(i) / rate;
    t.latency_s[i] = latency(i);
    t.done_s[i] = due[i] + t.latency_s[i];
    if (!std::isnan(t.latency_s[i])) ++t.served;
  }
  return {due, t};
}

TEST(Quantiles, MedianOverSecondsOfDueTime) {
  // Three seconds of 100 requests each; the middle second stalled.
  std::vector<double> lat, due;
  for (int k = 0; k < 3; ++k)
    for (int i = 0; i < 100; ++i) {
      due.push_back(k + i / 100.0);
      lat.push_back(k == 1 ? 0.050 : 0.001 * (1 + i % 10));
    }
  due.push_back(3.2);  // past the last whole second: joins the last window
  lat.push_back(0.001);
  const auto w = e2e::windowed_quantiles(lat, due, 3);
  ASSERT_EQ(w.size(), 3U);
  EXPECT_EQ(w[0].n, 100U);
  EXPECT_EQ(w[2].n, 101U);
  EXPECT_DOUBLE_EQ(w[1].p99, 0.050);
  const auto m = e2e::median_quantiles(w);
  EXPECT_DOUBLE_EQ(m.p99, 0.010);  // the stalled second is outvoted
  EXPECT_DOUBLE_EQ(m.p50, 0.005);
  EXPECT_EQ(m.n, 100U);
  EXPECT_THROW(e2e::windowed_quantiles(lat, std::vector<double>{0.0}, 3),
               std::invalid_argument);
}

TEST(Ladder, StableRungPasses) {
  const auto [due, t] = rung_trace(2000, 1000.0, [](std::size_t i) {
    return i % 200 == 0 ? 0.030 : 0.002;  // 0.5% beyond a 10 ms limit
  });
  const auto v = e2e::judge_rung(1000.0, due, t, 0.010);
  EXPECT_TRUE(v.pass);
  EXPECT_FALSE(v.backlog_grows);
  EXPECT_DOUBLE_EQ(v.within_frac, 0.995);
  EXPECT_NEAR(v.achieved_rps, 1000.0, 5.0);
}

TEST(Ladder, TailBeyondLimitFails) {
  const auto [due, t] = rung_trace(2000, 1000.0, [](std::size_t i) {
    return i % 50 == 0 ? 0.030 : 0.002;  // 2% beyond the limit
  });
  const auto v = e2e::judge_rung(1000.0, due, t, 0.010);
  EXPECT_FALSE(v.pass);
  EXPECT_FALSE(v.backlog_grows);
}

TEST(Ladder, GrowingBacklogFailsEvenWithinLimit) {
  // Service falls behind arrivals: latency grows linearly with position.
  // With a generous limit every request is "within", but the backlog grows.
  const auto [due, t] = rung_trace(4000, 1000.0, [](std::size_t i) {
    return 0.001 + 0.5e-3 * static_cast<double>(i);
  });
  const auto v = e2e::judge_rung(1000.0, due, t, 5.0);
  EXPECT_EQ(v.within_frac, 1.0);
  EXPECT_FALSE(v.backlog_grows);  // 1 s of growth < rate * limit = 5000
  const auto tight = e2e::judge_rung(1000.0, due, t, 0.5);
  EXPECT_TRUE(tight.backlog_grows);  // grows by ~700 > 500
  EXPECT_GT(tight.backlog_end, tight.backlog_mid);
  EXPECT_FALSE(tight.pass);
}

TEST(Ladder, UnservedRequestFailsAndSloPicksHighestPassingRung) {
  const auto [due, t] = rung_trace(1000, 1000.0, [](std::size_t i) {
    return i == 10 ? kNaN : 0.001;
  });
  const auto lost = e2e::judge_rung(1000.0, due, t, 0.010);
  EXPECT_FALSE(lost.pass);
  EXPECT_EQ(lost.served, 999U);

  std::vector<e2e::RungVerdict> rungs(3);
  rungs[0] = {.rate_rps = 100, .pass = true, .achieved_rps = 99.0};
  rungs[1] = {.rate_rps = 200, .pass = false, .achieved_rps = 150.0};
  rungs[2] = {.rate_rps = 300, .pass = true, .achieved_rps = 301.0};
  EXPECT_DOUBLE_EQ(e2e::slo_rps(rungs), 301.0);
  rungs[2].pass = false;
  EXPECT_DOUBLE_EQ(e2e::slo_rps(rungs), 99.0);
  rungs[0].pass = false;
  EXPECT_DOUBLE_EQ(e2e::slo_rps(rungs), 0.0);
}

TEST(Gate, ResolutionExactlyOnce) {
  std::vector<OutcomeRecord> o = {{10, RequestOutcome::kServed},
                                  {11, RequestOutcome::kShed},
                                  {12, RequestOutcome::kFailed}};
  EXPECT_EQ(e2e::check_resolution(10, 3, o), "");
  o.push_back({11, RequestOutcome::kServed});
  EXPECT_NE(e2e::check_resolution(10, 3, o), "");
  o.pop_back();
  o.pop_back();
  EXPECT_NE(e2e::check_resolution(10, 3, o), "");  // 12 never resolved
  o.push_back({13, RequestOutcome::kServed});
  EXPECT_NE(e2e::check_resolution(10, 3, o), "");  // outside the phase
}

TEST(Gate, BatchLogContiguousAndInOrder) {
  using tgnn::graph::BatchRange;
  EXPECT_EQ(e2e::check_batch_log(5, 10, std::vector<BatchRange>{{5, 9}, {9, 15}}),
            "");
  EXPECT_NE(e2e::check_batch_log(5, 10, std::vector<BatchRange>{{5, 9}, {10, 15}}),
            "");  // gap
  EXPECT_NE(e2e::check_batch_log(5, 10, std::vector<BatchRange>{{9, 15}, {5, 9}}),
            "");  // out of order
  EXPECT_NE(e2e::check_batch_log(5, 10, std::vector<BatchRange>{{5, 9}}),
            "");  // short
  EXPECT_NE(e2e::check_batch_log(5, 10, std::vector<BatchRange>{{5, 5}, {5, 15}}),
            "");  // empty batch
}

TEST(Gate, FiresOnDoctoredProbeDigest) {
  tgnn::core::BatchResult r;
  r.nodes = {3, 7};
  r.embeddings = tgnn::Tensor(2, 4);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 4; ++j)
      r.embeddings(i, j) = 0.25f * static_cast<float>(i * 4 + j);
  const std::uint64_t good = e2e::digest(r);
  EXPECT_EQ(e2e::check_probe(good, e2e::digest(r)), "");

  // One ulp in one embedding is a different digest, and the gate fires.
  tgnn::core::BatchResult doctored = r;
  doctored.embeddings(1, 2) =
      std::nextafter(doctored.embeddings(1, 2), 1e9f);
  EXPECT_NE(e2e::digest(doctored), good);
  EXPECT_NE(e2e::check_probe(e2e::digest(doctored), good), "");
  EXPECT_NE(e2e::check_probe(good ^ 1U, good), "");
}

TEST(Output, ResultJsonShape) {
  const std::vector<e2e::Metric> m = {{"p50_ms", 1.25, "ms"},
                                      {"setup_s", 0.5, "s"}};
  EXPECT_EQ(e2e::result_json(true, 10, 0, m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
            "\"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
            "\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

}  // namespace
