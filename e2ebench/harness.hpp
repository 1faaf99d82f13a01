// The end-to-end benchmark's own logic, kept free of timing and threads so
// that it can be unit-tested on synthetic traces (harness_test.cpp):
// the open-loop arrival schedule, due-time latency accounting, percentile
// reporting with sample counts, the SLO ladder's pass/fail rule with
// backlog detection, and the correctness gate's checks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "runtime/serving.hpp"
#include "tgnn/inference.hpp"

namespace e2e {

/// Due times (seconds from phase start) of `n` Poisson arrivals at
/// `rate_rps`: exponential gaps by inverse transform over a splitmix64
/// stream. A pure function of (seed, rate, n) — the count is fixed so every
/// phase serves a fixed slice of the stream; only the spacing is random.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate_rps,
                                     std::size_t n);

/// One phase's per-request timing, indexed by position in the phase slice
/// (request `first + i`). A request that was not served keeps a NaN
/// latency.
struct DueTimes {
  std::vector<double> latency_s;  ///< due -> completion
  std::vector<double> done_s;     ///< completion, on the schedule's clock
  std::size_t served = 0;
};

/// Time each served request from when it was due: the generator's
/// lateness (`lateness_s[i]`: submit accepted minus due) plus the engine's
/// own latency for that request. `engine_latency_s` is
/// ServingEngine::request_latency_s() (completion order); the served
/// records of `outcomes` (ServingEngine::outcome_log()) arrive in the same
/// order and carry the stream index that matches the two. Throws
/// std::invalid_argument when the logs disagree in length or an index
/// falls outside the phase.
DueTimes due_times(std::size_t first, std::span<const double> due_s,
                   std::span<const double> lateness_s,
                   std::span<const tgnn::runtime::OutcomeRecord> outcomes,
                   std::span<const double> engine_latency_s);

/// Median and tail of a latency sample, with the sample count they rest
/// on (percentile rule: tgnn::runtime::percentile_of).
struct Quantiles {
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  std::size_t n = 0;
};
/// NaN entries (unserved requests) are skipped.
Quantiles quantiles(std::span<const double> samples);
/// Percentiles of each one-second window of due time: request i falls in
/// window floor(due_s[i]), the last window also taking any later requests.
std::vector<Quantiles> windowed_quantiles(std::span<const double> latency_s,
                                          std::span<const double> due_s,
                                          std::size_t windows);
/// Median across windows of each percentile: the typical second's tail,
/// which a few stalled seconds do not move. `n` is the smallest window's
/// sample count.
Quantiles median_quantiles(std::span<const Quantiles> windows);

/// Median of a sample (upper median for even counts; 0 when empty).
double median(std::vector<double> v);

/// "p99_ms 3.210 ms (n=40000, 400 beyond)".
std::string describe_percentile(const std::string& name, double value_ms,
                                double q, std::size_t n);

/// One rung of the SLO ladder, judged from its trace.
struct RungVerdict {
  double rate_rps = 0.0;
  std::size_t sent = 0, served = 0;
  double within_frac = 0.0;  ///< share of SENT requests done within limit
  long backlog_mid = 0;      ///< due-but-not-done at the middle due time
  long backlog_end = 0;      ///< ... at the last due time
  bool backlog_grows = false;
  bool pass = false;
  double achieved_rps = 0.0;  ///< served / (last completion - first due)
};

/// A rung passes when every request sent was served, at least 99% of them
/// completed within `limit_s` of their due time, and the backlog (requests
/// due but not yet done) did not grow between the middle and the end of
/// the schedule by more than `rate * limit_s` — the arrivals of one
/// latency limit, which a stable queue never accumulates.
RungVerdict judge_rung(double rate_rps, std::span<const double> due_s,
                       const DueTimes& t, double limit_s);

/// The ladder's result: achieved rate of the highest passing rung, or 0
/// when none passed.
double slo_rps(std::span<const RungVerdict> rungs);

// ---- correctness gate ------------------------------------------------------
// Each check returns "" when it holds, else a message naming the first
// violation.

/// Every request of [first, first + count) resolved exactly once.
std::string check_resolution(
    std::size_t first, std::size_t count,
    std::span<const tgnn::runtime::OutcomeRecord> outcomes);
/// The batch log covers [first, first + count) contiguously, in order,
/// with no empty batch.
std::string check_batch_log(std::size_t first, std::size_t count,
                            std::span<const tgnn::graph::BatchRange> batches);
/// 64-bit FNV-1a digest over a batch result's vertex ids and the exact
/// bits of their embeddings.
std::uint64_t digest(const tgnn::core::BatchResult& r);
/// Probe embeddings of the served backend must be bit-identical to the
/// serial all-resident reference replay.
std::string check_probe(std::uint64_t served, std::uint64_t reference);

// ---- output ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": .., "unit": ..}}}. Values keep 17
/// significant digits.
std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, std::span<const Metric> metrics);

}  // namespace e2e
