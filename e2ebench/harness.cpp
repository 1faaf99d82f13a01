#include "harness.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "runtime/stream_result.hpp"

namespace e2e {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_rps,
                                     std::size_t n) {
  if (!(rate_rps > 0.0))
    throw std::invalid_argument("poisson_schedule: rate must be positive");
  std::vector<double> due(n);
  std::uint64_t state = seed;
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // u in (0, 1]: 53 random bits, never 0, so the log is finite.
    const double u =
        (static_cast<double>(splitmix64(state) >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) / rate_rps;
    due[i] = t;
  }
  return due;
}

DueTimes due_times(std::size_t first, std::span<const double> due_s,
                   std::span<const double> lateness_s,
                   std::span<const tgnn::runtime::OutcomeRecord> outcomes,
                   std::span<const double> engine_latency_s) {
  if (due_s.size() != lateness_s.size())
    throw std::invalid_argument("due_times: schedule/lateness size mismatch");
  DueTimes t;
  t.latency_s.assign(due_s.size(), kNaN);
  t.done_s.assign(due_s.size(), kNaN);
  std::size_t k = 0;  // next engine latency entry
  for (const auto& o : outcomes) {
    if (o.outcome != tgnn::runtime::RequestOutcome::kServed) continue;
    if (k >= engine_latency_s.size())
      throw std::invalid_argument(
          "due_times: more served outcomes than latency samples");
    if (o.index < first || o.index - first >= due_s.size())
      throw std::invalid_argument("due_times: outcome index " +
                                  std::to_string(o.index) +
                                  " outside the phase");
    const std::size_t i = o.index - first;
    t.latency_s[i] = lateness_s[i] + engine_latency_s[k++];
    t.done_s[i] = due_s[i] + t.latency_s[i];
    ++t.served;
  }
  if (k != engine_latency_s.size())
    throw std::invalid_argument(
        "due_times: more latency samples than served outcomes");
  return t;
}

Quantiles quantiles(std::span<const double> samples) {
  std::vector<double> v;
  v.reserve(samples.size());
  for (double x : samples)
    if (!std::isnan(x)) v.push_back(x);
  std::sort(v.begin(), v.end());
  Quantiles q;
  q.n = v.size();
  q.p50 = tgnn::runtime::percentile_of(v, 0.50);
  q.p95 = tgnn::runtime::percentile_of(v, 0.95);
  q.p99 = tgnn::runtime::percentile_of(v, 0.99);
  return q;
}

std::vector<Quantiles> windowed_quantiles(std::span<const double> latency_s,
                                          std::span<const double> due_s,
                                          std::size_t windows) {
  if (latency_s.size() != due_s.size())
    throw std::invalid_argument("windowed_quantiles: size mismatch");
  windows = std::max<std::size_t>(windows, 1);
  std::vector<std::vector<double>> split(windows);
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    const double k = std::floor(std::max(due_s[i], 0.0));
    split[std::min(static_cast<std::size_t>(k), windows - 1)].push_back(
        latency_s[i]);
  }
  std::vector<Quantiles> out;
  for (const auto& samples : split) out.push_back(quantiles(samples));
  return out;
}

Quantiles median_quantiles(std::span<const Quantiles> windows) {
  std::vector<double> p50, p95, p99;
  Quantiles m;
  m.n = windows.empty() ? 0 : windows.front().n;
  for (const auto& q : windows) {
    p50.push_back(q.p50);
    p95.push_back(q.p95);
    p99.push_back(q.p99);
    m.n = std::min(m.n, q.n);
  }
  m.p50 = median(p50);
  m.p95 = median(p95);
  m.p99 = median(p99);
  return m;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::string describe_percentile(const std::string& name, double value_ms,
                                double q, std::size_t n) {
  const auto beyond = static_cast<std::size_t>(
      std::floor((1.0 - q) * static_cast<double>(n)));
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s %.3f ms (n=%zu, %zu beyond)",
                name.c_str(), value_ms, n, beyond);
  return buf;
}

RungVerdict judge_rung(double rate_rps, std::span<const double> due_s,
                       const DueTimes& t, double limit_s) {
  RungVerdict v;
  v.rate_rps = rate_rps;
  v.sent = due_s.size();
  v.served = t.served;
  if (v.sent == 0) return v;

  std::size_t within = 0;
  std::vector<double> done;
  done.reserve(t.served);
  double last_done = 0.0;
  for (std::size_t i = 0; i < v.sent; ++i) {
    if (std::isnan(t.latency_s[i])) continue;
    if (t.latency_s[i] <= limit_s) ++within;
    done.push_back(t.done_s[i]);
    last_done = std::max(last_done, t.done_s[i]);
  }
  std::sort(done.begin(), done.end());
  v.within_frac = static_cast<double>(within) / static_cast<double>(v.sent);

  // Backlog at time x: requests due by x minus requests done by x.
  const auto backlog_at = [&](std::size_t due_idx) {
    const double x = due_s[due_idx];
    const auto due_by = static_cast<long>(due_idx + 1);
    const auto done_by = static_cast<long>(
        std::upper_bound(done.begin(), done.end(), x) - done.begin());
    return due_by - done_by;
  };
  v.backlog_mid = backlog_at(v.sent / 2);
  v.backlog_end = backlog_at(v.sent - 1);
  v.backlog_grows = static_cast<double>(v.backlog_end - v.backlog_mid) >
                    rate_rps * limit_s;
  v.pass = v.served == v.sent && v.within_frac >= 0.99 && !v.backlog_grows;
  const double span = last_done - due_s.front();
  v.achieved_rps =
      span > 0.0 ? static_cast<double>(v.served) / span : 0.0;
  return v;
}

double slo_rps(std::span<const RungVerdict> rungs) {
  double best_rate = -1.0, best = 0.0;
  for (const auto& r : rungs)
    if (r.pass && r.rate_rps > best_rate) {
      best_rate = r.rate_rps;
      best = r.achieved_rps;
    }
  return best;
}

std::string check_resolution(
    std::size_t first, std::size_t count,
    std::span<const tgnn::runtime::OutcomeRecord> outcomes) {
  std::vector<std::uint8_t> seen(count, 0);
  for (const auto& o : outcomes) {
    if (o.index < first || o.index - first >= count)
      return "request " + std::to_string(o.index) +
             " resolved but never submitted in this phase";
    if (seen[o.index - first]++ != 0)
      return "request " + std::to_string(o.index) + " resolved twice";
  }
  for (std::size_t i = 0; i < count; ++i)
    if (seen[i] == 0)
      return "request " + std::to_string(first + i) + " never resolved";
  return "";
}

std::string check_batch_log(std::size_t first, std::size_t count,
                            std::span<const tgnn::graph::BatchRange> batches) {
  std::size_t next = first;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const auto& r = batches[b];
    if (r.begin != next || r.end <= r.begin)
      return "batch " + std::to_string(b) + " is [" +
             std::to_string(r.begin) + ", " + std::to_string(r.end) +
             "), expected to start at " + std::to_string(next);
    next = r.end;
  }
  if (next != first + count)
    return "batch log ends at " + std::to_string(next) + ", expected " +
           std::to_string(first + count);
  return "";
}

std::uint64_t digest(const tgnn::core::BatchResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      h ^= (word >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (std::size_t i = 0; i < r.nodes.size(); ++i) {
    mix(r.nodes[i]);
    for (float x : r.embeddings.row(i)) mix(std::bit_cast<std::uint32_t>(x));
  }
  return h;
}

std::string check_probe(std::uint64_t served, std::uint64_t reference) {
  if (served == reference) return "";
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "probe digest %016llx differs from the serial all-resident "
                "cpu replay's %016llx",
                static_cast<unsigned long long>(served),
                static_cast<unsigned long long>(reference));
  return buf;
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, std::span<const Metric> metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& m = metrics[i];
    char num[64];
    // JSON has no NaN/inf; a metric that could not be computed reads 0.
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    s += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + num +
         ", \"unit\": \"" + m.unit + "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace e2e
