#include "perf/auto_tuner.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <stdexcept>

namespace tgnn::perf {

std::string SwCandidate::describe() const {
  char buf[96];
  if (pipelined)
    std::snprintf(buf, sizeof buf, "batch %zu, pipelined depth %zu",
                  max_batch, pipeline_depth);
  else if (workers > 1)
    std::snprintf(buf, sizeof buf, "batch %zu, %zu workers", max_batch,
                  workers);
  else
    std::snprintf(buf, sizeof buf, "batch %zu, serial", max_batch);
  return buf;
}

AutoTuner::AutoTuner(runtime::Backend& backend, AutoTunerOptions opts)
    : backend_(backend), opts_(std::move(opts)) {}

runtime::ServingOptions AutoTuner::options_for(const SwCandidate& c) const {
  runtime::ServingOptions o;
  o.max_batch = std::max<std::size_t>(c.max_batch, 1);
  o.max_wait_s = opts_.max_wait_s;
  o.queue_capacity = std::max<std::size_t>(4 * o.max_batch, 4096);
  o.workers = c.pipelined ? 1 : c.workers;
  o.pipelined = c.pipelined;
  o.pipeline_depth = c.pipeline_depth;
  return o;
}

std::vector<SwCandidate> AutoTuner::candidates() const {
  const auto* cb = dynamic_cast<runtime::ConcurrentBackend*>(&backend_);
  const auto* sb = dynamic_cast<runtime::StagedBackend*>(&backend_);
  std::vector<SwCandidate> out;
  for (std::size_t b : opts_.batch_grid) {
    SwCandidate c;
    c.max_batch = b;
    out.push_back(c);
    if (cb != nullptr)
      for (std::size_t w : opts_.worker_grid)
        if (w > 1 && w <= cb->lanes()) {
          c.workers = w;
          out.push_back(c);
        }
    if (sb != nullptr) {
      c.workers = 1;
      c.pipelined = true;
      for (std::size_t d : opts_.depth_grid)
        if (d >= 2) {
          c.pipeline_depth = d;
          out.push_back(c);
        }
    }
  }
  return out;
}

double AutoTuner::measure_rps(const runtime::ServingOptions& sopts,
                              std::size_t begin, std::size_t events) {
  runtime::ServingEngine server(backend_, sopts);
  for (std::size_t i = begin; i < begin + events; ++i) server.submit(i);
  server.drain();
  return server.stats().throughput_rps;
}

TuneResult AutoTuner::search(std::size_t start_index) {
  TuneResult result;
  result.next_index = start_index;
  for (const SwCandidate& c : candidates()) result.ranked.push_back({c, 0.0});
  std::size_t alive = result.ranked.size();
  if (alive == 0)
    throw std::invalid_argument("AutoTuner::search: no admitted candidate");

  // Halving n survivors down to one takes floor(log2 n) rounds (a lone
  // candidate is still measured once); each round gets an equal slice of
  // the budget. The survivors of a round are the sorted prefix
  // [0, alive): eliminated candidates stay where the sort left them, so
  // `ranked` ends ordered by elimination round, then by measured req/s.
  const std::size_t rounds = std::max<std::size_t>(
      static_cast<std::size_t>(std::bit_width(alive)) - 1, 1);
  const std::size_t round_events = opts_.budget_events / rounds;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t share = round_events / alive;
    for (std::size_t i = 0; i < alive; ++i) {
      RankedCandidate& rc = result.ranked[i];
      rc.measured_rps =
          measure_rps(options_for(rc.candidate), result.next_index, share);
      result.next_index += share;
    }
    std::stable_sort(result.ranked.begin(),
                     result.ranked.begin() + static_cast<std::ptrdiff_t>(alive),
                     [](const RankedCandidate& a, const RankedCandidate& b) {
                       return a.measured_rps > b.measured_rps;
                     });
    alive = std::max<std::size_t>(alive / 2, 1);
  }

  result.chosen = result.ranked.front().candidate;
  result.options = options_for(result.chosen);
  return result;
}

std::string TuneResult::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof buf, "auto-tuned: %s (measured %.0f req/s)",
                chosen.describe().c_str(),
                ranked.empty() ? 0.0 : ranked.front().measured_rps);
  std::string out = buf;
  const std::size_t show = std::min<std::size_t>(ranked.size(), 5);
  for (std::size_t i = 0; i < show; ++i) {
    std::snprintf(buf, sizeof buf, "\n  #%zu %-28s measured %8.0f req/s",
                  i + 1, ranked[i].candidate.describe().c_str(),
                  ranked[i].measured_rps);
    out += buf;
  }
  return out;
}

}  // namespace tgnn::perf
