// The paper's design-space-exploration loop, applied to the software
// runtime: an offline searcher that picks the ServingOptions a backend +
// workload serves fastest, by measurement alone.
//
// The Section V analytic model (perf/perf_model.hpp) earns its place in
// the hardware DSE because Fig. 6 validates it within 5-15% of
// measurement. No software cost model has cleared that bar here — serving
// throughput depends on scheduler overhead, footprint conflicts and cache
// behaviour no stage-time sum captures — so AutoTuner::search() ranks
// candidates the way the paper validates its model: by serving real
// traffic.
//
// search() is successive halving over candidates() (every point the
// backend's contracts admit: worker lanes need a ConcurrentBackend).
// Round 0 serves every candidate on an equal share of the round's events;
// each later round keeps the better half by measured req/s and splits an
// equal round budget among the survivors, so the candidates still in the
// race are measured on ever longer slices. The search ends when one
// candidate is left. The rounds split
// `budget_events` evenly, so the whole search serves at most that many.
//
// The search CONSUMES stream events (every measurement serves real
// traffic and advances backend state) — tune on a throwaway backend, or
// treat the consumed prefix as warmup and continue serving from
// TuneResult::next_index.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "runtime/serving.hpp"

namespace tgnn::perf {

/// One point of the software design space (the knobs ServingOptions
/// exposes that change throughput, minus admission policy).
struct SwCandidate {
  std::size_t max_batch = 256;
  std::size_t workers = 1;  ///< > 1 requires a ConcurrentBackend
  [[nodiscard]] std::string describe() const;
};

struct AutoTunerOptions {
  /// Stream events the whole search may serve, split evenly across the
  /// halving rounds.
  std::size_t budget_events = 6144;
  /// Candidate grids. Worker counts above the backend's lanes() (or on a
  /// backend without lanes) are skipped, not errors.
  std::vector<std::size_t> batch_grid = {16, 32, 64, 128, 256, 512};
  std::vector<std::size_t> worker_grid = {2, 4, 8};
  double max_wait_s = 1e-3;  ///< formation wait of every candidate
};

/// One candidate with its most recent measurement.
struct RankedCandidate {
  SwCandidate candidate;
  double measured_rps = 0.0;  ///< req/s in the last round it was served
};

struct TuneResult {
  runtime::ServingOptions options;  ///< the winner, engine-ready
  SwCandidate chosen;
  /// Every candidate, best first: ordered by the round it was eliminated
  /// in (the winner survived them all), then by its last measured req/s.
  std::vector<RankedCandidate> ranked;
  std::size_t next_index = 0;  ///< first stream index search() left unconsumed
  [[nodiscard]] std::string describe() const;
};

class AutoTuner {
 public:
  /// The backend must outlive the tuner; search() serves traffic on it.
  explicit AutoTuner(runtime::Backend& backend, AutoTunerOptions opts = {});

  /// Run the successive-halving search starting at stream index
  /// `start_index` (the backend must already be fast-forwarded to it).
  /// See the file comment. Throws std::invalid_argument when the grids
  /// admit no candidate.
  [[nodiscard]] TuneResult search(std::size_t start_index);

  /// The candidate list the backend's contracts admit (serial always;
  /// worker counts gated on the backend's lanes).
  [[nodiscard]] std::vector<SwCandidate> candidates() const;

  /// ServingOptions realizing one candidate under this tuner's options.
  [[nodiscard]] runtime::ServingOptions options_for(
      const SwCandidate& c) const;

  /// Serve `events` requests from `begin` under `sopts` and return the
  /// engine's measured throughput (req/s; 0 when nothing was served).
  double measure_rps(const runtime::ServingOptions& sopts, std::size_t begin,
                     std::size_t events);

 private:
  runtime::Backend& backend_;
  AutoTunerOptions opts_;
};

}  // namespace tgnn::perf
