#include "perf/stage_profile.hpp"

#include <algorithm>
#include <cstdio>

namespace tgnn::perf {

const char* stage_name(std::size_t stage) {
  switch (static_cast<core::Stage>(stage)) {
    case core::Stage::kMemoryUpdate: return "MemoryUpdate";
    case core::Stage::kNeighborGather: return "NeighborGather";
    case core::Stage::kGnnCompute: return "GnnCompute";
    case core::Stage::kDecode: return "Decode";
  }
  return "?";
}

std::size_t StageProfile::bottleneck_stage() const {
  std::size_t best = 0;
  for (std::size_t k = 1; k < core::kNumStages; ++k)
    if (stages[k].ewma_s > stages[best].ewma_s) best = k;
  return best;
}

std::string StageProfile::describe() const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "stage profile over %zu batches (~%.0f edges/batch):\n",
                batches, ewma_batch_edges);
  out += buf;
  for (std::size_t k = 0; k < core::kNumStages; ++k) {
    std::snprintf(buf, sizeof buf,
                  "  %-14s ewma %8.3f ms  p50 %8.3f ms  p95 %8.3f ms%s\n",
                  stage_name(k), stages[k].ewma_s * 1e3, stages[k].p50_s * 1e3,
                  stages[k].p95_s * 1e3,
                  k == bottleneck_stage() ? "  <- bottleneck" : "");
    out += buf;
  }
  std::snprintf(buf, sizeof buf,
                "  fan-out %.2f vertices/edge, queue depth ~%.1f\n",
                vertices_per_edge, ewma_queue_depth);
  out += buf;
  return out;
}

StageProfiler::StageProfiler(double alpha, std::size_t window)
    : alpha_(alpha), window_(std::max<std::size_t>(window, 2)) {
  for (auto& r : ring_) r.assign(window_, 0.0);
}

void StageProfiler::record(const std::array<double, core::kNumStages>& stage_s,
                           std::size_t batch_edges,
                           std::size_t unique_vertices,
                           std::size_t queue_depth) {
  const bool first = batches_ == 0;
  ++batches_;
  for (std::size_t k = 0; k < core::kNumStages; ++k) {
    ewma_[k] = first ? stage_s[k]
                     : alpha_ * stage_s[k] + (1.0 - alpha_) * ewma_[k];
    sum_[k] += stage_s[k];
    ring_[k][ring_pos_] = stage_s[k];
  }
  ring_pos_ = (ring_pos_ + 1) % window_;
  ring_fill_ = std::min(ring_fill_ + 1, window_);

  const auto edges = static_cast<double>(batch_edges);
  ewma_edges_ = first ? edges : alpha_ * edges + (1.0 - alpha_) * ewma_edges_;
  if (batch_edges > 0) {
    const double vpe = static_cast<double>(unique_vertices) / edges;
    ewma_vpe_ = first ? vpe : alpha_ * vpe + (1.0 - alpha_) * ewma_vpe_;
  }
  const auto depth = static_cast<double>(queue_depth);
  ewma_queue_ = first ? depth : alpha_ * depth + (1.0 - alpha_) * ewma_queue_;
}

StageProfile StageProfiler::snapshot() const {
  StageProfile p;
  p.batches = batches_;
  if (batches_ == 0) return p;
  const auto n = static_cast<double>(batches_);
  for (std::size_t k = 0; k < core::kNumStages; ++k) {
    p.stages[k].ewma_s = ewma_[k];
    p.stages[k].mean_s = sum_[k] / n;
    // Percentiles over the valid prefix of the ring (order is irrelevant —
    // the window is sorted whole).
    std::vector<double> win(ring_[k].begin(),
                            ring_[k].begin() +
                                static_cast<std::ptrdiff_t>(ring_fill_));
    std::sort(win.begin(), win.end());
    const auto idx = [&](double q) {
      return win[static_cast<std::size_t>(
          q * static_cast<double>(win.size() - 1))];
    };
    p.stages[k].p50_s = idx(0.50);
    p.stages[k].p95_s = idx(0.95);
  }
  p.ewma_batch_edges = ewma_edges_;
  p.vertices_per_edge = ewma_vpe_;
  p.ewma_queue_depth = ewma_queue_;
  return p;
}

void StageProfiler::reset() {
  batches_ = 0;
  ring_fill_ = 0;
  ring_pos_ = 0;
  for (auto& r : ring_) std::fill(r.begin(), r.end(), 0.0);
  ewma_.fill(0.0);
  sum_.fill(0.0);
  ewma_edges_ = 0.0;
  ewma_vpe_ = 2.0;
  ewma_queue_ = 0.0;
}

}  // namespace tgnn::perf
