// Shared helpers for the benchmark harnesses: dataset construction at a
// bench-friendly scale, model construction, uniform header printing, and
// the runtime-layer glue every bench drives its platforms through.
//
// Every bench binary regenerates one table or figure of the paper; see
// DESIGN.md for the experiment index. Benches print the paper's rows and
// also write a CSV next to the binary for plotting.
//
// Platform execution goes through runtime::make_backend +
// runtime::measure_stream / measure_windows — benches declare WHICH
// backends and models to compare, never how to drive them.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.hpp"
#include "runtime/backend.hpp"
#include "runtime/driver.hpp"
#include "runtime/serving.hpp"
#include "tgnn/config.hpp"
#include "tgnn/inference.hpp"
#include "tgnn/model.hpp"
#include "util/argparse.hpp"
#include "util/stopwatch.hpp"

namespace tgnn::bench {

inline void banner(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n\n");
}

/// Model config matching a dataset's feature dims.
inline core::ModelConfig config_for(const data::Dataset& ds,
                                    const std::string& preset) {
  if (preset == "baseline")
    return core::baseline_config(ds.edge_dim(), ds.node_dim());
  return core::np_config(preset.back(), ds.edge_dim(), ds.node_dim());
}

/// Build a model and, when it uses the LUT encoder, fit it on the training
/// stream (required before any encode call).
inline core::TgnModel make_model(const core::ModelConfig& cfg,
                                 const data::Dataset& ds,
                                 std::uint64_t seed = 1) {
  core::TgnModel model(cfg, seed);
  if (model.lut_encoder())
    model.fit_lut(core::collect_dt_samples(ds, ds.train_range()));
  return model;
}

/// Split a comma-separated CLI list ("wikipedia,reddit,gdelt").
inline std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> out;
  for (std::size_t pos = 0; pos < list.size();) {
    const auto comma = list.find(',', pos);
    out.push_back(list.substr(pos, comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

// ---- shared bench CLI -------------------------------------------------------
//
// Every bench takes the same core flags (--edge_scale / --batch / --threads
// / --backend / --datasets); only the defaults — and whether a backend
// override or a dataset list makes sense — differ per bench. The pair
// add_common_flags / read_common_flags replaces the per-bench copies of
// this block; benches still register their own extra flags (--epochs,
// --bins, ...) on the same parser.

struct CommonFlagDefaults {
  std::string edge_scale = "1.0";
  /// Any nullptr below means: do NOT register that flag — the bench has no
  /// use for it, and accepting a flag that silently does nothing would let
  /// users believe they measured a configuration they didn't.
  const char* batch = "200";
  const char* threads = "0";
  /// --backend: only for benches whose platform set is row-per-case (a
  /// structural fixed-column table cannot be restricted).
  const char* backend = nullptr;
  const char* datasets = nullptr;
  /// --memory_budget: resident vertex-state budget for the engine-backed
  /// platforms ("0" = all-resident; "25m", "512k", or "50%" of the state).
  /// Registered only by benches that route it into BackendOptions.
  const char* memory_budget = nullptr;
  /// --autotune: run perf::AutoTuner::search() over the bench's workload
  /// and add/use the tuned configuration. Registered only by serving
  /// benches that actually route the result into a ServingEngine.
  const char* autotune = nullptr;
};

struct CommonFlags {
  double edge_scale = 1.0;
  std::size_t batch = 200;
  int threads = 0;  ///< 0 = hardware concurrency
  std::string backend;
  std::vector<std::string> datasets;
  std::string memory_budget = "0";  ///< raw spec; resolve per model+dataset
  bool autotune = false;
};

inline void add_common_flags(ArgParser& args,
                             const CommonFlagDefaults& d = {}) {
  args.add_flag("edge_scale", d.edge_scale,
                "dataset scale vs 30k-edge default");
  if (d.batch != nullptr)
    args.add_flag("batch", d.batch, "inference batch size");
  if (d.threads != nullptr)
    args.add_flag("threads", d.threads,
                  "CPU threads / lanes (0 = hw concurrency)");
  if (d.backend != nullptr)
    args.add_flag("backend", d.backend,
                  "runtime backend key (empty = bench default set)");
  if (d.datasets != nullptr)
    args.add_flag("datasets", d.datasets, "comma-separated dataset list");
  if (d.memory_budget != nullptr)
    args.add_flag("memory_budget", d.memory_budget,
                  "vertex-state budget: bytes, k/m/g, or % (0 = resident)");
  if (d.autotune != nullptr)
    args.add_flag("autotune", d.autotune,
                  "run the successive-halving auto-tuner over this workload "
                  "(1 = on)");
}

inline CommonFlags read_common_flags(const ArgParser& args,
                                     const CommonFlagDefaults& d = {}) {
  CommonFlags f;
  f.edge_scale = args.get_double("edge_scale");
  if (d.batch != nullptr)
    f.batch = static_cast<std::size_t>(args.get_int("batch"));
  if (d.threads != nullptr) f.threads = static_cast<int>(args.get_int("threads"));
  if (d.backend != nullptr) f.backend = args.get("backend");
  if (d.datasets != nullptr) f.datasets = split_csv(args.get("datasets"));
  if (d.memory_budget != nullptr) f.memory_budget = args.get("memory_budget");
  if (d.autotune != nullptr) f.autotune = args.get_int("autotune") != 0;
  return f;
}

// ---- shared serving sweep loop ----------------------------------------------
//
// fig5_sharded, fig_overload, and fig_autotune all measure the same thing:
// construct a ServingEngine over a warmed backend, feed it a stream slice,
// drain, read the stats. The submit discipline is the only difference —
// closed loop (saturating, throughput measurement) versus a paced open
// loop at a target offered rate (overload measurement). One helper covers
// both so the sweep loop exists exactly once.

/// One serving run's outcome: the engine's stats plus the row's wall time
/// (submit of the first request to drain completion — the denominator for
/// goodput in open-loop rows, where served < submitted).
struct ServeRunResult {
  runtime::ServingStats stats;
  double wall_s = 0.0;
};

/// Serve `events` stream requests starting at `begin` on `backend` (which
/// must already be fast-forwarded to `begin`) under `sopts`.
/// offered_rps == 0: closed loop — submit as fast as admission allows.
/// offered_rps > 0: open loop — pace submissions at the offered rate
/// (sleep-wait, 20 us granularity, matching the overload bench's pacing).
inline ServeRunResult serve_stream(runtime::Backend& backend,
                                   std::size_t begin, std::size_t events,
                                   const runtime::ServingOptions& sopts,
                                   double offered_rps = 0.0) {
  runtime::ServingEngine server(backend, sopts);
  Stopwatch clock;
  for (std::size_t i = 0; i < events; ++i) {
    if (offered_rps > 0.0) {
      const double target_s = static_cast<double>(i) / offered_rps;
      while (clock.seconds() < target_s)
        std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    server.submit(begin + i);
  }
  server.drain();
  return {server.stats(), clock.seconds()};
}

/// Table-cell label of a stage profile's bottleneck: abbreviated stage
/// name + its p95 in ms ("gnn 1.23").
inline std::string bottleneck_cell(const runtime::ServingStats& s) {
  static constexpr const char* kAbbrev[core::kNumStages] = {"mem", "gthr",
                                                            "gnn", "dec"};
  const std::size_t k = s.stage_profile.bottleneck_stage();
  char buf[48];
  std::snprintf(buf, sizeof buf, "%s %.2f", kAbbrev[k],
                s.p95_stage_s[k] * 1e3);
  return buf;
}

/// Resolve a --memory_budget spec against the vertex-state footprint of
/// one (model, dataset) pair — "%" is relative to that footprint. Returns
/// 0 (all-resident) for "0" or an empty spec.
inline std::size_t resolve_memory_budget(const std::string& spec,
                                         const core::TgnModel& model,
                                         const data::Dataset& ds) {
  if (spec.empty() || spec == "0") return 0;
  return runtime::parse_memory_budget(
      spec, core::RuntimeState::state_bytes(ds.graph.num_nodes(),
                                            model.config()));
}

/// One platform row of a bench: which backend key to build, over which
/// model, with which options. Benches declare a list of these and drive
/// them all through the same runtime loop.
struct PlatformCase {
  std::string label;
  std::string key;  ///< runtime backend registry key
  const core::TgnModel* model = nullptr;
  runtime::BackendOptions opts;
};

/// Pure matching core of the --backend override: keep only the cases
/// built on that registry key — or, since keys are no longer unique per
/// case (precision suffixes, device options), whose label matches exactly.
/// Empty override keeps all cases. No I/O and no exit — independently
/// testable (and fuzzable); filter_cases adds the CLI behavior.
inline std::vector<PlatformCase> match_cases(std::vector<PlatformCase> cases,
                                             const std::string& backend) {
  if (backend.empty()) return cases;
  std::vector<PlatformCase> out;
  for (auto& c : cases)
    if (c.key == backend || c.label == backend) out.push_back(std::move(c));
  return out;
}

/// match_cases plus the CLI contract: only meaningful for benches whose
/// output is one row per case. An override matching ZERO cases warns to
/// stderr with everything this bench offers and aborts — an empty table
/// would read as a successful no-op measurement.
inline std::vector<PlatformCase> filter_cases(std::vector<PlatformCase> cases,
                                              const std::string& backend) {
  std::vector<PlatformCase> out = match_cases(cases, backend);
  if (out.empty() && !backend.empty()) {
    std::fprintf(stderr,
                 "warning: --backend '%s' matches none of this bench's cases"
                 " (neither as key nor as label); available:\n",
                 backend.c_str());
    for (const auto& c : cases)
      std::fprintf(stderr, "  %-14s (%s)\n", c.key.c_str(), c.label.c_str());
    std::exit(1);
  }
  return out;
}

/// Build the case's backend, fast-forward to the measurement region, and
/// stream it in fixed-size batches — the uniform bench measurement.
inline runtime::StreamResult measure_case(const PlatformCase& c,
                                          const data::Dataset& ds,
                                          const graph::BatchRange& region,
                                          std::size_t batch) {
  auto backend = runtime::make_backend(c.key, *c.model, ds, c.opts);
  return runtime::measure_stream(*backend, region, batch);
}

/// Same, streaming fixed time windows (the 15-minute real-time scenario).
inline runtime::StreamResult measure_case_windows(
    const PlatformCase& c, const data::Dataset& ds,
    const graph::BatchRange& region, double window_s) {
  auto backend = runtime::make_backend(c.key, *c.model, ds, c.opts);
  return runtime::measure_windows(*backend, region, window_s);
}

}  // namespace tgnn::bench
