// Tuned-vs-default serving configurations across Zipf skews and backend
// flavors, written to BENCH_autotune.json (each PR's CI run uploads the
// JSON as an artifact — the repo's auto-tuning trajectory).
//
// For each (skew, backend) combination the AutoTuner runs its
// successive-halving search on a throwaway backend — every admitted
// candidate served in round 0, the measured-better half kept each round
// until one is left — and the winning ServingOptions is then measured
// over exactly the stream slice two hand-coded defaults are measured on.
// Each row is the median-throughput run of kTrials serves, each on a
// FRESH backend (one serve of a few thousand events swings by tens of
// percent run to run, which would make the comparison row-to-row noise):
//
//   * "default"      — ServingOptions{} (batch 256, 2 ms wait, serial),
//   * "fig5-default" — the serving sweeps' hard-coded row (batch 32,
//                      1 ms wait, serial).
//
// --require_tuned_speedup gates the tuned row's median throughput >=
// factor x the BEST default's median on every combination (report-only
// on a single hardware thread — parallel candidates need real cores, the
// same convention as the other perf gates).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "perf/auto_tuner.hpp"
#include "runtime/serving.hpp"
#include "util/table.hpp"

using namespace tgnn;

namespace {

/// Fresh-backend serves per configuration row; the row reports the
/// median-throughput run. Odd, so the median is one real run.
constexpr std::size_t kTrials = 5;

struct Row {
  double zipf = 0.0;
  std::string backend;
  std::string config;  ///< "default" | "fig5-default" | "tuned"
  std::size_t max_batch = 0;
  std::size_t workers = 1;
  double thpt_rps = 0.0;  ///< median over kTrials serves
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  std::string bottleneck;
};

void write_json(const std::string& path, std::size_t hw, bool gates_enforced,
                const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"fig_autotune\",\n");
  std::fprintf(f, "  \"hardware_threads\": %zu,\n", hw);
  std::fprintf(f, "  \"gates_enforced\": %s,\n",
               gates_enforced ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"zipf\": %.2f, \"backend\": \"%s\", \"config\": \"%s\", "
        "\"max_batch\": %zu, \"workers\": %zu, \"trials\": %zu, "
        "\"thpt_rps\": %.1f, \"p50_ms\": %.3f, \"p95_ms\": %.3f, "
        "\"bottleneck\": \"%s\"}%s\n",
        r.zipf, r.backend.c_str(), r.config.c_str(), r.max_batch, r.workers,
        kTrials, r.thpt_rps, r.p50_ms, r.p95_ms, r.bottleneck.c_str(),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  const bench::CommonFlagDefaults defaults{.edge_scale = "2.0",
                                           .batch = nullptr,
                                           .threads = nullptr,
                                           .backend = nullptr};
  bench::add_common_flags(args, defaults);
  args.add_flag("users", "8000", "synthetic users");
  args.add_flag("items", "4000", "synthetic items");
  args.add_flag("events", "2500",
                "requests per serve (each row is the median of " +
                    std::to_string(kTrials) + " serves)");
  args.add_flag("skews", "0.0,1.1", "comma-separated user Zipf exponents");
  args.add_flag("backends", "cpu,sharded-cpu",
                "comma-separated backend flavors to tune "
                "(cpu | cpu-mt | sharded-cpu)");
  args.add_flag("require_tuned_speedup", "0",
                "fail unless tuned >= this x the best default row on every "
                "combination (0 = report only; always report-only on 1 core)");
  args.add_flag("out", "BENCH_autotune.json", "output JSON path");
  if (!args.parse(argc, argv)) return 1;
  const auto common = bench::read_common_flags(args, defaults);

  bench::banner(
      "Auto-tuner — tuned vs default serving configs across skews & backends",
      "Zhou et al., IPDPS'22 §V DSE loop, applied to the software runtime");

  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  Table t({"zipf", "backend", "config", "batch", "mode", "thpt (kreq/s)",
           "vs best default", "p50 (ms)", "p95 (ms)", "botlnk p95 (ms)"});
  std::vector<Row> rows;
  const double require_speedup = std::stod(args.get("require_tuned_speedup"));
  const bool gates_enforced = require_speedup > 0.0 && hw > 1;
  bool failed = false;

  for (const auto& skew_str : bench::split_csv(args.get("skews"))) {
    const double zipf = std::stod(skew_str);
    data::SyntheticConfig dcfg;
    dcfg.name = "autotune-z" + skew_str;
    dcfg.num_users = static_cast<std::uint32_t>(args.get_int("users"));
    dcfg.num_items = static_cast<std::uint32_t>(args.get_int("items"));
    dcfg.num_edges = static_cast<std::size_t>(30000.0 * common.edge_scale);
    dcfg.edge_dim = 32;
    dcfg.user_zipf_s = zipf;
    dcfg.seed = 11;
    const auto ds = data::make_synthetic(dcfg);
    const auto model = bench::make_model(bench::config_for(ds, "npM"), ds);
    const auto region = ds.test_range();
    const std::size_t events = std::min(
        region.size(), static_cast<std::size_t>(args.get_int("events")));

    for (const auto& key : bench::split_csv(args.get("backends"))) {
      runtime::BackendOptions bopts;

      // The search, on a throwaway backend (its measurements serve
      // traffic); its budget must fit the stream region.
      perf::AutoTunerOptions topts;
      topts.budget_events =
          std::min(topts.budget_events, region.size() * 2 / 3);
      perf::TuneResult tuned;
      {
        auto scratch = runtime::make_backend(key, model, ds, bopts);
        runtime::fast_forward(*scratch, region.begin);
        perf::AutoTuner tuner(*scratch, topts);
        tuned = tuner.search(region.begin);
      }
      std::printf("zipf %.1f, %s: %s\n\n", zipf, key.c_str(),
                  tuned.describe().c_str());

      // Three measured rows on identical fresh-backend stream slices.
      struct Config {
        std::string label;
        runtime::ServingOptions sopts;
      };
      runtime::ServingOptions fig5_opts;
      fig5_opts.max_batch = 32;
      fig5_opts.max_wait_s = 1e-3;
      const std::vector<Config> configs = {
          {"default", runtime::ServingOptions{}},
          {"fig5-default", fig5_opts},
          {"tuned", tuned.options},
      };
      double best_default = 0.0;
      double tuned_rps = 0.0;
      for (const auto& cfg : configs) {
        std::vector<runtime::ServingStats> trials;
        for (std::size_t k = 0; k < kTrials; ++k) {
          auto backend = runtime::make_backend(key, model, ds, bopts);
          runtime::fast_forward(*backend, region.begin);
          trials.push_back(
              bench::serve_stream(*backend, region.begin, events, cfg.sopts)
                  .stats);
        }
        // kTrials is odd: the middle run by throughput is the median.
        std::nth_element(trials.begin(), trials.begin() + kTrials / 2,
                         trials.end(), [](const auto& a, const auto& b) {
                           return a.throughput_rps < b.throughput_rps;
                         });
        const runtime::ServingStats& s = trials[kTrials / 2];
        Row r;
        r.zipf = zipf;
        r.backend = key;
        r.config = cfg.label;
        r.max_batch = cfg.sopts.max_batch;
        r.workers = cfg.sopts.workers;
        r.thpt_rps = s.throughput_rps;
        r.p50_ms = s.p50_latency_s * 1e3;
        r.p95_ms = s.p95_latency_s * 1e3;
        r.bottleneck = bench::bottleneck_cell(s);
        if (cfg.label == "tuned") {
          tuned_rps = r.thpt_rps;
        } else {
          best_default = std::max(best_default, r.thpt_rps);
        }
        const std::string mode =
            cfg.sopts.workers > 1
                ? std::to_string(cfg.sopts.workers) + " workers"
                : "serial";
        rows.push_back(r);
        t.add_row({skew_str, key, cfg.label,
                   std::to_string(cfg.sopts.max_batch), mode,
                   Table::num(r.thpt_rps / 1e3, 2),
                   cfg.label == "tuned" && best_default > 0.0
                       ? Table::num(r.thpt_rps / best_default, 2) + "x"
                       : "-",
                   Table::num(r.p50_ms, 2), Table::num(r.p95_ms, 2),
                   r.bottleneck});
      }
      if (require_speedup > 0.0 && gates_enforced &&
          tuned_rps < require_speedup * best_default) {
        std::printf("FAIL: zipf %.1f %s tuned %.0f req/s < %.2f x best "
                    "default %.0f req/s\n",
                    zipf, key.c_str(), tuned_rps, require_speedup,
                    best_default);
        failed = true;
      }
    }
  }

  t.print(std::cout, "auto-tuned vs hand-coded serving configurations");
  t.write_csv("fig_autotune.csv");
  write_json(args.get("out"), hw, gates_enforced, rows);

  if (require_speedup > 0.0 && !gates_enforced) {
    std::printf("single hardware thread: parallel candidates cannot win "
                "here; %.2fx gate is report-only\n", require_speedup);
  } else if (require_speedup > 0.0 && !failed) {
    std::printf("gates passed: tuned >= %.2fx best default everywhere\n",
                require_speedup);
  }
  return failed ? 1 : 0;
}
