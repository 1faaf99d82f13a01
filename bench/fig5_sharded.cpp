// High-concurrency serving sweep over the sharded CPU backend: measured
// request throughput and latency of the conflict-aware multi-worker
// ServingEngine versus worker-lane and shard counts — the Fig. 5
// latency/throughput trade re-run with the parallelism the paper's
// hardware Updater exploits (per-vertex chronological writes, no global
// serialization) mapped onto CPU threads.
//
// The submit loop saturates the bounded queue, so every micro-batch forms
// at the size cap and throughput is limited by batch service time and
// footprint conflicts only. Rows cover both conflict policies:
//   * relaxed       — write footprints disjoint (bounded-staleness reads)
//   * deterministic — read footprints tracked too; bit-identical to "cpu"
// plus, with --pipelined (default on), the staged dataflow pipeline: one
// row per policy where the four engine stages of adjacent micro-batches
// overlap on stage workers instead of whole batches on lanes.
// --require_pipelined_speedup gates the relaxed pipelined row's speedup
// over the serial single-worker baseline (report-only on one core — stage
// overlap needs real parallel hardware, same convention as the kernel
// sweep's batched-GRU gate).
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <thread>

#include "bench/common.hpp"
#include "perf/auto_tuner.hpp"
#include "runtime/serving.hpp"
#include "util/table.hpp"

using namespace tgnn;

int main(int argc, char** argv) {
  ArgParser args;
  const bench::CommonFlagDefaults defaults{
      .edge_scale = "2.0", .batch = "32", .memory_budget = "0",
      .autotune = "0"};
  bench::add_common_flags(args, defaults);
  args.add_flag("users", "20000", "synthetic users (graph size drives "
                                  "footprint conflict rate)");
  args.add_flag("items", "20000", "synthetic items");
  args.add_flag("events", "8000", "serving requests per configuration");
  args.add_flag("shards", "4,64", "comma-separated shard counts to sweep");
  args.add_flag("pipelined", "1", "also sweep the staged pipeline mode");
  args.add_flag("pipeline_depth", "4", "in-flight batches (StageContext "
                                       "slots) in pipelined mode");
  args.add_flag("require_pipelined_speedup", "0",
                "fail unless pipelined relaxed >= this x serial 1-worker "
                "throughput (0 = report only; always report-only on 1 core)");
  if (!args.parse(argc, argv)) return 1;
  const auto common = bench::read_common_flags(args, defaults);

  bench::banner(
      "Fig. 5 (sharded) — serving throughput vs workers & shards",
      "Zhou et al., IPDPS'22, Fig. 5 + §II-A per-vertex write parallelism");

  // A sparse, low-skew interaction graph: footprints of consecutive
  // micro-batches are usually disjoint, which is what lane-level
  // parallelism feeds on. (The default Zipf-1.4 users put one hot user in
  // ~30% of all events — every batch would conflict with every other, the
  // workload where the scheduler correctly degenerates to serial.)
  data::SyntheticConfig dcfg;
  dcfg.name = "sharded-serve";
  dcfg.num_users = static_cast<std::uint32_t>(args.get_int("users"));
  dcfg.num_items = static_cast<std::uint32_t>(args.get_int("items"));
  dcfg.num_edges = static_cast<std::size_t>(30000.0 * common.edge_scale);
  dcfg.edge_dim = 32;
  dcfg.user_zipf_s = 0.0;     // uniform users
  dcfg.num_communities = 1;   // item picks spread over the whole catalogue
  dcfg.repeat_prob = 0.2;     // mild recency, not hot-item hammering
  dcfg.pareto_xm = 3600.0;    // a user's next event lands batches away
  dcfg.seed = 7;
  const auto ds = data::make_synthetic(dcfg);
  const auto model = bench::make_model(bench::config_for(ds, "npM"), ds);

  // Sweep 1..max_workers lanes. The sweep always goes to at least 4 so the
  // conflict scheduler is exercised everywhere; actual speedup tops out at
  // the machine's core count (flat curves on small machines are honest
  // measurements, not bench bugs).
  const std::size_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  const std::size_t max_workers =
      common.threads > 0 ? static_cast<std::size_t>(common.threads)
                         : std::max<std::size_t>(4, std::min<std::size_t>(8, hw));
  std::vector<std::size_t> worker_counts;
  for (std::size_t w = 1; w <= max_workers; w *= 2) worker_counts.push_back(w);

  const auto region = ds.test_range();
  const std::size_t events =
      std::min(region.size(), static_cast<std::size_t>(args.get_int("events")));
  std::printf("dataset: %zu nodes, %zu edges; serving %zu events, "
              "micro-batch cap %zu, %zu hardware thread(s)\n\n",
              static_cast<std::size_t>(ds.num_nodes()), ds.num_edges(), events,
              common.batch, hw);

  Table t({"shards", "workers", "mode", "thpt (kreq/s)", "speedup",
           "peak overlap", "in-flight", "p50 (ms)", "p95 (ms)",
           "p50 queue (ms)", "p50 service (ms)", "botlnk p95 (ms)"});

  const bool sweep_pipelined = args.get_int("pipelined") != 0;
  const auto depth =
      static_cast<std::size_t>(args.get_int("pipeline_depth"));
  const double require_speedup =
      std::stod(args.get("require_pipelined_speedup"));
  double best_pipelined_speedup = 0.0;

  for (const auto& shard_str : bench::split_csv(args.get("shards"))) {
    const auto shards = static_cast<std::size_t>(std::stoull(shard_str));
    for (const bool deterministic : {false, true}) {
      double base_rps = 0.0;
      // Worker-lane sweep, then (optionally) one staged-pipeline run per
      // policy: same backend, same stream — workers column shows the
      // pipeline depth there, and "speedup" stays relative to the serial
      // single-worker row of this (shards, policy) block.
      std::vector<std::pair<std::size_t, bool>> runs;
      for (std::size_t workers : worker_counts) runs.push_back({workers, false});
      if (sweep_pipelined) runs.push_back({depth, true});
      for (const auto& [lanes, pipelined] : runs) {
        runtime::BackendOptions bopts;
        bopts.threads = static_cast<int>(max_workers);
        bopts.shards = shards;
        bopts.memory_budget =
            bench::resolve_memory_budget(common.memory_budget, model, ds);
        auto backend = runtime::make_backend("sharded-cpu", model, ds, bopts);
        runtime::fast_forward(*backend, region.begin);

        runtime::ServingOptions sopts;
        sopts.max_batch = common.batch;
        sopts.max_wait_s = 1e-3;
        sopts.workers = pipelined ? 1 : lanes;
        sopts.pipelined = pipelined;
        sopts.pipeline_depth = depth;
        sopts.deterministic = deterministic;
        const auto s =
            bench::serve_stream(*backend, region.begin, events, sopts).stats;
        if (!pipelined && lanes == 1) base_rps = s.throughput_rps;
        const double speedup =
            base_rps > 0.0 ? s.throughput_rps / base_rps : 1.0;
        if (pipelined && !deterministic)
          best_pipelined_speedup = std::max(best_pipelined_speedup, speedup);
        const std::string mode =
            pipelined ? (deterministic ? "pipelined-det" : "pipelined")
                      : (deterministic ? "deterministic" : "relaxed");
        t.add_row({shard_str, std::to_string(lanes), mode,
                   Table::num(s.throughput_rps / 1e3, 2),
                   Table::num(speedup, 2) + "x",
                   std::to_string(s.peak_parallel_batches),
                   std::to_string(s.peak_in_flight_batches),
                   Table::num(s.p50_latency_s * 1e3, 2),
                   Table::num(s.p95_latency_s * 1e3, 2),
                   Table::num(s.p50_queue_wait_s * 1e3, 2),
                   Table::num(s.p50_service_s * 1e3, 2),
                   bench::bottleneck_cell(s)});
      }
    }
  }

  // ---- auto-tuned row: the DSE loop picks the configuration ---------------
  // Tuning runs on a throwaway backend (its measurement serves consume the
  // same stream indices); the tuned config is then measured on a fresh
  // backend over exactly the slice the sweep rows used, so the comparison
  // is apples-to-apples.
  if (common.autotune) {
    const auto first_shards = static_cast<std::size_t>(
        std::stoull(bench::split_csv(args.get("shards")).front()));
    runtime::BackendOptions bopts;
    bopts.threads = static_cast<int>(max_workers);
    bopts.shards = first_shards;
    bopts.memory_budget =
        bench::resolve_memory_budget(common.memory_budget, model, ds);
    perf::AutoTunerOptions topts;
    // The search's measurement serves must fit the stream region.
    topts.budget_events =
        std::min(topts.budget_events, region.size() * 2 / 3);
    perf::TuneResult tuned;
    {
      auto scratch = runtime::make_backend("sharded-cpu", model, ds, bopts);
      runtime::fast_forward(*scratch, region.begin);
      perf::AutoTuner tuner(*scratch, topts);
      tuned = tuner.search(region.begin);
    }
    std::printf("\n%s\n", tuned.describe().c_str());
    auto backend = runtime::make_backend("sharded-cpu", model, ds, bopts);
    runtime::fast_forward(*backend, region.begin);
    const auto s =
        bench::serve_stream(*backend, region.begin, events, tuned.options)
            .stats;
    t.add_row({std::to_string(first_shards),
               std::to_string(tuned.options.pipelined
                                  ? tuned.options.pipeline_depth
                                  : tuned.options.workers),
               "auto-tuned", Table::num(s.throughput_rps / 1e3, 2), "-",
               std::to_string(s.peak_parallel_batches),
               std::to_string(s.peak_in_flight_batches),
               Table::num(s.p50_latency_s * 1e3, 2),
               Table::num(s.p95_latency_s * 1e3, 2),
               Table::num(s.p50_queue_wait_s * 1e3, 2),
               Table::num(s.p50_service_s * 1e3, 2),
               bench::bottleneck_cell(s)});
  }
  t.print(std::cout, "sharded-cpu serving sweep");
  t.write_csv("fig5_sharded.csv");

  if (sweep_pipelined) {
    std::printf("\nbest pipelined (relaxed) speedup vs serial 1-worker: "
                "%.2fx\n", best_pipelined_speedup);
    if (require_speedup > 0.0) {
      if (hw <= 1) {
        std::printf("single hardware thread: stage overlap cannot buy wall "
                    "time; %.2fx gate is report-only here\n", require_speedup);
      } else if (best_pipelined_speedup < require_speedup) {
        std::printf("FAIL: pipelined speedup %.2fx < required %.2fx\n",
                    best_pipelined_speedup, require_speedup);
        return 1;
      } else {
        std::printf("gate passed: %.2fx >= %.2fx\n", best_pipelined_speedup,
                    require_speedup);
      }
    }
  }
  return 0;
}
