// Overload sweep: goodput, shed rate, and admitted-request latency versus
// offered load under deadline-aware admission, written to
// BENCH_overload.json (each PR's CI run uploads the JSON as an artifact —
// the repo's overload-behavior trajectory).
//
// Phase 1 probes capacity: the engine serves a tight blocking-admission
// stream and its throughput is taken as the sustainable service rate.
// Phase 2 offers a paced open-loop stream at 0.5x / 1.0x / 2.0x that
// capacity with the kDeadline policy armed: requests whose queue wait
// exceeds the budget are dropped before dispatch instead of being served
// late. Two properties are gated (report-only on a single hardware
// thread, matching the other perf gates' convention):
//
//   * bounded tail — at 2x offered load, the p99 latency of ADMITTED
//     requests stays within --require_p99_factor of the lightly-loaded
//     (0.5x) p99: the deadline converts unbounded queueing delay into
//     typed drops;
//   * preserved goodput — the 2x row still serves at least
//     --require_goodput of the probed capacity: shedding the excess must
//     not starve the work the engine can actually do.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "perf/auto_tuner.hpp"
#include "runtime/serving.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

using namespace tgnn;

namespace {

struct Row {
  double offered_x = 0.0;    ///< offered load as a multiple of capacity
  double offered_rps = 0.0;
  std::size_t submitted = 0;
  std::size_t served = 0;
  std::size_t expired = 0;
  std::size_t shed = 0;
  double goodput_rps = 0.0;  ///< served / wall time of the row
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p99_vs_unloaded = 1.0;  ///< vs the 0.5x row
};

void write_json(const std::string& path, double capacity_rps,
                double deadline_ms, std::size_t hw, bool gates_enforced,
                const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"fig_overload\",\n");
  std::fprintf(f, "  \"capacity_rps\": %.1f,\n", capacity_rps);
  std::fprintf(f, "  \"deadline_ms\": %.3f,\n", deadline_ms);
  std::fprintf(f, "  \"hardware_threads\": %zu,\n", hw);
  std::fprintf(f, "  \"gates_enforced\": %s,\n",
               gates_enforced ? "true" : "false");
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"offered_x\": %.2f, \"offered_rps\": %.1f, "
        "\"submitted\": %zu, \"served\": %zu, \"expired\": %zu, "
        "\"shed\": %zu, \"goodput_rps\": %.1f, \"p50_ms\": %.3f, "
        "\"p99_ms\": %.3f, \"p99_vs_unloaded\": %.2f}%s\n",
        r.offered_x, r.offered_rps, r.submitted, r.served, r.expired, r.shed,
        r.goodput_rps, r.p50_ms, r.p99_ms, r.p99_vs_unloaded,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  const bench::CommonFlagDefaults defaults{
      .batch = "64", .threads = nullptr, .autotune = "0"};
  bench::add_common_flags(args, defaults);
  args.add_flag("users", "4000", "synthetic users");
  args.add_flag("items", "2000", "synthetic items");
  args.add_flag("events", "3000", "requests offered per sweep row");
  args.add_flag("offered", "0.5,1.0,2.0",
                "offered load as multiples of the probed capacity");
  args.add_flag("deadline_ms", "0",
                "queue-wait budget for admitted requests "
                "(0 = auto: two batch service times at capacity)");
  args.add_flag("require_p99_factor", "0",
                "fail if the 2x row's admitted p99 > this x the 0.5x row's "
                "p99 (0 = report only; always report-only on 1 core)");
  args.add_flag("require_goodput", "0",
                "fail if the 2x row's goodput < this x capacity "
                "(0 = report only; always report-only on 1 core)");
  args.add_flag("out", "BENCH_overload.json", "output JSON path");
  if (!args.parse(argc, argv)) return 1;
  const auto common = bench::read_common_flags(args, defaults);

  bench::banner("Overload sweep — goodput & tail latency vs offered load",
                "Zhou et al., IPDPS'22 serving model + deadline-aware "
                "admission control");

  data::SyntheticConfig dcfg;
  dcfg.name = "overload";
  dcfg.num_users = static_cast<std::uint32_t>(args.get_int("users"));
  dcfg.num_items = static_cast<std::uint32_t>(args.get_int("items"));
  dcfg.num_edges = static_cast<std::size_t>(30000.0 * common.edge_scale);
  dcfg.edge_dim = 16;
  dcfg.seed = 17;
  const auto ds = data::make_synthetic(dcfg);
  const auto model = bench::make_model(bench::config_for(ds, "npM"), ds);

  const auto region = ds.test_range();
  const std::size_t events = std::min(
      region.size() / 2, static_cast<std::size_t>(args.get_int("events")));
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());

  // ---- phase 0 (optional): the auto-tuner picks the serving config --------
  // Tuned on a throwaway backend over the same stream prefix; the probe and
  // every sweep row then run the tuned batch/wait (admission overrides
  // still applied per phase below).
  runtime::ServingOptions base_sopts;
  base_sopts.max_batch = common.batch;
  base_sopts.max_wait_s = 1e-4;
  if (common.autotune) {
    runtime::BackendOptions bopts;
    auto scratch = runtime::make_backend("cpu", model, ds, bopts);
    runtime::fast_forward(*scratch, region.begin);
    perf::AutoTunerOptions topts;
    topts.budget_events =
        std::min(topts.budget_events, region.size() * 2 / 3);
    perf::AutoTuner tuner(*scratch, topts);
    const auto tuned = tuner.search(region.begin);
    std::printf("%s\n\n", tuned.describe().c_str());
    base_sopts = tuned.options;
  }

  // ---- phase 1: capacity probe (blocking admission, closed loop) ----------
  double capacity_rps = 0.0;
  std::string probe_summary;
  {
    runtime::BackendOptions bopts;
    auto backend = runtime::make_backend("cpu", model, ds, bopts);
    runtime::fast_forward(*backend, region.begin);
    const auto probe =
        bench::serve_stream(*backend, region.begin, events, base_sopts).stats;
    capacity_rps = probe.throughput_rps;
    probe_summary = probe.describe();
  }
  const double deadline_flag = std::stod(args.get("deadline_ms"));
  const double deadline_s =
      deadline_flag > 0.0
          ? deadline_flag * 1e-3
          : 2.0 * static_cast<double>(base_sopts.max_batch) / capacity_rps;
  std::printf("dataset: %zu nodes, %zu edges; %zu requests per row, batch "
              "%zu, %zu hardware thread(s)\n",
              static_cast<std::size_t>(ds.num_nodes()), ds.num_edges(), events,
              base_sopts.max_batch, hw);
  std::printf("probed capacity: %.0f req/s; deadline budget %.2f ms\n",
              capacity_rps, deadline_s * 1e3);
  std::printf("capacity-probe %s\n", probe_summary.c_str());

  // ---- phase 2: paced open-loop sweep under kDeadline ---------------------
  Table t({"offered", "req/s", "served", "expired", "shed",
           "goodput (req/s)", "p50 (ms)", "p99 (ms)", "p99 vs unloaded"});
  std::vector<Row> rows;
  for (const auto& mult_str : bench::split_csv(args.get("offered"))) {
    Row r;
    r.offered_x = std::stod(mult_str);
    r.offered_rps = r.offered_x * capacity_rps;
    r.submitted = events;

    runtime::BackendOptions bopts;
    auto backend = runtime::make_backend("cpu", model, ds, bopts);
    runtime::fast_forward(*backend, region.begin);
    runtime::ServingOptions sopts = base_sopts;
    sopts.admission = runtime::AdmissionPolicy::kDeadline;
    sopts.deadline_s = deadline_s;
    const auto run = bench::serve_stream(*backend, region.begin, events,
                                         sopts, r.offered_rps);
    const double wall_s = run.wall_s;
    const auto& s = run.stats;
    r.served = s.num_requests;
    r.expired = s.num_expired;
    r.shed = s.num_shed;
    r.goodput_rps = static_cast<double>(r.served) / wall_s;
    r.p50_ms = s.p50_latency_s * 1e3;
    r.p99_ms = s.p99_latency_s * 1e3;
    if (!rows.empty() && rows[0].p99_ms > 0.0)
      r.p99_vs_unloaded = r.p99_ms / rows[0].p99_ms;

    t.add_row({mult_str + "x", Table::num(r.offered_rps, 0),
               std::to_string(r.served), std::to_string(r.expired),
               std::to_string(r.shed), Table::num(r.goodput_rps, 0),
               Table::num(r.p50_ms, 2), Table::num(r.p99_ms, 2),
               Table::num(r.p99_vs_unloaded, 2) + "x"});
    rows.push_back(r);
  }

  t.print(std::cout, "overload sweep (cpu backend, deadline admission)");
  t.write_csv("fig_overload.csv");

  const double require_p99 = std::stod(args.get("require_p99_factor"));
  const double require_goodput = std::stod(args.get("require_goodput"));
  const bool gates_requested = require_p99 > 0.0 || require_goodput > 0.0;
  const bool gates_enforced = gates_requested && hw > 1;
  write_json(args.get("out"), capacity_rps, deadline_s * 1e3, hw,
             gates_enforced, rows);

  bool failed = false;
  const Row* overload = nullptr;
  for (const auto& r : rows)
    if (r.offered_x >= 2.0) overload = &r;
  if (gates_requested && overload != nullptr) {
    if (!gates_enforced) {
      std::printf("single hardware thread: the pacing thread competes with "
                  "serving for the one core; gates are report-only here\n");
    } else {
      if (require_p99 > 0.0 &&
          overload->p99_vs_unloaded > require_p99) {
        std::printf("FAIL: 2x-load admitted p99 is %.2fx the unloaded p99 "
                    "(> %.2fx)\n",
                    overload->p99_vs_unloaded, require_p99);
        failed = true;
      }
      if (require_goodput > 0.0 &&
          overload->goodput_rps < require_goodput * capacity_rps) {
        std::printf("FAIL: 2x-load goodput %.0f req/s < %.2f x capacity "
                    "(%.0f req/s)\n",
                    overload->goodput_rps, require_goodput,
                    require_goodput * capacity_rps);
        failed = true;
      }
      if (!failed) std::printf("gates passed\n");
    }
  }
  return failed ? 1 : 0;
}
