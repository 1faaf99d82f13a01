// End-to-end serving benchmark: one workload per process, driven through
// runtime::make_backend and runtime::ServingEngine by a single-process load
// generator.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>]
//
// A run synthesizes the workload's stream from the seed, then serves fixed
// slices of it in three phases:
//   sat      closed loop: submit as fast as kBlock admission allows
//   nominal  open-loop Poisson arrivals at the workload's nominal rate
//   ladder   one open-loop Poisson phase per rung of a fixed rate ladder
// The deployment (model + backend + fast-forward past the stream's
// warm-in) is set up three times, each serving the sat slice; setup_s and
// sat_rps are medians over the three, and the last one serves the rest.
// Every run checks that each request resolves exactly once and each
// phase's batch log is contiguous. With --trace 1 the run also records
// spans around every call into the engine, checks that a probe batch's
// embeddings after the last phase are bit-identical to a serial
// all-resident "cpu" replay of every batch log, replays the served batches
// stage by stage on a fresh backend, times the kernels at the workload's
// shapes, and prints per-layer metrics instead of end-to-end ones.
//
// The last line of stdout is the result JSON (harness.hpp: result_json).
// Exit code 1 when a correctness check fails, 2 on bad arguments.

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "data/synthetic.hpp"
#include "harness.hpp"
#include "kernels/fused.hpp"
#include "runtime/backend.hpp"
#include "runtime/driver.hpp"
#include "runtime/serving.hpp"
#include "runtime/stream_result.hpp"
#include "tensor/tensor.hpp"
#include "tgnn/config.hpp"
#include "tgnn/inference.hpp"
#include "tgnn/model.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace tgnn;
using Clock = std::chrono::steady_clock;
using e2e::Metric;
using e2e::Span;
using e2e::Tracer;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- workloads -------------------------------------------------------------

/// One fixed workload. Every number here is absolute and chosen from
/// measurement on a 4-core host; none is derived from a run's own results,
/// so two commits see the same offered load.
struct Workload {
  std::string name;
  data::SyntheticConfig synth;
  std::string key;  ///< runtime::make_backend registry key
  runtime::BackendOptions bopts;
  runtime::ServingOptions sopts;
  /// Fast-forward past the stream's warm-in: the share of distinct
  /// vertices per edge falls steeply over the first part of a skewed
  /// stream, so phases start past its steepest part. What drift remains is
  /// the same on every commit, since every phase serves a fixed slice.
  std::size_t prefix = 0;
  std::size_t sat_events = 0;  ///< closed-loop slice
  double nominal_rps = 0.0;    ///< well under the slowest capacity seen
  std::vector<double> ladder_rps;
  double limit_ms = 0.0;       ///< SLO latency limit, timed from due
  std::size_t probe_edges = 0;
};

/// Batching window of both workloads, long enough that at the nominal rate
/// batches close on max_batch, so latency is set by batch fill plus
/// service time. With the 2 ms default the tail percentiles were set by the
/// millisecond stalls of a shared host instead: their run-to-run spread
/// reached 0.4-1.3 of the median in its busy periods.
constexpr double kMaxWaitS = 20e-3;

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "wiki-serial") {
    // Paper-scale Wikipedia shape; compute-bound (MemoryUpdate + GnnCompute
    // are ~95% of the stage time), state resident, one lane.
    w.synth.num_users = 8227;
    w.synth.num_items = 1000;
    w.synth.edge_dim = 172;
    w.key = "cpu";
    w.sopts.max_batch = 200;
    w.sopts.max_wait_s = kMaxWaitS;
    w.prefix = 200000;
    w.sat_events = 120000;
    w.nominal_rps = 10000;
    w.ladder_rps = {25000, 50000, 200000};
    w.limit_ms = 50;
    w.probe_edges = 200;
  } else if (name == "oocore-10pct") {
    // Vertex state far larger than its resident budget: store-bound.
    w.synth.num_users = 200000;
    w.synth.num_items = 100000;
    w.synth.edge_dim = 16;
    w.synth.user_zipf_s = 1.1;
    w.key = "cpu:mem=10%";
    w.sopts.max_batch = 64;
    w.sopts.max_wait_s = kMaxWaitS;
    w.prefix = 100000;
    w.sat_events = 40000;
    w.nominal_rps = 4000;
    w.ladder_rps = {6000, 12000, 200000};
    w.limit_ms = 50;
    w.probe_edges = 64;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (wiki-serial | oocore-10pct)");
  }
  return w;
}

/// The stream slices of one run, in serving order.
struct PhasePlan {
  std::string name;
  double rate_rps = 0.0;  ///< 0 = closed loop
  std::size_t first = 0, count = 0;
};

/// Deployments set up per run; each serves the sat and nominal slices.
constexpr int kReps = 3;

/// Seconds of nominal-rate traffic each deployment serves.
double nominal_seconds(double seconds) {
  return std::max(1.0, std::round(0.2 * seconds));
}

std::vector<PhasePlan> plan_phases(const Workload& w, double seconds) {
  std::vector<PhasePlan> plan;
  std::size_t next = w.prefix;
  const auto add = [&](std::string name, double rate, std::size_t count) {
    plan.push_back({std::move(name), rate, next, count});
    next += count;
  };
  const auto events = [](double rate, double dur) {
    return static_cast<std::size_t>(std::llround(rate * dur));
  };
  // Open-loop time: 60% nominal, served in three equal parts by the three
  // deployments, in whole seconds (its percentiles are taken per second);
  // the rest is shared by the ladder's rungs, each as many requests as the
  // lowest rung sends in its share, so every rung's verdict rests on the
  // same sample count and a rung above capacity stays short.
  const double nominal_s = nominal_seconds(seconds);
  add("sat", 0.0, w.sat_events);
  add("nominal", w.nominal_rps, events(w.nominal_rps, nominal_s));
  const std::size_t rung_n = events(
      w.ladder_rps.front(),
      (seconds - kReps * nominal_s) /
          static_cast<double>(w.ladder_rps.size()));
  for (double r : w.ladder_rps)
    add("rung-" + std::to_string(static_cast<long>(r)), r, rung_n);
  return plan;
}

// ---- host and process probes -------------------------------------------------

/// Fixed single-core ALU loop (xorshift-multiply chain), median of three,
/// in ms. Reported next to every result as the host's state; never used to
/// scale any metric.
double host_spin_ms() {
  std::vector<double> t;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    for (std::uint32_t i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      x *= 0x9e3779b97f4a7c15ULL;
    }
    sink = x;
    (void)sink;
    t.push_back(since(t0) * 1e3);
  }
  std::sort(t.begin(), t.end());
  return t[1];
}

/// A "<key>: <n> kB" line of /proc/self/status, in MB (0 when absent).
double proc_status_mb(const char* key) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(f, line))
    if (line.rfind(prefix, 0) == 0)
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
  return 0.0;
}

// ---- setup -----------------------------------------------------------------

struct Deployment {
  std::unique_ptr<core::TgnModel> model;
  std::unique_ptr<runtime::Backend> backend;
};

struct SetupTimes {
  double model_s = 0.0, backend_s = 0.0, ff_s = 0.0;
  [[nodiscard]] double total() const { return model_s + backend_s + ff_s; }
};

/// make_model (NP(M) with its LUT fit), make_backend, fast_forward over the
/// prefix: everything before the engine takes its first request.
Deployment deploy(const Workload& w, const data::Dataset& ds, SetupTimes& t,
                  Tracer& tr) {
  Span s(tr, "setup");
  Deployment d;
  auto t0 = Clock::now();
  {
    Span m(tr, "setup.make_model", s.id());
    d.model = std::make_unique<core::TgnModel>(
        core::np_config('M', ds.edge_dim(), ds.node_dim()), 1);
    if (d.model->lut_encoder())
      d.model->fit_lut(core::collect_dt_samples(ds, ds.train_range()));
  }
  t.model_s = since(t0);
  t0 = Clock::now();
  {
    Span b(tr, "setup.make_backend", s.id());
    d.backend = runtime::make_backend(w.key, *d.model, ds, w.bopts);
  }
  t.backend_s = since(t0);
  t0 = Clock::now();
  {
    Span f(tr, "setup.fast_forward", s.id());
    runtime::fast_forward(*d.backend, w.prefix);
  }
  t.ff_s = since(t0);
  return d;
}

// ---- serving phases ----------------------------------------------------------

struct PhaseResult {
  PhasePlan plan;
  std::vector<double> due_s;       ///< schedule (open loop only)
  std::vector<double> lateness_s;  ///< submit accepted - due
  std::vector<double> lag_s;       ///< submit called - due (generator lag)
  e2e::DueTimes t;
  double wall_s = 0.0;       ///< first submit -> end of drain()
  double submit_s = 0.0;     ///< total time inside submit()
  double stats_call_s = 0.0;  ///< the end-of-phase stats() call
  runtime::ServingStats stats;
  std::vector<graph::BatchRange> batches;
  std::vector<runtime::OutcomeRecord> outcomes;
  std::size_t served = 0;
  std::string error;  ///< first correctness violation ("" = none)
};

/// Wait until `deadline`: sleep while far from it, then spin. (Spinning
/// throughout took a whole host core from the engine's threads and made
/// the resident workload's tail latencies unsteady.)
void wait_until(Clock::time_point deadline) {
  for (;;) {
    const auto now = Clock::now();
    if (now >= deadline) return;
    if (deadline - now > std::chrono::microseconds(200))
      std::this_thread::sleep_for(deadline - now -
                                  std::chrono::microseconds(100));
  }
}

PhaseResult run_phase(runtime::Backend& be, const Workload& w,
                      const PhasePlan& plan, std::uint64_t seed, Tracer& tr) {
  PhaseResult r;
  r.plan = plan;
  const bool open = plan.rate_rps > 0.0;
  if (open) r.due_s = e2e::poisson_schedule(seed, plan.rate_rps, plan.count);
  r.lateness_s.assign(plan.count, 0.0);
  r.lag_s.assign(plan.count, 0.0);

  Span phase(tr, "phase", 0, static_cast<std::int64_t>(plan.first));
  runtime::ServingEngine eng(be, w.sopts);


  const auto t0 = Clock::now() + std::chrono::milliseconds(1);

  wait_until(t0);
  auto prev_accepted = t0;
  for (std::size_t i = 0; i < plan.count; ++i) {
    Clock::time_point due = t0;
    if (open) {
      due = t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(r.due_s[i]));
      wait_until(due);
    }
    const auto call = Clock::now();
    {
      Span s(tr, "engine.submit", phase.id(),
             static_cast<std::int64_t>(plan.first + i));
      eng.submit(plan.first + i);
    }
    const auto accepted = Clock::now();
    r.submit_s += std::chrono::duration<double>(accepted - call).count();
    if (open) {
      // The generator's own lag: how late it called submit beyond what the
      // previous submit's backpressure forced.
      r.lag_s[i] = std::chrono::duration<double>(
                       call - std::max(due, prev_accepted))
                       .count();
      r.lateness_s[i] = std::chrono::duration<double>(accepted - due).count();
    }
    prev_accepted = accepted;
  }
  {
    Span s(tr, "engine.drain", phase.id());
    eng.drain();
  }
  r.wall_s = since(t0);
  {
    Span s(tr, "engine.stats", phase.id());
    const auto t_stats = Clock::now();
    r.stats = eng.stats();
    r.stats_call_s = since(t_stats);
  }
  r.batches = eng.batch_log();
  r.outcomes = eng.outcome_log();
  const std::vector<double> lat = eng.request_latency_s();
  r.served = lat.size();

  r.error = e2e::check_resolution(plan.first, plan.count, r.outcomes);
  if (r.error.empty())
    r.error = e2e::check_batch_log(plan.first, plan.count, r.batches);
  if (r.error.empty() && open)
    r.t = e2e::due_times(plan.first, r.due_s, r.lateness_s, r.outcomes, lat);
  if (!r.error.empty()) r.error = plan.name + ": " + r.error;
  return r;
}

// ---- correctness reference and staged replay --------------------------------

/// Serial all-resident "cpu" replay of every served batch log, then the
/// probe batch: the reference digest the served backend must match.
std::uint64_t reference_digest(const Workload& w, const core::TgnModel& model,
                               const data::Dataset& ds,
                               const std::vector<PhaseResult>& phases,
                               const graph::BatchRange& probe, Tracer& tr) {
  Span s(tr, "gate.reference_replay");
  runtime::BackendOptions opts = w.bopts;
  opts.memory_budget = 0;
  auto ref = runtime::make_backend("cpu", model, ds, opts);
  runtime::fast_forward(*ref, w.prefix);
  for (const auto& p : phases)
    for (const auto& b : p.batches) (void)ref->process_batch(b);
  return e2e::digest(ref->process_batch(probe).functional);
}

constexpr std::size_t kReplayCalls = core::kNumStages + 2;
constexpr const char* kReplayNames[kReplayCalls] = {
    "stage.begin",  "stage.memory_update", "stage.neighbor_gather",
    "stage.gnn_compute", "stage.decode", "stage.finish"};

struct Replay {
  /// Per-batch seconds of each StagedBackend call, in kReplayNames order,
  /// over every served batch; `nominal` marks the nominal phase's batches.
  std::array<std::vector<double>, kReplayCalls> call_s;
  std::array<std::vector<double>, kReplayCalls> nominal_s;
  double vertices_per_edge = 0.0;
  double mean_unique = 0.0;
};

/// Replay every phase's batch log on a fresh backend built the same way,
/// calling begin_batch, run_stage x4, finish_batch: stage self times on the
/// exact batches that were served.
Replay staged_replay(const Workload& w, const data::Dataset& ds,
                     const std::vector<PhaseResult>& phases, Tracer& tr) {
  SetupTimes ignored;
  Deployment d = deploy(w, ds, ignored, tr);
  auto* staged = dynamic_cast<runtime::StagedBackend*>(d.backend.get());
  if (staged == nullptr)
    throw std::logic_error("backend '" + w.key + "' is not a StagedBackend");
  staged->prepare_pipeline(1, w.sopts.max_batch);
  Replay rep;
  std::size_t unique_total = 0, edges_total = 0, batches_total = 0;
  std::unordered_set<graph::NodeId> uniq;
  Span root(tr, "replay");
  for (const auto& p : phases) {
    const bool nominal = p.plan.name == "nominal";
    for (const auto& b : p.batches) {
      Span bs(tr, "replay.batch", root.id(),
              static_cast<std::int64_t>(b.begin));
      std::array<double, kReplayCalls> t{};
      const auto timed = [&](std::size_t k, auto&& call) {
        Span s(tr, kReplayNames[k], bs.id(),
               static_cast<std::int64_t>(b.begin));
        const auto t0 = Clock::now();
        call();
        t[k] = since(t0);
      };
      timed(0, [&] { staged->begin_batch(0, b); });
      for (std::size_t k = 0; k < core::kNumStages; ++k)
        timed(k + 1,
              [&] { staged->run_stage(static_cast<core::Stage>(k), 0); });
      timed(kReplayCalls - 1, [&] { staged->finish_batch(0); });
      for (std::size_t k = 0; k < kReplayCalls; ++k) {
        rep.call_s[k].push_back(t[k]);
        if (nominal) rep.nominal_s[k].push_back(t[k]);
      }
      uniq.clear();
      for (const auto& e : ds.graph.edges(b)) {
        uniq.insert(e.src);
        uniq.insert(e.dst);
      }
      unique_total += uniq.size();
      edges_total += b.size();
      ++batches_total;
    }
  }
  if (edges_total > 0)
    rep.vertices_per_edge = static_cast<double>(unique_total) /
                            static_cast<double>(edges_total);
  if (batches_total > 0)
    rep.mean_unique = static_cast<double>(unique_total) /
                      static_cast<double>(batches_total);
  return rep;
}

struct KernelProbe {
  std::size_t rows = 0;
  double gru_ns = 0.0, gru_gflops = 0.0;
  double affine_ns = 0.0, affine_gflops = 0.0;
};

/// Time kernels::gru_forward_into and kernels::affine_into on the model's
/// own weights at the workload's shapes: `rows` = mean unique vertices per
/// served batch. FLOPs are computed from tensor shapes (2 per MAC), not
/// measured by counters.
KernelProbe kernel_probe(const core::TgnModel& model, std::size_t rows) {
  KernelProbe k;
  k.rows = std::max<std::size_t>(rows, 1);
  const auto& cfg = model.config();
  Rng rng(11);
  const auto& g = model.updater().gru;
  const kernels::GruWeights gw{&g.w_ir.value, &g.w_iz.value, &g.w_in.value,
                               &g.b_ir.value, &g.b_iz.value, &g.b_in.value,
                               &g.w_hr.value, &g.w_hz.value, &g.w_hn.value,
                               &g.b_hr.value, &g.b_hz.value, &g.b_hn.value};
  const Tensor x = Tensor::randn(k.rows, cfg.gru_in_dim(), rng);
  const Tensor h = Tensor::randn(k.rows, cfg.mem_dim, rng);
  kernels::GruScratch scratch;
  Tensor out;
  const auto time_calls = [](auto&& fn) {
    fn();  // size the outputs
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    double el = 0.0;
    while (el < 0.2) {
      for (int i = 0; i < 16; ++i) fn();
      calls += 16;
      el = since(t0);
    }
    return el / static_cast<double>(calls);
  };
  const double gru_s =
      time_calls([&] { kernels::gru_forward_into(x, h, gw, scratch, out); });
  const double gru_flops = 2.0 * static_cast<double>(g.macs(k.rows));
  k.gru_ns = gru_s * 1e9;
  k.gru_gflops = gru_flops / gru_s * 1e-9;

  // The attention value projection (kv_in_dim -> emb), the widest GEMM of
  // GnnCompute.
  const core::SimplifiedAttention* sat = model.simplified();
  const Tensor& w = sat != nullptr ? sat->wv.w.value : g.w_in.value;
  const Tensor& b = sat != nullptr ? sat->wv.b.value : g.b_in.value;
  const Tensor xa = Tensor::randn(k.rows, w.cols(), rng);
  Tensor ya;
  const double aff_s =
      time_calls([&] { kernels::affine_into(xa, w, b, ya); });
  k.affine_ns = aff_s * 1e9;
  k.affine_gflops = 2.0 * static_cast<double>(k.rows * w.rows() * w.cols()) /
                    aff_s * 1e-9;
  return k;
}

// ---- reporting -----------------------------------------------------------------

void print_phase(const PhaseResult& p) {
  const auto& st = p.stats;
  std::printf(
      "phase %-12s slice [%zu, %zu) rate %s: sent %zu served %zu shed %zu "
      "expired %zu failed %zu  wall %.3f s\n",
      p.plan.name.c_str(), p.plan.first, p.plan.first + p.plan.count,
      p.plan.rate_rps > 0 ? (std::to_string(static_cast<long>(p.plan.rate_rps)) +
                             " rps Poisson")
                                .c_str()
                          : "closed",
      p.plan.count, p.served, st.num_shed, st.num_expired, st.num_failed,
      p.wall_s);
  if (p.plan.rate_rps > 0) {
    const e2e::Quantiles late = e2e::quantiles(p.lateness_s);
    std::printf("  generator lag p99 %.3f ms; lateness p50 %.3f p99 %.3f ms; "
                "engine latency p50 %.3f p99 %.3f ms; queue wait p50 %.3f "
                "p95 %.3f ms; %zu batches of %.1f\n",
                runtime::percentile_of(p.lag_s, 0.99) * 1e3, late.p50 * 1e3,
                late.p99 * 1e3, st.p50_latency_s * 1e3,
                st.p99_latency_s * 1e3, st.p50_queue_wait_s * 1e3,
                st.p95_queue_wait_s * 1e3, st.num_batches,
                st.mean_batch_size);
  }
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_file;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = std::stoi(v) != 0;
    } else if (k == "--trace-file") {
      a.trace_file = v;
    } else {
      throw std::invalid_argument("unknown flag " + k);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload);
  Tracer tr(args.trace);
  std::vector<Metric> e2e_metrics, layer;

  const double spin_ms = host_spin_ms();
  std::printf("workload %s  seed %" PRIu64 "  seconds %.3g  trace %d\n",
              w.name.c_str(), args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf("host.spin_ms %.3f ms (fixed single-core ALU loop, median of "
              "3; never used to scale a metric)\n",
              spin_ms);

  const std::vector<PhasePlan> plan = plan_phases(w, args.seconds);
  const std::size_t stream_end = plan.back().first + plan.back().count;
  const graph::BatchRange probe{stream_end, stream_end + w.probe_edges};

  // Load generator work, not setup: synthesize the stream.
  data::SyntheticConfig sc = w.synth;
  sc.num_edges = probe.end;
  sc.seed = args.seed;
  const auto t_synth = Clock::now();
  const data::Dataset ds = data::make_synthetic(sc);
  std::printf("stream: %zu edges, %u nodes, %zu-d edge features "
              "(synthesized in %.2f s, excluded from setup)\n",
              ds.num_edges(), ds.num_nodes(), ds.edge_dim(), since(t_synth));

  // Setup, the closed-loop phase and the nominal phase, three times over:
  // every deployment serves the same sat and nominal slices, and the last
  // one goes on to the ladder. setup_s, sat_rps and the percentiles are
  // medians over the three, which samples a shared host at three moments
  // instead of one.
  std::vector<double> setup_s, model_s, backend_s, ff_s, sat_reps;
  std::vector<e2e::Quantiles> windows;
  const auto nominal_windows =
      static_cast<std::size_t>(nominal_seconds(args.seconds));
  std::size_t attempted = 0, served = 0;
  std::string error;
  const auto account = [&](const PhaseResult& p) {
    print_phase(p);
    attempted += p.plan.count;
    served += p.served;
    if (error.empty()) error = p.error;
  };
  Deployment dep;
  std::vector<PhaseResult> phases;
  double rss_before = 0.0;
  graph::VertexStoreStats store0;
  for (int rep = 0; rep < kReps; ++rep) {
    dep = Deployment{};  // release the previous deployment first
    SetupTimes t;
    dep = deploy(w, ds, t, tr);
    setup_s.push_back(t.total());
    model_s.push_back(t.model_s);
    backend_s.push_back(t.backend_s);
    ff_s.push_back(t.ff_s);
    std::printf("setup rep %d: %.4f s (make_model %.4f, make_backend %.4f, "
                "fast_forward %zu events %.4f)\n",
                rep, t.total(), t.model_s, t.backend_s, w.prefix, t.ff_s);
    if (rep + 1 == kReps) {
      std::printf("backend: %s\n", dep.backend->describe().c_str());
      rss_before = proc_status_mb("VmRSS");
      store0 = dep.backend->store_stats();
    }
    PhaseResult sat = run_phase(*dep.backend, w, plan[0], args.seed, tr);
    account(sat);
    sat_reps.push_back(sat.wall_s > 0.0
                           ? static_cast<double>(sat.served) / sat.wall_s
                           : 0.0);
    PhaseResult nom = run_phase(*dep.backend, w, plan[1],
                                args.seed * 1000003ULL + 1, tr);
    account(nom);
    if (nom.error.empty())
      for (const auto& q : e2e::windowed_quantiles(nom.t.latency_s, nom.due_s,
                                                   nominal_windows))
        windows.push_back(q);
    if (rep + 1 == kReps) {
      phases.push_back(std::move(sat));
      phases.push_back(std::move(nom));
    }
  }
  for (std::size_t i = 2; i < plan.size(); ++i) {
    phases.push_back(run_phase(*dep.backend, w, plan[i],
                               args.seed * 1000003ULL + i, tr));
    account(phases.back());
  }
  const graph::VertexStoreStats store1 = dep.backend->store_stats();
  const double peak_rss = proc_status_mb("VmHWM");
  const double rss_after = proc_status_mb("VmRSS");
  const double rss_anon = proc_status_mb("RssAnon");
  const double rss_file = proc_status_mb("RssFile");

  // End-to-end metrics. The percentiles are medians over every second of
  // nominal traffic, so a few stalled stretches of a shared host do not
  // move them.
  const PhaseResult& nom = phases[1];
  const double sat_rps = e2e::median(sat_reps);
  const e2e::Quantiles q = e2e::median_quantiles(windows);
  std::vector<e2e::RungVerdict> rungs;
  for (std::size_t i = 2; i < phases.size(); ++i)
    rungs.push_back(e2e::judge_rung(phases[i].plan.rate_rps, phases[i].due_s,
                                    phases[i].t, w.limit_ms * 1e-3));
  for (const auto& v : rungs)
    std::printf("rung %6.0f rps: sent %zu served %zu within %.0f ms %.4f  "
                "backlog mid %ld end %ld%s -> %s (achieved %.1f rps)\n",
                v.rate_rps, v.sent, v.served, w.limit_ms, v.within_frac,
                v.backlog_mid, v.backlog_end,
                v.backlog_grows ? " (grows)" : "", v.pass ? "pass" : "FAIL",
                v.achieved_rps);
  const double slo = e2e::slo_rps(rungs);

  e2e_metrics = {
      {"setup_s", e2e::median(setup_s), "s"},
      {"sat_rps", sat_rps, "1/s"},
      {"p50_ms", q.p50 * 1e3, "ms"},
      {"p95_ms", q.p95 * 1e3, "ms"},
      {"p99_ms", q.p99 * 1e3, "ms"},
      {"slo_rps", slo, "1/s"},
      {"peak_rss_mb", peak_rss, "MB"},
  };
  std::printf("setup_s %.4f s (median of %d setups)\n", e2e::median(setup_s),
              kReps);
  std::printf("sat_rps %.1f 1/s (closed loop over %zu requests, median of "
              "%d deployments:",
              sat_rps, plan[0].count, kReps);
  for (double r : sat_reps) std::printf(" %.1f", r);
  std::printf(")\n");
  const auto print_percentile = [&](const char* name, double qv,
                                     double e2e::Quantiles::*field) {
    std::printf("%s; median over %zu one-second windows of %d deployments:",
                e2e::describe_percentile(name, q.*field * 1e3, qv, q.n).c_str(),
                windows.size(), kReps);
    for (const auto& win : windows) std::printf(" %.3f", win.*field * 1e3);
    std::printf("\n");
  };
  print_percentile("p50_ms", 0.50, &e2e::Quantiles::p50);
  print_percentile("p95_ms", 0.95, &e2e::Quantiles::p95);
  print_percentile("p99_ms", 0.99, &e2e::Quantiles::p99);
  std::printf("  (nominal %.0f rps Poisson, %zu requests per deployment, "
              "timed from due: generator lateness + engine latency)\n",
              w.nominal_rps, nom.plan.count);
  std::printf("slo_rps %.1f 1/s (highest passing rung of %zu, limit %.0f ms "
              "at 99%%)\n",
              slo, rungs.size(), w.limit_ms);
  std::printf("peak_rss_mb %.1f MB (VmHWM after the last phase)\n", peak_rss);

  // Correctness gate (the per-phase checks already ran in run_phase).
  // The reference replay costs about as much as serving did, so it runs
  // in traced runs only; the other checks run in every run.
  if (error.empty() && args.trace) {
    const std::uint64_t served_digest =
        e2e::digest(dep.backend->process_batch(probe).functional);
    const auto t_ref = Clock::now();
    const std::uint64_t ref_digest =
        reference_digest(w, *dep.model, ds, phases, probe, tr);
    error = e2e::check_probe(served_digest, ref_digest);
    std::printf("gate: probe [%zu, %zu) digest %016" PRIx64
                " vs serial all-resident cpu replay %016" PRIx64
                " (%.2f s)\n",
                probe.begin, probe.end, served_digest, ref_digest,
                since(t_ref));
  }
  const bool correct = error.empty();
  std::printf("gate: %s\n",
              !correct     ? error.c_str()
              : args.trace ? "every request resolved once, batch logs "
                             "contiguous, probe bit-identical"
                           : "every request resolved once, batch logs "
                             "contiguous (probe replay: traced runs only)");

  if (args.trace) {
    // Per-layer metrics.
    layer.push_back({"host.spin_ms", spin_ms, "ms"});
    layer.push_back({"setup.model_s", e2e::median(model_s), "s"});
    layer.push_back({"setup.backend_s", e2e::median(backend_s), "s"});
    layer.push_back({"setup.fast_forward_s", e2e::median(ff_s), "s"});

    const auto& ns = nom.stats;
    std::size_t peak_queue = 0, peak_parallel = 0;
    double submit_blocked = 0.0;
    std::vector<double> stats_calls, lag;
    for (const auto& p : phases) {
      peak_queue = std::max(peak_queue, p.stats.peak_queue_depth);
      peak_parallel = std::max(peak_parallel, p.stats.peak_parallel_batches);
      stats_calls.push_back(p.stats_call_s);
      if (p.plan.rate_rps > 0) {
        submit_blocked += p.submit_s;
        lag.insert(lag.end(), p.lag_s.begin(), p.lag_s.end());
      }
    }
    double busy_s = 0.0;
    for (const auto& stg : ns.stage_profile.stages)
      busy_s += stg.mean_s * static_cast<double>(ns.stage_profile.batches);
    std::sort(stats_calls.begin(), stats_calls.end());
    layer.push_back({"serving.queue_wait_p50_ms", ns.p50_queue_wait_s * 1e3, "ms"});
    layer.push_back({"serving.queue_wait_p95_ms", ns.p95_queue_wait_s * 1e3, "ms"});
    layer.push_back({"serving.service_p50_ms", ns.p50_service_s * 1e3, "ms"});
    layer.push_back({"serving.service_p95_ms", ns.p95_service_s * 1e3, "ms"});
    layer.push_back({"serving.batches", static_cast<double>(ns.num_batches), "count"});
    layer.push_back({"serving.mean_batch", ns.mean_batch_size, "count"});
    layer.push_back({"serving.peak_queue_depth", static_cast<double>(peak_queue), "count"});
    layer.push_back({"serving.peak_parallel_batches", static_cast<double>(peak_parallel), "count"});
    layer.push_back({"serving.lane_busy_ratio",
                     busy_s / (nom.wall_s * static_cast<double>(w.sopts.workers)), "ratio"});
    layer.push_back({"serving.submit_blocked_s", submit_blocked, "s"});
    layer.push_back({"serving.stats_p50_ms", e2e::median(stats_calls) * 1e3, "ms"});
    layer.push_back({"serving.stats_max_ms",
                     stats_calls.empty() ? 0.0 : stats_calls.back() * 1e3, "ms"});

    const auto t_rep = Clock::now();
    const Replay rep = staged_replay(w, ds, phases, tr);
    std::printf("staged replay of %zu batches on a fresh '%s' backend "
                "(%.2f s)\n",
                rep.call_s[0].size(), w.key.c_str(), since(t_rep));
    double sum_nominal_p50 = 0.0;
    for (std::size_t k = 0; k < kReplayCalls; ++k) {
      double total = 0.0;
      for (double x : rep.call_s[k]) total += x;
      layer.push_back({std::string(kReplayNames[k]) + "_ms",
                       runtime::percentile_of(rep.call_s[k], 0.5) * 1e3, "ms"});
      layer.push_back({std::string(kReplayNames[k]) + "_total_s", total, "s"});
      sum_nominal_p50 += runtime::percentile_of(rep.nominal_s[k], 0.5);
    }
    layer.push_back({"stage.unattributed_ms",
                     (ns.p50_service_s - sum_nominal_p50) * 1e3, "ms"});
    layer.push_back({"stage.vertices_per_edge", rep.vertices_per_edge, "ratio"});

    const auto d = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(b - a);
    };
    const double hits = d(store0.hits, store1.hits);
    const double misses = d(store0.misses, store1.misses);
    layer.push_back({"store.hit_rate",
                     hits + misses > 0 ? hits / (hits + misses) : 1.0, "ratio"});
    layer.push_back({"store.misses", misses, "count"});
    layer.push_back({"store.evictions", d(store0.evictions, store1.evictions), "count"});
    layer.push_back({"store.spill_page_reads",
                     d(store0.spill_page_reads, store1.spill_page_reads), "count"});
    layer.push_back({"store.spill_page_writes",
                     d(store0.spill_page_writes, store1.spill_page_writes), "count"});
    layer.push_back({"store.writeback_invalidations",
                     d(store0.writeback_invalidations, store1.writeback_invalidations),
                     "count"});
    layer.push_back({"store.io_retries", d(store0.io_retries, store1.io_retries), "count"});

    const KernelProbe kp = kernel_probe(
        *dep.model, static_cast<std::size_t>(std::llround(rep.mean_unique)));
    std::printf("kernels at %zu rows (mean unique vertices per served "
                "batch): gru_forward_into %.0f ns/call %.2f GFLOP/s, "
                "affine_into %.0f ns/call %.2f GFLOP/s (FLOPs computed from "
                "tensor shapes, not measured by counters)\n",
                kp.rows, kp.gru_ns, kp.gru_gflops, kp.affine_ns,
                kp.affine_gflops);
    layer.push_back({"kernels.gru_ns", kp.gru_ns, "ns"});
    layer.push_back({"kernels.gru_gflops", kp.gru_gflops, "GFLOP/s"});
    layer.push_back({"kernels.affine_ns", kp.affine_ns, "ns"});
    layer.push_back({"kernels.affine_gflops", kp.affine_gflops, "GFLOP/s"});

    layer.push_back({"mem.rss_anon_mb", rss_anon, "MB"});
    layer.push_back({"mem.rss_file_mb", rss_file, "MB"});
    layer.push_back({"mem.serve_growth_mb", rss_after - rss_before, "MB"});

    const double sent = static_cast<double>(attempted);
    layer.push_back({"load.gen_lag_p99_ms",
                     runtime::percentile_of(lag, 0.99) * 1e3, "ms"});
    layer.push_back({"load.sent", sent, "count"});
    layer.push_back({"load.failed", sent - static_cast<double>(served), "count"});

    // This run's end-to-end numbers, measured with tracing on: set against
    // the untraced median they give the tracing overhead.
    for (const auto& m : e2e_metrics)
      layer.push_back({"traced." + m.name, m.value, m.unit});
    std::printf("tracing: %zu spans recorded\n", tr.size());
    if (!args.trace_file.empty()) {
      if (tr.write_chrome(args.trace_file))
        std::printf("trace written to %s\n", args.trace_file.c_str());
      else
        std::printf("trace: cannot write %s\n", args.trace_file.c_str());
    }
  }

  for (const auto& m : args.trace ? layer : e2e_metrics)
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  std::printf("%s\n", e2e::result_json(correct, attempted,
                                       attempted - served,
                                       args.trace ? layer : e2e_metrics)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
    (void)make_workload(args.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 2;
  }
  return run(args);
}
