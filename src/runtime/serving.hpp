// Online serving on top of a runtime Backend — the piece that turns the
// repo from an offline replayer into a serving-shaped system.
//
// Callers submit individual edge events (stream indices, in chronological
// order — the fraud-detection / recommendation request pattern of §II-A). A
// dedicated scheduler thread coalesces pending requests into micro-batches
// and dispatches them to the backend when either
//   * `max_batch` requests are pending (batch-size cap), or
//   * the oldest pending request has waited `max_wait_s` (latency flush).
//
// One admission core with one executor. The scheduler thread waits for a
// free slot, forms the next batch, acquires its footprint in the conflict
// ledger, hands the slot to a whole-batch lane, and the lane retires it.
// Batches are formed and admitted in strict stream order, and a batch is
// admitted only once its WRITE footprint (edge endpoints) is disjoint from
// every in-flight batch's; head-of-line admission therefore serializes any
// two batches sharing a vertex in stream order, so per-vertex state writes
// stay chronological — the guarantee Algorithm 1 needs, and the one the
// paper's hardware Updater exploits instead of serializing globally.
// `workers == 1` (the default) is one lane, run on the scheduler thread: a
// strict serial executor that still amortizes per-batch overhead, the
// latency/throughput trade the paper sweeps in Fig. 5. `workers > 1`
// requires a ConcurrentBackend ("sharded-cpu") and runs disjoint batches
// on parallel pool lanes. Two conflict policies when more than one lane
// exists:
//   * relaxed (default): only write footprints are kept disjoint; a batch
//     may read a neighbor's memory while another in-flight batch — earlier
//     OR later in stream order — updates it (race-free via shard locks, but
//     either the pre- or post-update row may be seen).
//   * deterministic: READ footprints (sampled neighbors) are tracked too,
//     so no in-flight batch observes another's effects — bit-identical to
//     the serial "cpu" backend.
//
// The submit queue is bounded: what happens when it fills is the
// engine's admission policy (overload behavior under §II-A's bursty
// request arrivals):
//   * kBlock (default): submit() blocks until space frees — backpressure
//     instead of unbounded growth; today's behavior.
//   * kShed: submit() waits at most `shed_wait_s`, then REJECTS the
//     request with a typed RequestOutcome::kShed — the request is consumed
//     (the stream cursor advances past it) and the engine stays
//     responsive instead of propagating the stall upstream.
//   * kDeadline: submit() blocks like kBlock, but a request whose queue
//     wait exceeds `deadline_s` is dropped BEFORE dispatch with
//     RequestOutcome::kExpired — a request that already blew its latency
//     budget is worthless to serve, and dropping it lets the queue clear.
// try_submit() (never blocks) and the timed submit() overload (bounded
// wait, request NOT consumed on timeout) exist for callers that manage
// their own admission.
//
// Under sustained overload the engine can optionally degrade gracefully:
// when the queue stays above `degrade_high` of capacity for
// `degrade_patience` consecutive batch formations it steps the backend's
// numeric mode down one rung (fp32 -> bf16 -> int8, via
// Backend::set_precision at a quiescent point), and steps back up when
// the queue stays below `degrade_low` — trading accuracy for throughput
// exactly along the quantization ladder of the inference path. Flips are
// journaled in tuning_log().
//
// Faults: every batch execution runs under a retry envelope. A transient
// util::InjectedFault is retried up to `fault_retries` times with
// exponential backoff; a permanent fault (or exhausted retries, or any
// other exception) fails the BATCH — its requests end in
// RequestOutcome::kFailed, the conflict ledger is unwound, and the engine
// keeps serving. Nothing deadlocks, and the stage-execution fault site
// precedes the batch, so a batch failed there commits nothing.
//
// Every completed batch also feeds a low-overhead per-stage profiler
// (perf::StageProfiler — EWMA + windowed percentiles over the four
// core::Stage times, gather fan-out, queue depth), exposed via
// ServingStats::stage_profile and the per-stage percentile fields.
//
// Per-request latency = queueing wait (measured) + batch service latency
// (the backend's measured or modelled latency_s), so percentiles are
// meaningful for simulated platforms too; the two components are also
// tracked separately (ServingStats queue/service percentiles) so batching
// delay and compute are separable, as in the paper's Fig. 5 trade.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "perf/stage_profile.hpp"
#include "runtime/backend.hpp"
#include "runtime/stream_result.hpp"
#include "util/mutex.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_annotations.hpp"
#include "util/threadpool.hpp"

namespace tgnn::runtime {

/// What submit() does when the bounded queue is full (see file comment).
enum class AdmissionPolicy : std::uint8_t {
  kBlock = 0,     ///< block until space frees (backpressure)
  kShed = 1,      ///< wait shed_wait_s, then reject with kShed
  kDeadline = 2,  ///< block, but drop requests whose queue wait exceeds
                  ///< deadline_s before dispatch (kExpired)
};

struct ServingOptions {
  std::size_t max_batch = 256;       ///< micro-batch size cap
  double max_wait_s = 2e-3;          ///< oldest-request age that forces a flush
  std::size_t queue_capacity = 4096; ///< bounded queue (submit backpressure)
  std::size_t workers = 1;   ///< parallel dispatch lanes; > 1 requires a
                             ///< ConcurrentBackend (clamped to its lanes())
  bool deterministic = false;  ///< track read footprints too: bit-identical
                               ///< to serial execution (one lane is
                               ///< serial already)

  // ---- Overload admission (see file comment) --------------------------
  AdmissionPolicy admission = AdmissionPolicy::kBlock;
  double shed_wait_s = 0.0;  ///< kShed: bounded wait before rejecting
  double deadline_s = 10e-3; ///< kDeadline: queue-wait budget before a
                             ///< pending request is dropped undispatched

  // ---- Graceful degradation under sustained overload ------------------
  bool degrade_under_overload = false;  ///< step fp32->bf16->int8 when the
                                        ///< queue stays pressured
  double degrade_high = 0.75;  ///< queue fill ratio that counts as pressure
  double degrade_low = 0.25;   ///< queue fill ratio that counts as clear
  std::size_t degrade_patience = 4;  ///< consecutive pressured (clear) batch
                                     ///< formations before stepping down (up)

  // ---- Fault handling -------------------------------------------------
  std::size_t fault_retries = 3;   ///< transient-fault retries per batch
  double retry_backoff_s = 1e-4;   ///< backoff base (doubles per attempt)
};

struct ServingStats {
  std::size_t num_requests = 0;
  std::size_t num_batches = 0;
  double p50_latency_s = 0.0;
  double p95_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double max_latency_s = 0.0;
  /// End-to-end latency split: time spent waiting for the micro-batch to
  /// form/dispatch vs the batch's service (compute) time.
  double p50_queue_wait_s = 0.0;
  double p95_queue_wait_s = 0.0;
  double p50_service_s = 0.0;
  double p95_service_s = 0.0;
  double throughput_rps = 0.0;  ///< requests per wall-clock second
  double mean_batch_size = 0.0;
  /// Most batches ever executing at once (1 in serial mode; > 1 proves
  /// disjoint-footprint batches actually overlapped on worker lanes).
  std::size_t peak_parallel_batches = 0;
  /// Occupancy gauges: most batches ever formed-but-incomplete (lane
  /// occupancy incl. a batch waiting on the hazard check) and most
  /// requests ever pending in the submit queue.
  std::size_t peak_in_flight_batches = 0;
  std::size_t peak_queue_depth = 0;
  /// Overload / fault disposition counters. num_requests counts SERVED
  /// requests only (they alone have latency samples); every submitted
  /// request ends up in exactly one of served/shed/expired/failed.
  std::size_t num_shed = 0;      ///< rejected at admission (kShed)
  std::size_t num_expired = 0;   ///< dropped before dispatch (kDeadline)
  std::size_t num_failed = 0;    ///< batch failed permanently (faults)
  std::size_t degrade_steps = 0; ///< precision downshifts taken so far
  std::size_t fault_retries = 0; ///< transient faults absorbed by retry
  /// Numeric mode the backend is serving at right now (moves along the
  /// fp32 -> bf16 -> int8 ladder when degradation is on).
  kernels::Precision precision = kernels::Precision::kFp32;
  /// Out-of-core vertex-store counters (hit/miss/eviction/spill traffic,
  /// write-back invalidations, spill I/O retries and permanent failures),
  /// queried from the backend at stats() time.
  /// All-zero when serving all-resident.
  graph::VertexStoreStats store;
  /// Per-stage per-batch time percentiles (core::Stage order: MemoryUpdate,
  /// NeighborGather, GnnCompute, Decode) over every completed batch —
  /// which stage the workload actually bottlenecks on, not just the
  /// aggregate service time, attributed via the PartTimes buckets (see
  /// perf/stage_profile.hpp for the convention).
  std::array<double, core::kNumStages> p50_stage_s{};
  std::array<double, core::kNumStages> p95_stage_s{};
  /// The live stage profile (EWMA means, windowed percentiles, fan-out,
  /// queue depth).
  perf::StageProfile stage_profile;
  /// Multi-line human-readable summary: throughput, latency percentiles,
  /// per-stage breakdown, degradation state.
  [[nodiscard]] std::string describe() const;
};

/// One precision-ladder flip, journaled in ServingEngine::tuning_log().
struct TuningEvent {
  enum class Kind : std::uint8_t { kPrecision = 0 };
  std::size_t at_batch = 0;  ///< batches dispatched when the flip happened
  Kind kind = Kind::kPrecision;
  std::size_t value = 0;  ///< the new kernels::Precision value
};

/// One request's terminal disposition, in resolution order (the order
/// outcomes were decided, not submission order — a shed is resolved at
/// submit time, a served request at batch completion).
struct OutcomeRecord {
  std::size_t index;        ///< the request's stream index
  RequestOutcome outcome;
};

/// Hazard-ledger audit primitive: TGNN_CHECK-aborts unless every vertex id
/// appears in at most one of the given footprints — the disjointness that
/// head-of-line admission is supposed to maintain across in-flight batches,
/// restated as an executable contract over the raw footprints instead of
/// the mark counters it normally trusts. A checked build
/// (-DTGNN_CHECKED=ON) runs it over the engine's occupied slots after
/// every admission.
void audit_disjoint_footprints(
    std::span<const std::span<const graph::NodeId>> footprints);

class ServingEngine {
 public:
  /// The backend must outlive the engine. Warm it up (or reset it) before
  /// construction; the engine owns it exclusively while alive. Throws
  /// std::invalid_argument when opts.workers > 1 and the backend is not a
  /// ConcurrentBackend.
  explicit ServingEngine(Backend& backend, ServingOptions opts = {});
  /// stop()s, draining outstanding requests first.
  ~ServingEngine();

  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  /// Enqueue one edge event. Indices must arrive in stream order (each call
  /// passes the successor of the previous index; the first call sets the
  /// origin) — out-of-order submission throws std::invalid_argument.
  /// Throws std::logic_error after stop().
  ///
  /// Queue-full behavior follows opts.admission: kBlock and kDeadline
  /// block until space frees (always returns true); kShed waits at most
  /// opts.shed_wait_s and then CONSUMES the request as shed — returns
  /// false, the outcome is recorded as kShed, and the next submit must
  /// pass the successor index.
  bool submit(std::size_t edge_index) TGNN_EXCLUDES(mu_);

  /// Bounded-wait admission: like submit(), but waits at most `timeout_s`
  /// for queue space. Returns false when the timeout elapses with the
  /// queue still full — the request is NOT consumed (regardless of the
  /// admission policy), so the caller may retry or shed it itself.
  bool submit(std::size_t edge_index, double timeout_s) TGNN_EXCLUDES(mu_);

  /// Non-blocking admission: enqueue if there is space right now, else
  /// return false WITHOUT consuming the request (the caller may retry the
  /// same index). Same ordering/stopped checks as submit().
  bool try_submit(std::size_t edge_index) TGNN_EXCLUDES(mu_);

  /// Block until every submitted request has been dispatched and completed.
  /// Pending partial batches are force-flushed rather than waiting out the
  /// remainder of their max_wait deadline.
  void drain() TGNN_EXCLUDES(mu_);

  /// Graceful shutdown: everything submitted so far — including batches
  /// still executing — is flushed, executed in stream order, and recorded;
  /// then the scheduler (and any lanes) exit. No batch runs
  /// twice, and nothing is dropped silently: under kDeadline, requests
  /// already past their budget still expire with a typed outcome rather
  /// than being served late. Idempotent; further submits throw. The
  /// destructor calls this.
  void stop() TGNN_EXCLUDES(mu_);

  /// Aggregate latency/throughput statistics over everything served so far.
  [[nodiscard]] ServingStats stats() const TGNN_EXCLUDES(mu_);

  /// Per-request end-to-end latencies, in completion order.
  [[nodiscard]] std::vector<double> request_latency_s() const
      TGNN_EXCLUDES(mu_);
  /// Dispatched micro-batches, in dispatch (= chronological) order.
  [[nodiscard]] std::vector<graph::BatchRange> batch_log() const
      TGNN_EXCLUDES(mu_);
  /// Terminal disposition of every resolved request, in resolution order.
  [[nodiscard]] std::vector<OutcomeRecord> outcome_log() const
      TGNN_EXCLUDES(mu_);
  /// Precision-ladder flips, in the order taken.
  [[nodiscard]] std::vector<TuningEvent> tuning_log() const
      TGNN_EXCLUDES(mu_);
  /// Message of the most recent permanent batch failure ("" when none).
  [[nodiscard]] std::string last_error() const TGNN_EXCLUDES(mu_);

  /// Snapshot the backend's runtime state (memory / mailbox / neighbor
  /// table, including spilled pages) plus the stream cursor to `path`.
  /// Drains first so the snapshot is quiescent; returns the cursor — the
  /// stream index the restored engine must be fed next. Throws
  /// std::logic_error when the backend exposes no runtime state and
  /// std::runtime_error when the write fails. The engine keeps serving
  /// afterwards.
  std::uint64_t checkpoint(const std::string& path) TGNN_EXCLUDES(mu_);

  /// Worker lanes actually in use (opts.workers clamped to backend lanes).
  [[nodiscard]] std::size_t workers() const { return workers_; }

 private:
  /// The batch a lane serves, from admission to retire.
  /// An occupied slot is exactly one whose write footprint is still
  /// stored, which is what the checked-build hazard audit keys on.
  struct SlotMeta {
    std::vector<graph::NodeId> wfp, rfp;  ///< marked footprints to release
    std::vector<double> arrivals;
    graph::BatchRange range;
    double dispatch_s = 0.0;
  };

  /// The admission core: wait for a free slot, form the next batch, wait
  /// until its footprints are hazard-free, acquire them, and hand the slot
  /// to a lane — until stopping with an empty queue.
  void scheduler_loop() TGNN_EXCLUDES(mu_);
  /// Mark the hazard-free `batch`'s footprints in the ledger and swap it
  /// into a free slot (returned; one must exist).
  std::size_t acquire(SlotMeta& batch) TGNN_REQUIRES(mu_);
  /// The executor: one process_batch call on the slot's lane, then retire.
  void run_lane(std::size_t slot, graph::BatchRange range) TGNN_EXCLUDES(mu_);
  /// The one completion path: release the slot's marks, record (ok) or
  /// fail the batch's requests, free the slot, and signal completion.
  void retire(std::size_t slot, bool ok,
              const std::array<double, core::kNumStages>& stage_s,
              double service_s) TGNN_EXCLUDES(mu_);
  /// Pop the next micro-batch (held open per max_batch/max_wait/flush)
  /// into `batch`'s range and arrivals, under `lk` (which must hold mu_);
  /// returns false when stopping with an empty queue.
  bool next_batch(util::MutexLock& lk, SlotMeta& batch) TGNN_REQUIRES(mu_);
  /// Shared submit tail: stamp the arrival, enqueue, advance the cursor.
  void enqueue_locked(std::size_t edge_index) TGNN_REQUIRES(mu_);
  /// Order/stopped preconditions every admission entry point shares.
  void check_submit_locked(std::size_t edge_index) const TGNN_REQUIRES(mu_);
  /// Wait up to timeout_s for queue space; false on timeout or stop.
  bool wait_for_space(util::MutexLock& lk, double timeout_s)
      TGNN_REQUIRES(mu_);
  /// Leading contiguous-index run of the queue, capped at max_batch — the
  /// largest batch the front of the queue can form (shed / expired
  /// requests leave index gaps, and a BatchRange must be contiguous).
  [[nodiscard]] std::size_t contiguous_run_locked() const TGNN_REQUIRES(mu_);
  /// kDeadline: drop the expired prefix of the queue (arrivals are
  /// monotone, so the expired set is exactly a prefix).
  void expire_stale_locked() TGNN_REQUIRES(mu_);
  /// Degradation hysteresis, evaluated at each batch formation; steps the
  /// backend's precision only at a quiescent point (the batch just formed
  /// is the sole in-flight work and nothing is dispatched).
  void maybe_degrade() TGNN_REQUIRES(mu_);
  /// Runs `op` under the transient-fault retry envelope (fault_retries,
  /// exponential backoff). False on permanent failure; last_error_ set.
  bool run_with_retries(const std::function<void()>& op) TGNN_EXCLUDES(mu_);
  /// Checked-build hazard audit: rebuilds the in-flight picture from the
  /// occupied slots' stored write footprints (a slot is occupied
  /// iff its SlotMeta still holds one) and TGNN_CHECKs they are pairwise
  /// disjoint — catching a ledger desync (mark leak, footprint drift, slot
  /// reuse before release) the counters alone would hide.
  void audit_in_flight_footprints() const TGNN_REQUIRES(mu_);

  Backend& backend_;
  ConcurrentBackend* concurrent_ = nullptr;  ///< any ConcurrentBackend;
                                             ///< lanes use it when > 1
  const ServingOptions opts_;
  std::size_t workers_ = 1;
  const bool track_reads_;  ///< read-footprint admission on
                           ///< (deterministic with > 1 lane)

  mutable util::Mutex mu_;
  util::CondVar cv_submit_;  ///< signals: new request or stop
  util::CondVar cv_state_;   ///< signals: queue space / batch retired

  struct Pending {
    std::size_t index;
    double arrival_s;
  };
  std::deque<Pending> queue_ TGNN_GUARDED_BY(mu_);
  bool stop_ TGNN_GUARDED_BY(mu_) = false;
  /// Drain requested: dispatch without waiting.
  bool flush_ TGNN_GUARDED_BY(mu_) = false;
  /// Batches formed or executing.
  std::size_t in_flight_ TGNN_GUARDED_BY(mu_) = 0;
  /// Gauge: occupied-slot high-water (batches executing at once).
  std::size_t peak_executing_ TGNN_GUARDED_BY(mu_) = 0;
  /// Gauge: in_flight_ high-water.
  std::size_t peak_in_flight_ TGNN_GUARDED_BY(mu_) = 0;
  /// Gauge: submit queue high-water.
  std::size_t peak_queue_depth_ TGNN_GUARDED_BY(mu_) = 0;
  bool have_origin_ TGNN_GUARDED_BY(mu_) = false;
  /// Required index of the next submit.
  std::size_t next_index_ TGNN_GUARDED_BY(mu_) = 0;

  // Overload / fault disposition state.
  std::vector<OutcomeRecord> outcomes_ TGNN_GUARDED_BY(mu_);
  std::size_t shed_ TGNN_GUARDED_BY(mu_) = 0;
  std::size_t expired_ TGNN_GUARDED_BY(mu_) = 0;
  std::size_t failed_ TGNN_GUARDED_BY(mu_) = 0;
  std::size_t fault_retries_ TGNN_GUARDED_BY(mu_) = 0;
  std::string last_error_ TGNN_GUARDED_BY(mu_);

  // Stage profiling, fed under mu_ by retire.
  perf::StageProfiler profiler_ TGNN_GUARDED_BY(mu_);
  std::array<std::vector<double>, core::kNumStages> stage_samples_
      TGNN_GUARDED_BY(mu_);

  // Degradation ladder (built from the backend's base precision at
  // construction; shrunk to one rung when the backend refuses the flip),
  // the hysteresis run counters, and the journal of flips taken.
  std::vector<kernels::Precision> ladder_ TGNN_GUARDED_BY(mu_);
  std::size_t degrade_level_ TGNN_GUARDED_BY(mu_) = 0;
  std::size_t degrade_steps_ TGNN_GUARDED_BY(mu_) = 0;
  std::size_t pressure_run_ TGNN_GUARDED_BY(mu_) = 0;
  std::size_t clear_run_ TGNN_GUARDED_BY(mu_) = 0;
  std::vector<TuningEvent> tuning_log_ TGNN_GUARDED_BY(mu_);

  // Conflict ledger (incremented at acquire, decremented at retire):
  // write = batch endpoints; full = endpoints + tracked neighbor reads.
  std::vector<std::uint32_t> write_marks_ TGNN_GUARDED_BY(mu_);
  std::vector<std::uint32_t> full_marks_ TGNN_GUARDED_BY(mu_);
  /// The slot table: one entry per lane; free_slots_ lists the
  /// unoccupied ones.
  std::vector<SlotMeta> slot_meta_ TGNN_GUARDED_BY(mu_);
  std::vector<std::size_t> free_slots_ TGNN_GUARDED_BY(mu_);

  Stopwatch clock_;
  std::vector<double> latencies_ TGNN_GUARDED_BY(mu_);
  std::vector<double> queue_waits_ TGNN_GUARDED_BY(mu_);
  std::vector<double> services_ TGNN_GUARDED_BY(mu_);
  std::vector<graph::BatchRange> batches_ TGNN_GUARDED_BY(mu_);
  double first_submit_s_ TGNN_GUARDED_BY(mu_) = -1.0;
  double last_done_s_ TGNN_GUARDED_BY(mu_) = 0.0;

  /// Runs scheduler_loop plus the lanes when workers_ > 1 (a single lane
  /// runs on the scheduler thread).
  ThreadPool pool_;
};

/// Restore a ServingEngine::checkpoint into `backend` — load the saved
/// runtime state over the backend's (shapes must match) and return the
/// stream cursor: the index the first submit to a new engine over this
/// backend must pass. Call BEFORE constructing the engine (the first
/// submit sets its origin, so serving resumes exactly where the
/// checkpointed engine left off). Throws std::logic_error when the
/// backend exposes no runtime state, std::runtime_error on a missing /
/// mismatched / corrupt checkpoint.
std::uint64_t restore_backend(Backend& backend, const std::string& path);

}  // namespace tgnn::runtime
