#include "runtime/serving.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <unordered_set>

#include "kernels/quant.hpp"
#include "tgnn/serialize.hpp"
#include "util/check.hpp"
#include "util/fault_injector.hpp"

namespace tgnn::runtime {

namespace {

/// Lanes actually usable: opts.workers clamped to the backend's lane count
/// (1 when the backend has no concurrent contract).
std::size_t resolve_workers(const ServingOptions& opts,
                            const ConcurrentBackend* cb) {
  if (opts.workers <= 1 || cb == nullptr) return 1;
  return std::min(opts.workers, cb->lanes());
}

/// True when no id is marked in the conflict ledger.
bool disjoint(const std::vector<graph::NodeId>& ids,
              const std::vector<std::uint32_t>& marks) {
  return std::all_of(ids.begin(), ids.end(),
                     [&](graph::NodeId v) { return marks[v] == 0; });
}

/// The batch's WRITE footprint: its edge endpoints, deduplicated, straight
/// off the immutable stream (safe to compute any time).
void write_footprint(const graph::TemporalGraph& g,
                     const graph::BatchRange& range,
                     std::vector<graph::NodeId>& wfp) {
  wfp.clear();
  for (const auto& e : g.edges(range)) {
    wfp.push_back(e.src);
    wfp.push_back(e.dst);
  }
  std::sort(wfp.begin(), wfp.end());
  wfp.erase(std::unique(wfp.begin(), wfp.end()), wfp.end());
}

/// PartTimes buckets in core::Stage order (memory -> MemoryUpdate,
/// sample -> NeighborGather, gnn -> GnnCompute, update -> Decode); see
/// perf/stage_profile.hpp for the attribution convention.
std::array<double, core::kNumStages> stage_array(const core::PartTimes& p) {
  return {p.memory, p.sample, p.gnn, p.update};
}

}  // namespace

std::string ServingStats::describe() const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof buf,
                "%zu requests in %zu batches (mean %.1f/batch), %.0f req/s, "
                "latency p50/p95/p99 %.2f/%.2f/%.2f ms\n",
                num_requests, num_batches, mean_batch_size, throughput_rps,
                p50_latency_s * 1e3, p95_latency_s * 1e3, p99_latency_s * 1e3);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "  queue wait p50 %.2f ms, service p50 %.2f ms; stage "
                "p50/p95 ms:",
                p50_queue_wait_s * 1e3, p50_service_s * 1e3);
  out += buf;
  for (std::size_t k = 0; k < core::kNumStages; ++k) {
    std::snprintf(buf, sizeof buf, " %s %.2f/%.2f",
                  perf::stage_name(k), p50_stage_s[k] * 1e3,
                  p95_stage_s[k] * 1e3);
    out += buf;
  }
  out += '\n';
  std::snprintf(buf, sizeof buf, "  precision %s, %zu degrade step(s)\n",
                kernels::precision_name(precision), degrade_steps);
  out += buf;
  if (stage_profile.batches > 0) out += stage_profile.describe();
  return out;
}

void audit_disjoint_footprints(
    std::span<const std::span<const graph::NodeId>> footprints) {
  std::unordered_set<graph::NodeId> seen;
  std::size_t total = 0;
  for (const auto& fp : footprints) total += fp.size();
  seen.reserve(total);
  for (const auto& fp : footprints)
    for (const graph::NodeId v : fp)
      TGNN_CHECK(seen.insert(v).second,
                 "hazard audit: vertex " + std::to_string(v) +
                     " appears in two in-flight footprints");
}

void ServingEngine::audit_in_flight_footprints() const {
  std::vector<std::span<const graph::NodeId>> occupied;
  occupied.reserve(slot_meta_.size());
  for (const SlotMeta& meta : slot_meta_)
    if (!meta.wfp.empty()) occupied.push_back(meta.wfp);
  // Cross-check the occupancy notion against the free-slot list before the
  // disjointness pass: every slot is either free or holds a footprint.
  TGNN_CHECK(occupied.size() + free_slots_.size() == slot_meta_.size(),
             "hazard audit: occupied slots + free slots != slot count");
  audit_disjoint_footprints(occupied);
}

ServingEngine::ServingEngine(Backend& backend, ServingOptions opts)
    : backend_(backend),
      concurrent_(dynamic_cast<ConcurrentBackend*>(&backend)),
      opts_(opts),
      workers_(resolve_workers(opts, concurrent_)),
      track_reads_(opts.deterministic && workers_ > 1),
      pool_(workers_ > 1 ? 1 + workers_ : 1) {
  if (opts_.max_batch == 0)
    throw std::invalid_argument("ServingEngine: max_batch must be > 0");
  if (opts_.queue_capacity == 0)
    throw std::invalid_argument("ServingEngine: queue_capacity must be > 0");
  if (opts_.workers > 1 && concurrent_ == nullptr)
    throw std::invalid_argument(
        "ServingEngine: workers > 1 requires a ConcurrentBackend "
        "(e.g. \"sharded-cpu\"); backend '" +
        backend_.name() + "' is not one");
  if (opts_.admission == AdmissionPolicy::kShed && opts_.shed_wait_s < 0.0)
    throw std::invalid_argument("ServingEngine: shed_wait_s must be >= 0");
  if (opts_.admission == AdmissionPolicy::kDeadline && opts_.deadline_s <= 0.0)
    throw std::invalid_argument("ServingEngine: deadline_s must be > 0");
  if (opts_.degrade_under_overload &&
      !(opts_.degrade_low < opts_.degrade_high))
    throw std::invalid_argument(
        "ServingEngine: degrade_low must be < degrade_high");
  {
    // The executor threads don't exist yet, but initializing the guarded
    // state under the lock keeps every write inside the capability.
    util::MutexLock lk(mu_);
    // Degradation ladder, anchored at the backend's base numeric mode.
    // One rung means "never degrade" — either the option is off or the
    // backend already serves int8.
    ladder_.push_back(backend_.precision());
    if (opts_.degrade_under_overload) {
      if (ladder_.front() == kernels::Precision::kFp32)
        ladder_.push_back(kernels::Precision::kBf16);
      if (ladder_.front() != kernels::Precision::kInt8)
        ladder_.push_back(kernels::Precision::kInt8);
    }
    const auto num_nodes = backend_.dataset().graph.num_nodes();
    write_marks_.assign(num_nodes, 0);
    full_marks_.assign(num_nodes, 0);
    for (std::size_t s = workers_; s-- > 0;) free_slots_.push_back(s);
    slot_meta_.assign(workers_, SlotMeta{});
  }
  pool_.submit([this] { scheduler_loop(); });
}

ServingEngine::~ServingEngine() { stop(); }

void ServingEngine::stop() {
  {
    util::MutexLock lk(mu_);
    stop_ = true;
  }
  cv_submit_.notify_all();
  cv_state_.notify_all();  // release submitters blocked on queue capacity
  // The scheduler flushes and completes everything still queued or
  // executing (next_batch keeps handing out batches until the queue is
  // empty) and the pool finishes its lanes — so this returns only after
  // every submitted request has been resolved.
  pool_.wait_idle();
}

void ServingEngine::check_submit_locked(std::size_t edge_index) const {
  if (stop_)
    throw std::logic_error("ServingEngine::submit: engine is stopped");
  if (have_origin_ && edge_index != next_index_)
    throw std::invalid_argument(
        "ServingEngine::submit: requests must arrive in stream order (got " +
        std::to_string(edge_index) + ", expected " +
        std::to_string(next_index_) + ")");
}

void ServingEngine::enqueue_locked(std::size_t edge_index) {
  have_origin_ = true;
  next_index_ = edge_index + 1;
  const double now = clock_.seconds();
  if (first_submit_s_ < 0.0) first_submit_s_ = now;
  queue_.push_back({edge_index, now});
  peak_queue_depth_ = std::max(peak_queue_depth_, queue_.size());
  cv_submit_.notify_all();
}

bool ServingEngine::wait_for_space(util::MutexLock& lk, double timeout_s) {
  if (queue_.size() < opts_.queue_capacity) return true;
  const double deadline = clock_.seconds() + std::max(timeout_s, 0.0);
  while (!stop_ && queue_.size() >= opts_.queue_capacity) {
    const double remaining = deadline - clock_.seconds();
    if (remaining <= 0.0) return false;
    cv_state_.wait_for(lk, std::chrono::duration<double>(remaining));
  }
  return !stop_ && queue_.size() < opts_.queue_capacity;
}

bool ServingEngine::submit(std::size_t edge_index) {
  util::MutexLock lk(mu_);
  check_submit_locked(edge_index);
  if (opts_.admission == AdmissionPolicy::kShed) {
    if (!wait_for_space(lk, opts_.shed_wait_s)) {
      if (stop_)
        throw std::logic_error("ServingEngine::submit: engine is stopped");
      // Queue still full after the bounded wait: shed. The request is
      // CONSUMED — the cursor advances so the stream stays in order and
      // the caller moves on to the successor index.
      have_origin_ = true;
      next_index_ = edge_index + 1;
      outcomes_.push_back({edge_index, RequestOutcome::kShed});
      ++shed_;
      return false;
    }
  } else {
    while (!stop_ && queue_.size() >= opts_.queue_capacity) cv_state_.wait(lk);
  }
  if (stop_)
    throw std::logic_error("ServingEngine::submit: engine is stopped");
  enqueue_locked(edge_index);
  return true;
}

bool ServingEngine::submit(std::size_t edge_index, double timeout_s) {
  util::MutexLock lk(mu_);
  check_submit_locked(edge_index);
  if (!wait_for_space(lk, timeout_s)) {
    if (stop_)
      throw std::logic_error("ServingEngine::submit: engine is stopped");
    return false;  // timed out; NOT consumed — the caller may retry
  }
  enqueue_locked(edge_index);
  return true;
}

bool ServingEngine::try_submit(std::size_t edge_index) {
  util::MutexLock lk(mu_);
  check_submit_locked(edge_index);
  if (queue_.size() >= opts_.queue_capacity) return false;  // NOT consumed
  enqueue_locked(edge_index);
  return true;
}

void ServingEngine::drain() {
  util::MutexLock lk(mu_);
  // Force-flush whatever is pending instead of letting a partial batch sit
  // out the remainder of its max_wait deadline.
  if (!queue_.empty()) {
    flush_ = true;
    cv_submit_.notify_all();
  }
  while (!queue_.empty() || in_flight_ != 0) cv_state_.wait(lk);
}

std::size_t ServingEngine::contiguous_run_locked() const {
  std::size_t n = 1;
  while (n < queue_.size() && n < opts_.max_batch &&
         queue_[n].index == queue_[n - 1].index + 1)
    ++n;
  return n;
}

void ServingEngine::expire_stale_locked() {
  const double now = clock_.seconds();
  bool dropped = false;
  while (!queue_.empty() &&
         now - queue_.front().arrival_s > opts_.deadline_s) {
    outcomes_.push_back({queue_.front().index, RequestOutcome::kExpired});
    ++expired_;
    queue_.pop_front();
    dropped = true;
  }
  // Space freed: wake blocked submitters, and a drain() whose last pending
  // requests just expired.
  if (dropped) cv_state_.notify_all();
}

bool ServingEngine::next_batch(util::MutexLock& lk, SlotMeta& batch) {
  for (;;) {
    while (!stop_ && queue_.empty()) cv_submit_.wait(lk);
    if (queue_.empty()) return false;  // only reachable when stopping

    // kDeadline: a request whose queue wait already exceeds the budget is
    // dropped before dispatch (also during drain/stop — serving it late
    // would be worse than the typed drop). Arrival times are monotone, so
    // the expired set is exactly a prefix.
    if (opts_.admission == AdmissionPolicy::kDeadline) {
      expire_stale_locked();
      if (queue_.empty()) continue;  // everything pending had expired
    }

    // Coalesce: hold the batch open until the leading contiguous run is
    // full, the oldest pending request hits the flush deadline, or a
    // drain/stop forces a flush. An index gap (left by a shed request)
    // caps the batch early — a BatchRange must be contiguous and the run
    // cannot grow past the gap. Under kDeadline the wait is also bounded
    // by the front request's remaining budget so expiry happens on time.
    bool expired_front = false;
    while (!stop_ && !flush_) {
      const std::size_t run = contiguous_run_locked();
      if (run >= opts_.max_batch) break;
      if (run < queue_.size()) break;  // gap: waiting cannot extend the run
      const double age = clock_.seconds() - queue_.front().arrival_s;
      double remaining = opts_.max_wait_s - age;
      if (opts_.admission == AdmissionPolicy::kDeadline) {
        const double budget = opts_.deadline_s - age;
        if (budget <= 0.0) {
          expired_front = true;
          break;
        }
        remaining = std::min(remaining, budget);
      }
      if (remaining <= 0.0) break;
      cv_submit_.wait_for(lk, std::chrono::duration<double>(remaining));
    }
    if (expired_front) continue;  // sweep the expired prefix, then re-form

    const std::size_t n = contiguous_run_locked();
    batch.range = {queue_.front().index, queue_.front().index + n};
    batch.arrivals.clear();
    batch.arrivals.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch.arrivals.push_back(queue_.front().arrival_s);
      queue_.pop_front();
    }
    if (queue_.empty()) flush_ = false;  // forced flush fully served
    ++in_flight_;                        // formed => counted until completed
    peak_in_flight_ = std::max(peak_in_flight_, in_flight_);
    maybe_degrade();
    cv_state_.notify_all();  // queue space freed for blocked submitters
    return true;
  }
}

void ServingEngine::maybe_degrade() {
  if (ladder_.size() <= 1) return;  // off, or backend cannot degrade
  const double fill = static_cast<double>(queue_.size()) /
                      static_cast<double>(opts_.queue_capacity);
  if (fill >= opts_.degrade_high) {
    ++pressure_run_;
    clear_run_ = 0;
  } else if (fill <= opts_.degrade_low) {
    ++clear_run_;
    pressure_run_ = 0;
  } else {
    pressure_run_ = 0;
    clear_run_ = 0;
  }
  std::size_t target = degrade_level_;
  if (pressure_run_ >= opts_.degrade_patience &&
      degrade_level_ + 1 < ladder_.size())
    target = degrade_level_ + 1;
  else if (clear_run_ >= opts_.degrade_patience && degrade_level_ > 0)
    target = degrade_level_ - 1;
  if (target == degrade_level_) return;
  // Precision flips require backend quiescence. The only point this
  // scheduler can guarantee it is right after batch formation when the
  // formed batch is the sole in-flight work (so nothing is executing) —
  // always true with one lane, opportunistic (idle lanes) otherwise. The
  // flip happens under mu_: set_precision only rebuilds the model's
  // precision caches, takes no engine lock, and holding mu_ keeps
  // stats()'s precision read race-free.
  if (in_flight_ != 1) return;
  pressure_run_ = 0;
  clear_run_ = 0;
  if (!backend_.set_precision(ladder_[target])) {
    ladder_.resize(1);  // backend refused: never try again
    return;
  }
  if (target > degrade_level_) ++degrade_steps_;
  degrade_level_ = target;
  tuning_log_.push_back({batches_.size(), TuningEvent::Kind::kPrecision,
                         static_cast<std::size_t>(ladder_[target])});
}

bool ServingEngine::run_with_retries(const std::function<void()>& op) {
  for (std::size_t attempt = 0;; ++attempt) {
    try {
      op();
      return true;
    } catch (const util::InjectedFault& e) {
      if (e.transient() && attempt < opts_.fault_retries) {
        {
          util::MutexLock lk(mu_);
          ++fault_retries_;
        }
        if (opts_.retry_backoff_s > 0.0)
          std::this_thread::sleep_for(std::chrono::duration<double>(
              std::ldexp(opts_.retry_backoff_s, static_cast<int>(attempt))));
        continue;
      }
      util::MutexLock lk(mu_);
      last_error_ = e.what();
      return false;
    } catch (const std::exception& e) {
      // Anything else — a SpillIoError that outlived the store's own
      // retries, a backend error — is permanent for this batch.
      util::MutexLock lk(mu_);
      last_error_ = e.what();
      return false;
    }
  }
}

void ServingEngine::scheduler_loop() {
  const auto& g = backend_.dataset().graph;
  SlotMeta next;  // the batch being formed; acquire swaps it into its slot
  util::MutexLock lk(mu_);
  for (;;) {
    // Slot first, then formation: with one lane the previous batch has
    // retired before the next one forms, so every serial formation is a
    // quiescent point for maybe_degrade.
    while (free_slots_.empty()) cv_state_.wait(lk);
    if (!next_batch(lk, next)) break;

    // Head-of-line hazard wait, stage 1: our writes touch nothing any
    // in-flight batch reads or writes. In-flight work only shrinks while we
    // wait (this thread is the only admitter), so the predicate is stable
    // once satisfied.
    write_footprint(g, next.range, next.wfp);
    while (!disjoint(next.wfp, full_marks_)) cv_state_.wait(lk);
    // Stage 2 (read tracking): the READ footprint — sampled neighbors of
    // our endpoints. Stage 1 guarantees no in-flight batch writes our
    // endpoints, so their neighbor rows are quiescent and reading them
    // off-lock is safe. Admit once no in-flight batch writes anything we
    // will read; the result is bit-identical to serial execution.
    next.rfp.clear();
    if (track_reads_) {
      lk.unlock();
      concurrent_->read_footprint(next.range, next.rfp);
      lk.lock();
      while (!disjoint(next.rfp, write_marks_)) cv_state_.wait(lk);
    }

    const std::size_t slot = acquire(next);
    const graph::BatchRange range = slot_meta_[slot].range;
    lk.unlock();
    if (workers_ == 1)
      run_lane(slot, range);  // the scheduler would only wait for it
    else
      pool_.submit([this, slot, range] { run_lane(slot, range); });
    lk.lock();
  }
}

std::size_t ServingEngine::acquire(SlotMeta& batch) {
  for (graph::NodeId v : batch.wfp) {
    ++write_marks_[v];
    ++full_marks_[v];
  }
  for (graph::NodeId v : batch.rfp) ++full_marks_[v];
  const std::size_t slot = free_slots_.back();
  free_slots_.pop_back();
  batch.dispatch_s = clock_.seconds();
  // Swap, don't copy: the slot's previous (cleared) buffers come back for
  // the next formation, and this runs under the engine-wide mutex.
  std::swap(slot_meta_[slot], batch);
  batches_.push_back(slot_meta_[slot].range);
  peak_executing_ =
      std::max(peak_executing_, slot_meta_.size() - free_slots_.size());
  if constexpr (util::kCheckedBuild) audit_in_flight_footprints();
  return slot;
}

void ServingEngine::run_lane(std::size_t slot, graph::BatchRange range) {
  BatchOutput out;
  const bool ok = run_with_retries([&] {
    util::fault_point(util::FaultSite::kStageExec);
    out = workers_ > 1 ? concurrent_->process_batch_on(slot, range)
                       : backend_.process_batch(range);
  });
  retire(slot, ok, stage_array(out.parts), out.latency_s);
}

void ServingEngine::retire(std::size_t slot, bool ok,
                           const std::array<double, core::kNumStages>& stage_s,
                           double service_s) {
  util::MutexLock lk(mu_);
  SlotMeta& meta = slot_meta_[slot];
  for (graph::NodeId v : meta.wfp) {
    TGNN_DCHECK(write_marks_[v] > 0, "write-mark release underflow");
    --write_marks_[v];
    --full_marks_[v];
  }
  for (graph::NodeId v : meta.rfp) --full_marks_[v];
  const graph::BatchRange range = meta.range;
  if (ok) {
    // The write footprint is the batch's unique endpoints — the fan-out
    // signal the profiler wants.
    profiler_.record(stage_s, range.size(), meta.wfp.size(), queue_.size());
    for (std::size_t k = 0; k < core::kNumStages; ++k)
      stage_samples_[k].push_back(stage_s[k]);
    for (double a : meta.arrivals) {
      const double wait = meta.dispatch_s - a;
      latencies_.push_back(wait + service_s);
      queue_waits_.push_back(wait);
      services_.push_back(service_s);
    }
  } else {
    failed_ += range.size();
  }
  for (std::size_t i = range.begin; i < range.end; ++i)
    outcomes_.push_back(
        {i, ok ? RequestOutcome::kServed : RequestOutcome::kFailed});
  last_done_s_ = std::max(last_done_s_, clock_.seconds());
  // Emptying the footprint is what marks the slot free for the hazard
  // audit's occupancy notion — do it before parking the slot.
  meta.wfp.clear();
  meta.rfp.clear();
  meta.arrivals.clear();
  free_slots_.push_back(slot);
  TGNN_DCHECK(in_flight_ > 0, "batch retired with none in flight");
  --in_flight_;
  cv_state_.notify_all();
}

std::uint64_t ServingEngine::checkpoint(const std::string& path) {
  core::RuntimeState* state = backend_.runtime_state();
  if (state == nullptr)
    throw std::logic_error("ServingEngine::checkpoint: backend '" +
                           backend_.name() +
                           "' does not expose its runtime state");
  // Quiesce: queue empty, nothing in flight, every write committed. The
  // caller must not submit concurrently with the snapshot.
  drain();
  std::uint64_t cursor = 0;
  {
    util::MutexLock lk(mu_);
    cursor = next_index_;
  }
  if (!core::save_state(path, *state, cursor))
    throw std::runtime_error("ServingEngine::checkpoint: cannot write '" +
                             path + "'");
  return cursor;
}

std::uint64_t restore_backend(Backend& backend, const std::string& path) {
  core::RuntimeState* state = backend.runtime_state();
  if (state == nullptr)
    throw std::logic_error("restore_backend: backend '" + backend.name() +
                           "' does not expose its runtime state");
  std::uint64_t cursor = 0;
  if (!core::load_state(path, *state, cursor))
    throw std::runtime_error("restore_backend: cannot read '" + path + "'");
  return cursor;
}

ServingStats ServingEngine::stats() const {
  // Store counters first: the backend's store has its own lock, and the
  // query touches no engine state guarded by mu_.
  graph::VertexStoreStats store = backend_.store_stats();
  util::MutexLock lk(mu_);
  ServingStats s;
  s.store = store;
  s.num_requests = latencies_.size();
  s.num_batches = batches_.size();
  s.peak_parallel_batches = peak_executing_;
  s.peak_in_flight_batches = peak_in_flight_;
  s.peak_queue_depth = peak_queue_depth_;
  s.num_shed = shed_;
  s.num_expired = expired_;
  s.num_failed = failed_;
  s.degrade_steps = degrade_steps_;
  s.fault_retries = fault_retries_;
  s.stage_profile = profiler_.snapshot();
  for (std::size_t k = 0; k < core::kNumStages; ++k) {
    s.p50_stage_s[k] = percentile_of(stage_samples_[k], 0.50);
    s.p95_stage_s[k] = percentile_of(stage_samples_[k], 0.95);
  }
  // Under mu_ so a concurrent degradation step (which flips under mu_)
  // cannot race this read.
  s.precision = backend_.precision();
  // Idle engine (or every batch still in flight): all-zero stats rather
  // than 0/0 = NaN percentiles and means. percentile_of itself returns 0
  // on an empty sample set, but the explicit gate keeps the contract
  // obvious and guards mean_batch_size's division too.
  if (latencies_.empty() || batches_.empty()) return s;

  s.p50_latency_s = percentile_of(latencies_, 0.50);
  s.p95_latency_s = percentile_of(latencies_, 0.95);
  s.p99_latency_s = percentile_of(latencies_, 0.99);
  s.max_latency_s = percentile_of(latencies_, 1.0);
  s.p50_queue_wait_s = percentile_of(queue_waits_, 0.50);
  s.p95_queue_wait_s = percentile_of(queue_waits_, 0.95);
  s.p50_service_s = percentile_of(services_, 0.50);
  s.p95_service_s = percentile_of(services_, 0.95);

  const double span = last_done_s_ - first_submit_s_;
  s.throughput_rps =
      span > 0.0 ? static_cast<double>(latencies_.size()) / span : 0.0;
  s.mean_batch_size = static_cast<double>(latencies_.size()) /
                      static_cast<double>(batches_.size());
  return s;
}

std::vector<double> ServingEngine::request_latency_s() const {
  util::MutexLock lk(mu_);
  return latencies_;
}

std::vector<graph::BatchRange> ServingEngine::batch_log() const {
  util::MutexLock lk(mu_);
  return batches_;
}

std::vector<OutcomeRecord> ServingEngine::outcome_log() const {
  util::MutexLock lk(mu_);
  return outcomes_;
}

std::vector<TuningEvent> ServingEngine::tuning_log() const {
  util::MutexLock lk(mu_);
  return tuning_log_;
}

std::string ServingEngine::last_error() const {
  util::MutexLock lk(mu_);
  return last_error_;
}

}  // namespace tgnn::runtime
