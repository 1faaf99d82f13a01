#include "graph/vertex_store.hpp"

#include <cstring>
#include <stdexcept>

#include "util/check.hpp"
#include "util/fault_injector.hpp"

namespace tgnn::graph {

namespace {
constexpr std::size_t kMinFrames = 4;
/// Bounded retry budget for transient spill-I/O faults. Permanent faults
/// and real SpillIoErrors are never retried here — they propagate to the
/// caller as the typed failure.
constexpr int kSpillRetries = 3;

std::size_t round_up8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

template <class F>
void retry_spill(F&& op, VertexStoreStats& stats) {
  for (int attempt = 0;; ++attempt) {
    try {
      op();
      return;
    } catch (const util::InjectedFault& e) {
      if (!e.transient() || attempt >= kSpillRetries) throw;
      ++stats.io_retries;
    }
  }
}
}  // namespace

VertexStore::VertexStore(std::size_t num_rows, std::size_t row_bytes,
                         VertexStoreOptions opts)
    : num_rows_(num_rows), row_bytes_(round_up8(row_bytes)) {
  if (row_bytes == 0) throw std::invalid_argument("VertexStore: row_bytes 0");
  const std::size_t total = num_rows_ * row_bytes_;
  resident_ = opts.budget_bytes == 0 || opts.budget_bytes >= total ||
              num_rows_ == 0;
  if (resident_) {
    flat_.assign(total, std::byte{0});
    return;
  }
  rows_per_page_ = opts.rows_per_page == 0 ? 64 : opts.rows_per_page;
  if (rows_per_page_ > num_rows_) rows_per_page_ = num_rows_;
  num_pages_ = (num_rows_ + rows_per_page_ - 1) / rows_per_page_;
  page_bytes_ = rows_per_page_ * row_bytes_;
  budget_frames_ = opts.budget_bytes / page_bytes_;
  if (budget_frames_ < kMinFrames) budget_frames_ = kMinFrames;
  if (budget_frames_ >= num_pages_) {
    // The floor pushed the cache to full coverage: degenerate to resident.
    resident_ = true;
    flat_.assign(total, std::byte{0});
    return;
  }
  writeback_batch_ = opts.writeback_batch == 0 ? 1 : opts.writeback_batch;
  // Nothing else can hold the store yet, but taking the lock keeps every
  // guarded-member write inside the capability the analysis checks.
  util::MutexLock lk(mu_);
  for (std::size_t i = 0; i < budget_frames_; ++i) {
    frames_.emplace_back();
    frames_.back().data =
        std::make_unique<std::byte[]>(page_bytes_);
  }
  allocated_frames_ = budget_frames_;
  frame_of_.assign(num_pages_, -1);
  page_frame_ = std::vector<std::atomic<Frame*>>(num_pages_);
  for (auto& p : page_frame_) p.store(nullptr, std::memory_order_relaxed);
  on_disk_.assign(num_pages_, 0);
  file_ = std::make_unique<PagedFile>(page_bytes_, num_pages_,
                                      std::move(opts.spill_dir));
}

const std::byte* VertexStore::row(std::size_t r) const {
  TGNN_DCHECK(r < num_rows_, "row index out of range");
  if (resident_) return flat_.data() + r * row_bytes_;
  const std::size_t page = r / rows_per_page_;
  const std::size_t offset = (r - page * rows_per_page_) * row_bytes_;
  const Frame* fr = page_frame_[page].load(std::memory_order_acquire);
  if (fr != nullptr) return fr->data.get() + offset;
  // Unpinned access: fault the page in (single-threaded contract).
  return const_cast<VertexStore*>(this)->fault_page(page)->data.get() + offset;
}

std::byte* VertexStore::row_mut(std::size_t r) {
  TGNN_DCHECK(r < num_rows_, "row index out of range");
  if (resident_) return flat_.data() + r * row_bytes_;
  const std::size_t page = r / rows_per_page_;
  Frame* frp = page_frame_[page].load(std::memory_order_acquire);
  if (frp == nullptr) frp = fault_page(page);
  Frame& fr = *frp;
  fr.dirty.store(true, std::memory_order_relaxed);
  // Re-dirtying a page whose write-back is still queued supersedes the
  // queued version: invalidate the stale entry (§IV-B — only the newest
  // version spills). The last unpin re-queues it at the tail, which is
  // also what restores chronological commit order for the new version.
  if (fr.queued_seq.exchange(0, std::memory_order_relaxed) != 0)
    invalidations_.fetch_add(1, std::memory_order_relaxed);
  return fr.data.get() + (r - page * rows_per_page_) * row_bytes_;
}

VertexStore::Frame* VertexStore::fault_page(std::size_t page) {
  util::MutexLock lk(mu_);
  return &frames_[frame_for(page)];
}

std::size_t VertexStore::frame_for(std::size_t page) {
  const std::int32_t existing = frame_of_[page];
  if (existing >= 0) {
    frames_[static_cast<std::size_t>(existing)].ref = true;
    return static_cast<std::size_t>(existing);
  }
  const std::size_t f = find_victim_frame();
  Frame& fr = frames_[f];
  if (fr.page >= 0) evict_frame(f);
  fr.dirty.store(false, std::memory_order_relaxed);
  fr.queued_seq.store(0, std::memory_order_relaxed);
  // Fill BEFORE claiming the page in the tables: a spill-read failure
  // leaves the frame free and every table consistent (the typed error
  // propagates as a clean batch failure, not a corrupted cache).
  if (on_disk_[page] != 0) {
    retry_spill([&] { file_->read_page(page, fr.data.get()); }, stats_);
    ++stats_.spill_page_reads;
  } else {
    std::memset(fr.data.get(), 0, page_bytes_);
  }
  fr.page = static_cast<std::int64_t>(page);
  fr.ref = true;
  frame_of_[page] = static_cast<std::int32_t>(f);
  // Publish AFTER the content is in place: a pinned-page reader that
  // loads this pointer sees a fully-faulted frame.
  page_frame_[page].store(&fr, std::memory_order_release);
  return f;
}

std::size_t VertexStore::find_victim_frame() {
  // Retired slots first: re-arming one is cheaper than evicting and keeps
  // the pool at the budget.
  if (!free_frames_.empty()) {
    const std::size_t f = free_frames_.back();
    free_frames_.pop_back();
    frames_[f].data = std::make_unique<std::byte[]>(page_bytes_);
    ++allocated_frames_;
    return f;
  }
  // Two full CLOCK sweeps: the first pass clears reference bits, the
  // second finds any unpinned frame. Pinned frames are exempt.
  const std::size_t n = frames_.size();
  for (std::size_t sweep = 0; sweep < 2 * n; ++sweep) {
    const std::size_t f = hand_;
    hand_ = (hand_ + 1) % n;
    Frame& fr = frames_[f];
    if (!fr.data) continue;    // retired slot (free list is empty ≠ none)
    if (fr.page < 0) return f;  // free frame
    if (fr.pins > 0) continue;
    if (fr.ref) {
      fr.ref = false;
      continue;
    }
    return f;
  }
  // Every frame pinned: the budget is smaller than one batch's footprint.
  // Grow past the budget rather than deadlock (trim_overcommit reclaims
  // the excess once pins drop); the counter makes the misconfiguration
  // visible in ServingStats.
  frames_.emplace_back();
  frames_.back().data = std::make_unique<std::byte[]>(page_bytes_);
  ++allocated_frames_;
  ++stats_.overcommit_frames;
  return frames_.size() - 1;
}

void VertexStore::evict_frame(std::size_t f) {
  Frame& fr = frames_[f];
  TGNN_CHECK(fr.pins == 0, "evicting a pinned frame");
  if (fr.dirty.load(std::memory_order_relaxed)) {
    try {
      write_back(f);
    } catch (...) {
      // Eviction must not lose the only copy: the frame stays resident
      // and dirty, the typed error propagates to the faulting caller.
      ++stats_.io_failures;
      throw;
    }
  }
  frame_of_[static_cast<std::size_t>(fr.page)] = -1;
  page_frame_[static_cast<std::size_t>(fr.page)].store(
      nullptr, std::memory_order_release);
  fr.page = -1;
  ++stats_.evictions;
}

void VertexStore::write_back(std::size_t f) {
  Frame& fr = frames_[f];
  retry_spill(
      [&] { file_->write_page(static_cast<std::size_t>(fr.page),
                              fr.data.get()); },
      stats_);
  on_disk_[static_cast<std::size_t>(fr.page)] = 1;
  ++stats_.spill_page_writes;
  fr.dirty.store(false, std::memory_order_relaxed);
  fr.queued_seq.store(0, std::memory_order_relaxed);
}

void VertexStore::flush_queue(std::size_t max_entries) {
  std::size_t done = 0;
  while (!wb_queue_.empty() && done < max_entries) {
    const WbEntry e = wb_queue_.front();
    wb_queue_.pop_front();
    ++done;
    const std::int32_t f = frame_of_[e.page];
    // Stale entry: the page was evicted (flushed on the way out) or
    // re-dirtied (row_mut zeroed queued_seq; a fresher entry follows).
    if (f < 0) continue;
    Frame& fr = frames_[static_cast<std::size_t>(f)];
    if (fr.queued_seq.load(std::memory_order_relaxed) != e.seq) continue;
    if (fr.pins > 0) continue;  // re-pinned: its unpin re-queues
    try {
      write_back(static_cast<std::size_t>(f));
    } catch (const std::exception&) {
      // Permanent write-back failure: the entry goes back at the head
      // (its seq still matches the frame's queued_seq, and it is older
      // than everything behind it) and this drain stops. The page stays
      // resident and dirty — nothing is lost, the next flush retries.
      ++stats_.io_failures;
      wb_queue_.push_front(e);
      return;
    }
  }
}

void VertexStore::pin_rows(std::span<const NodeId> rows) {
  if (resident_) return;
  util::MutexLock lk(mu_);
  std::size_t done = 0;
  try {
    for (; done < rows.size(); ++done) {
      const std::size_t page =
          static_cast<std::size_t>(rows[done]) / rows_per_page_;
      if (frame_of_[page] >= 0)
        ++stats_.hits;
      else
        ++stats_.misses;
      Frame& fr = frames_[frame_for(page)];
      ++fr.pins;
      ++total_pins_;
    }
  } catch (...) {
    // Strong guarantee: a spill fault mid-batch rolls the already-taken
    // pins back, so the caller's abort path never sees a half-pinned
    // batch (and no pin ever leaks into the eviction accounting).
    for (std::size_t i = 0; i < done; ++i) {
      const std::size_t page =
          static_cast<std::size_t>(rows[i]) / rows_per_page_;
      Frame& fr = frames_[static_cast<std::size_t>(frame_of_[page])];
      --fr.pins;
      --total_pins_;
    }
    throw;
  }
}

void VertexStore::unpin_rows(std::span<const NodeId> rows) {
  if (resident_) return;
  util::MutexLock lk(mu_);
  for (const NodeId r : rows) {
    const std::size_t page = static_cast<std::size_t>(r) / rows_per_page_;
    const std::int32_t f = frame_of_[page];
    TGNN_CHECK(f >= 0, "unpin of a page with no resident frame");
    Frame& fr = frames_[static_cast<std::size_t>(f)];
    TGNN_CHECK(fr.pins > 0, "unpin of an unpinned page");
    --fr.pins;
    TGNN_DCHECK(total_pins_ > 0, "outstanding-pin total underflow");
    --total_pins_;
    // Last pin gone on a dirty page with no pending entry: queue its
    // write-back. Batch completion order == chronological commit order.
    if (fr.pins == 0 && fr.dirty.load(std::memory_order_relaxed) &&
        fr.queued_seq.load(std::memory_order_relaxed) == 0) {
      fr.queued_seq.store(next_seq_, std::memory_order_relaxed);
      wb_queue_.push_back({page, next_seq_});
      ++next_seq_;
    }
  }
  // Drain one batch worth, oldest first, once the ring fills — a bounded
  // drip rather than a full drain, so no single unpin call absorbs a
  // flush storm and younger entries get their chance to be invalidated.
  if (wb_queue_.size() >= writeback_batch_) flush_queue(writeback_batch_);
  trim_overcommit();
#ifdef TGNN_CHECKED
  check_invariants_locked();
#endif
}

void VertexStore::trim_overcommit() {
  // Shrink the pool back to the budget once pins allow: overcommit keeps a
  // too-small budget live through one batch, it must not silently become a
  // bigger budget. Victims are chosen by the same CLOCK policy as faults
  // (dirty pages write back on the way out); the emptied slot's buffer is
  // released and the slot parked on the free list.
  if (allocated_frames_ <= budget_frames_) return;
  const std::size_t n = frames_.size();
  for (std::size_t sweep = 0;
       sweep < 2 * n && allocated_frames_ > budget_frames_; ++sweep) {
    const std::size_t f = hand_;
    hand_ = (hand_ + 1) % n;
    Frame& fr = frames_[f];
    if (!fr.data || fr.pins > 0) continue;
    if (fr.page >= 0) {
      if (fr.ref) {
        fr.ref = false;
        continue;
      }
      evict_frame(f);
    }
    fr.data.reset();
    free_frames_.push_back(f);
    --allocated_frames_;
  }
}

void VertexStore::reset() {
  if (resident_) {
    std::memset(flat_.data(), 0, flat_.size());
    return;
  }
  util::MutexLock lk(mu_);
  for (auto& fr : frames_) {
    if (fr.pins != 0)
      throw std::logic_error("VertexStore::reset with pins held");
    fr.page = -1;
    fr.ref = false;
    fr.dirty.store(false, std::memory_order_relaxed);
    fr.queued_seq.store(0, std::memory_order_relaxed);
  }
  TGNN_DCHECK(total_pins_ == 0, "reset with outstanding pins");
  std::fill(frame_of_.begin(), frame_of_.end(), -1);
  for (auto& p : page_frame_) p.store(nullptr, std::memory_order_relaxed);
  std::fill(on_disk_.begin(), on_disk_.end(), 0);
  wb_queue_.clear();
  hand_ = 0;
  file_->reset();
#ifdef TGNN_CHECKED
  check_invariants_locked();
#endif
}

VertexStoreStats VertexStore::stats() const {
  if (resident_) return {};
  util::MutexLock lk(mu_);
  VertexStoreStats s = stats_;
  s.writeback_invalidations =
      invalidations_.load(std::memory_order_relaxed);
  return s;
}

void VertexStore::check_invariants() const {
  if (resident_) return;
  util::MutexLock lk(mu_);
  check_invariants_locked();
}

void VertexStore::check_invariants_locked() const {
  // The §IV-B cache-state contract, executable. Everything here is
  // redundant with how the store updates its tables — which is the point:
  // a single forgotten transition (or a forged value) breaks one of the
  // redundancies.
  const std::size_t nf = frames_.size();
  TGNN_CHECK(nf == 0 || hand_ < nf, "CLOCK hand out of range");
  TGNN_CHECK(frame_of_.size() == num_pages_, "page->frame table size");
  TGNN_CHECK(on_disk_.size() == num_pages_, "spill bitmap size");
  TGNN_CHECK(page_frame_.size() == num_pages_, "published-frame table size");

  // Frame side: every resident frame agrees with the page tables; pins and
  // buffers add up to their redundant totals.
  std::uint64_t pins = 0;
  std::size_t with_buffer = 0;
  for (std::size_t f = 0; f < nf; ++f) {
    const Frame& fr = frames_[f];
    pins += fr.pins;
    if (fr.data) ++with_buffer;
    if (fr.page >= 0) {
      TGNN_CHECK(fr.data != nullptr, "resident page in a retired frame");
      const auto page = static_cast<std::size_t>(fr.page);
      TGNN_CHECK(page < num_pages_, "frame holds an out-of-range page");
      TGNN_CHECK(frame_of_[page] == static_cast<std::int32_t>(f),
                 "frame and page tables disagree");
      TGNN_CHECK(page_frame_[page].load(std::memory_order_acquire) == &fr,
                 "published frame pointer disagrees with the page table");
    } else {
      TGNN_CHECK(fr.pins == 0, "pinned frame without a page");
    }
  }
  TGNN_CHECK(pins == total_pins_,
             "per-frame pin counts disagree with the outstanding-pin total");
  TGNN_CHECK(with_buffer == allocated_frames_,
             "buffer count disagrees with allocated_frames_");
  TGNN_CHECK(nf - with_buffer == free_frames_.size(),
             "retired frames not accounted on the free list");
  for (const std::size_t f : free_frames_) {
    TGNN_CHECK(f < nf, "free-list index out of range");
    TGNN_CHECK(!frames_[f].data, "free-listed frame still holds a buffer");
    TGNN_CHECK(frames_[f].page < 0, "free-listed frame still maps a page");
  }

  // Page side: unmapped pages must not be published.
  for (std::size_t p = 0; p < num_pages_; ++p) {
    const std::int32_t f = frame_of_[p];
    TGNN_CHECK(f >= -1 && f < static_cast<std::int32_t>(nf),
               "page maps to an out-of-range frame");
    if (f < 0)
      TGNN_CHECK(page_frame_[p].load(std::memory_order_acquire) == nullptr,
                 "evicted page still published");
  }

  // Write-back queue chronology: sequence numbers strictly increase toward
  // next_seq_, and a live entry's frame is still dirty. A frame whose
  // queued_seq moved past an entry was legitimately re-dirtied (0) or
  // re-queued (> seq) — it can never sit behind one.
  std::uint64_t prev = 0;
  for (const WbEntry& e : wb_queue_) {
    TGNN_CHECK(e.seq > prev, "write-back queue out of chronological order");
    prev = e.seq;
    TGNN_CHECK(e.seq < next_seq_, "queued write-back from the future");
    TGNN_CHECK(e.page < num_pages_, "queued write-back of an invalid page");
    const std::int32_t f = frame_of_[e.page];
    if (f >= 0) {
      const Frame& fr = frames_[static_cast<std::size_t>(f)];
      const std::uint64_t q = fr.queued_seq.load(std::memory_order_relaxed);
      if (q == e.seq)
        TGNN_CHECK(fr.dirty.load(std::memory_order_relaxed),
                   "queued write-back of a clean page");
      else
        TGNN_CHECK(q == 0 || q > e.seq,
                   "frame's queued_seq behind a live queue entry");
    }
  }

  // Spill-offset consistency: the file's geometry is the store's, so every
  // on-disk page maps to a valid fixed offset; a file that was never
  // opened cannot have spilled pages.
  TGNN_CHECK(file_ != nullptr, "out-of-core store without a spill file");
  TGNN_CHECK(file_->page_bytes() == page_bytes_, "spill-file page size");
  TGNN_CHECK(file_->num_pages() == num_pages_, "spill-file page count");
  bool any_on_disk = false;
  for (std::size_t p = 0; p < num_pages_; ++p)
    any_on_disk = any_on_disk || on_disk_[p] != 0;
  TGNN_CHECK(!any_on_disk || file_->open(),
             "pages marked spilled but the spill file was never created");
}

}  // namespace tgnn::graph
