// Out-of-core row store: the capacity layer under VertexMemory /
// VertexMailbox (§IV-B — the Updater's chronology-preserving cache,
// re-targeted from BRAM-vs-DDR to RAM-vs-spill-file).
//
// A store holds `num_rows` fixed-size records. Two regimes:
//
//  * All-resident (budget 0 or >= total): one flat allocation, row
//    pointers stable forever, every pin/unpin a no-op. This is
//    the default and is byte-for-byte the pre-store behavior — the whole
//    serving stack pays nothing until someone asks for a budget.
//
//  * Out-of-core (0 < budget < total): rows are grouped into pages of
//    `rows_per_page` records; a fixed set of page frames (budget /
//    page_bytes, min 4) caches the hot set, and cold pages live in an
//    mmap'd spill file (PagedFile). CLOCK eviction with pinned-page
//    exemption approximates LRU — under the Zipf-skewed streams the
//    synthetic generator produces, the head of the popularity
//    distribution stays resident and the tail cycles through the
//    remaining frames.
//
// Concurrency contract (matches how the engine's stage machinery and the
// sharded lanes actually access state):
//
//  * pin_rows / unpin_rows / stats / reset take the store mutex and may
//    be called from any thread.
//  * row() / row_mut() are lock-free. They are safe concurrently iff the
//    row's page is pinned by the calling batch (the pin's mutex acquire
//    is the happens-before edge that makes the page-table read valid);
//    writes to the same row are the caller's problem, exactly as with
//    flat arrays (the shard-lock layer already serializes them).
//  * Unpinned row()/row_mut() on an out-of-core store is allowed only
//    single-threaded (tests, warmup-style direct access): it faults the
//    page in under the mutex and the pointer stays valid until the next
//    store call.
//
// Write-back ports the UpdaterCache idioms: a dirty page is queued when
// its last pin drops (batch completion order == chronological commit
// order), queued pages are flushed in batches of `writeback_batch`, and a
// page re-dirtied while still queued invalidates the stale entry — only
// the newest version ever spills (counted in `writeback_invalidations`,
// the §IV-B redundant-write elimination).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/paged_file.hpp"
#include "graph/temporal_graph.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace tgnn::graph {

struct VertexStoreOptions {
  /// Resident budget in bytes. 0 = all-resident (no cap).
  std::size_t budget_bytes = 0;
  /// Records per page. Coarse pages amortize spill I/O; fine pages track
  /// the hot set more precisely. 64 rows ~= tens of KiB per page at
  /// paper dims.
  std::size_t rows_per_page = 64;
  /// Flush the write-back queue once this many pages are pending. The ring
  /// depth is the §IV-B redundant-write window: a hot page re-dirtied while
  /// queued invalidates its stale entry instead of spilling, so deeper
  /// queues convert hot-page write-backs into invalidations (16 writes
  /// ~every page each batch under serving load; 128 spills mostly the
  /// genuinely cooling tail).
  std::size_t writeback_batch = 128;
  /// Spill directory; empty = $TMPDIR or /tmp.
  std::string spill_dir;
};

/// Counters surfaced through Backend::store_stats() into ServingStats.
/// hits/misses count row-granular pin requests (the serving path's access
/// notion).
struct VertexStoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t spill_page_writes = 0;
  std::uint64_t spill_page_reads = 0;
  /// Stale queued write-backs superseded by a newer dirtying of the same
  /// page (only the newest version spills — §IV-B invalidation).
  std::uint64_t writeback_invalidations = 0;
  /// Frames allocated past the configured budget because every frame was
  /// pinned at fault time (budget smaller than one batch's footprint).
  std::uint64_t overcommit_frames = 0;
  /// Spill-I/O attempts retried after a transient (injected) fault.
  std::uint64_t io_retries = 0;
  /// Spill-I/O operations that failed permanently. A failed eviction
  /// write-back propagates as a typed error (the frame stays resident and
  /// dirty — no data loss); a failed queue flush re-queues the entry for
  /// the next drain attempt.
  std::uint64_t io_failures = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 1.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
  VertexStoreStats& operator+=(const VertexStoreStats& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    spill_page_writes += o.spill_page_writes;
    spill_page_reads += o.spill_page_reads;
    writeback_invalidations += o.writeback_invalidations;
    overcommit_frames += o.overcommit_frames;
    io_retries += o.io_retries;
    io_failures += o.io_failures;
    return *this;
  }
};

class VertexStore {
 public:
  VertexStore(std::size_t num_rows, std::size_t row_bytes,
              VertexStoreOptions opts = {});

  VertexStore(const VertexStore&) = delete;
  VertexStore& operator=(const VertexStore&) = delete;

  [[nodiscard]] bool out_of_core() const { return !resident_; }
  [[nodiscard]] std::size_t num_rows() const { return num_rows_; }
  /// Row stride. Rounded up to 8 so every row is 8-byte aligned and the
  /// [timestamp][payload...] record layouts can be addressed in place.
  [[nodiscard]] std::size_t row_bytes() const { return row_bytes_; }
  [[nodiscard]] std::size_t rows_per_page() const { return rows_per_page_; }
  [[nodiscard]] std::size_t num_pages() const { return num_pages_; }
  /// Configured frame count (excludes overcommit growth).
  [[nodiscard]] std::size_t num_frames() const { return budget_frames_; }

  /// Read pointer for row r. See the concurrency contract above.
  [[nodiscard]] const std::byte* row(std::size_t r) const;
  /// Write pointer for row r; marks the page dirty (and invalidates a
  /// stale queued write-back of it).
  [[nodiscard]] std::byte* row_mut(std::size_t r);

  /// Fault in + reference-count the pages covering `rows`. Duplicate ids
  /// pin (and later must unpin) once each — pin/unpin calls are symmetric
  /// per id, not per unique page. Strong exception guarantee: a spill
  /// fault mid-call rolls back every pin the call already took, so the
  /// batch either holds all its pins or none.
  void pin_rows(std::span<const NodeId> rows) TGNN_EXCLUDES(mu_);
  void unpin_rows(std::span<const NodeId> rows) TGNN_EXCLUDES(mu_);

  /// Zero every row and drop all spilled content. Requires no pins held.
  void reset() TGNN_EXCLUDES(mu_);

  [[nodiscard]] VertexStoreStats stats() const TGNN_EXCLUDES(mu_);

  /// Structural validator (the §IV-B cache states as executable
  /// contracts): page-table/frame-table agreement, pin accounting against
  /// the redundant total_pins_ counter, write-back-queue chronology
  /// (strictly increasing sequence numbers, live entries matching their
  /// frame's queued_seq and dirty bit), spill-file consistency, and
  /// free-list/buffer agreement. TGNN_CHECK-aborts on the first violation;
  /// a checked build (-DTGNN_CHECKED=ON) runs it automatically after every
  /// unpin_rows and reset. Cheap relative to a batch (O(pages + frames +
  /// queue)), a no-op on an all-resident store.
  void check_invariants() const TGNN_EXCLUDES(mu_);

 private:
  struct Frame {
    std::int64_t page = -1;  ///< resident page id, -1 = free
    std::uint32_t pins = 0;
    bool ref = false;  ///< CLOCK reference bit (set on pin/fault)
    /// Content differs from the spill file. Set lock-free by row_mut.
    std::atomic<bool> dirty{false};
    /// Nonzero = a write-back queue entry with this sequence number is
    /// pending for this page. row_mut zeroes it (lock-free) to invalidate
    /// the stale entry when the page is dirtied again before flushing.
    std::atomic<std::uint64_t> queued_seq{0};
    std::unique_ptr<std::byte[]> data;
  };

  std::size_t frame_for(std::size_t page) TGNN_REQUIRES(mu_);
  std::size_t find_victim_frame() TGNN_REQUIRES(mu_);
  void evict_frame(std::size_t f) TGNN_REQUIRES(mu_);
  void flush_queue(std::size_t max_entries) TGNN_REQUIRES(mu_);
  void write_back(std::size_t f) TGNN_REQUIRES(mu_);
  void trim_overcommit() TGNN_REQUIRES(mu_);
  /// Slow path of row()/row_mut(): fault `page` in under the lock and
  /// return its frame (single-threaded unpinned-access contract). The
  /// returned pointer is growth-stable (frames_ is a deque) and valid
  /// until the next store call.
  Frame* fault_page(std::size_t page) TGNN_EXCLUDES(mu_);
  void check_invariants_locked() const TGNN_REQUIRES(mu_);

  std::size_t num_rows_;
  std::size_t row_bytes_;
  std::size_t rows_per_page_ = 0;
  std::size_t num_pages_ = 0;
  std::size_t page_bytes_ = 0;
  std::size_t budget_frames_ = 0;
  std::size_t writeback_batch_ = 0;
  bool resident_;

  // All-resident fast path.
  std::vector<std::byte> flat_;

  // Out-of-core state. row()/row_mut() resolve pages lock-free through
  // page_frame_ — a fixed-size array of atomic Frame pointers (all
  // remaps happen under mu_ and the pin protocol excludes remapping a
  // pinned page; the acquire load pairs with frame_for's release store,
  // which is why page_frame_ itself carries no TGNN_GUARDED_BY). The deque
  // is touched only under mu_: element addresses are growth-stable, but
  // its internal index map is not, so even frames_[i] is off-limits
  // without the lock. Frame's own fields split the same way — page / pins
  // / ref are mu_-only, data is stable while the page is pinned, and
  // dirty / queued_seq are lock-free atomics written by row_mut.
  mutable util::Mutex mu_;
  std::deque<Frame> frames_ TGNN_GUARDED_BY(mu_);  // growth never moves a Frame
  std::vector<std::atomic<Frame*>> page_frame_;
  /// Retired frame slots (data released after overcommit growth); popped
  /// and re-armed before the pool grows again. Invariant: a frame's data
  /// is null iff its index is in this list.
  std::vector<std::size_t> free_frames_ TGNN_GUARDED_BY(mu_);
  /// Frames currently holding a buffer.
  std::size_t allocated_frames_ TGNN_GUARDED_BY(mu_) = 0;
  std::vector<std::int32_t> frame_of_ TGNN_GUARDED_BY(mu_);
  /// Page has ever been spilled.
  std::vector<std::uint8_t> on_disk_ TGNN_GUARDED_BY(mu_);
  std::size_t hand_ TGNN_GUARDED_BY(mu_) = 0;  ///< CLOCK sweep position
  std::uint64_t next_seq_ TGNN_GUARDED_BY(mu_) = 1;
  /// Outstanding pins across all frames — redundant with the per-frame
  /// counts by construction, which is exactly what lets check_invariants
  /// catch a forged or leaked pin.
  std::uint64_t total_pins_ TGNN_GUARDED_BY(mu_) = 0;
  struct WbEntry {
    std::size_t page;
    std::uint64_t seq;
  };
  std::deque<WbEntry> wb_queue_ TGNN_GUARDED_BY(mu_);
  std::unique_ptr<PagedFile> file_;

  VertexStoreStats stats_ TGNN_GUARDED_BY(mu_);  // except:
  mutable std::atomic<std::uint64_t> invalidations_{0};

  /// Test seam: deliberately corrupts internals to prove the validators
  /// fire (defined in tests/graph/vertex_store_test.cpp only).
  friend struct VertexStoreTestPeer;
};

}  // namespace tgnn::graph
