#include "graph/vertex_store.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "graph/paged_file.hpp"

namespace tgnn::graph {
namespace {

// Fill row r with a value derived from (r, salt) — distinct per call site,
// so spill round-trips can be checked bit-exactly.
void fill_row(VertexStore& s, std::size_t r, std::uint32_t salt) {
  std::byte* p = s.row_mut(r);
  for (std::size_t i = 0; i < s.row_bytes(); ++i)
    p[i] = static_cast<std::byte>((r * 31 + salt + i) & 0xff);
}

bool check_row(const VertexStore& s, std::size_t r, std::uint32_t salt) {
  const std::byte* p = s.row(r);
  for (std::size_t i = 0; i < s.row_bytes(); ++i)
    if (p[i] != static_cast<std::byte>((r * 31 + salt + i) & 0xff))
      return false;
  return true;
}

VertexStoreOptions small_opts(std::size_t budget_pages) {
  VertexStoreOptions o;
  o.rows_per_page = 8;
  o.budget_bytes = budget_pages * 8 * 64;  // row_bytes 64 below
  o.writeback_batch = 4;
  return o;
}

TEST(PagedFile, RoundTripsPagesBitExactly) {
  PagedFile f(/*page_bytes=*/256, /*num_pages=*/4);
  EXPECT_FALSE(f.open());  // lazy: no file until the first spill
  std::vector<std::byte> page(256), back(256);
  for (std::size_t i = 0; i < page.size(); ++i)
    page[i] = static_cast<std::byte>(i * 7);
  f.write_page(2, page.data());
  EXPECT_TRUE(f.open());
  f.read_page(2, back.data());
  EXPECT_EQ(std::memcmp(page.data(), back.data(), page.size()), 0);
}

TEST(PagedFile, ResetDropsContentToZero) {
  PagedFile f(64, 2);
  std::vector<std::byte> page(64, std::byte{0xAB}), back(64);
  f.write_page(0, page.data());
  f.reset();
  f.read_page(0, back.data());
  for (auto b : back) EXPECT_EQ(b, std::byte{0});
}

TEST(PagedFile, RejectsOutOfRangeAndUnwrittenReads) {
  PagedFile f(64, 2);
  std::vector<std::byte> buf(64);
  // Both misuses surface as the typed spill error, naming the operation
  // and the failing page so store-level retries can report precisely.
  try {
    f.write_page(2, buf.data());
    FAIL() << "out-of-range write accepted";
  } catch (const SpillIoError& e) {
    EXPECT_EQ(e.page(), 2u);
    EXPECT_NE(std::string(e.what()).find("write_page"), std::string::npos);
  }
  try {
    f.read_page(0, buf.data());  // never open
    FAIL() << "read before any write accepted";
  } catch (const SpillIoError& e) {
    EXPECT_EQ(e.page(), 0u);
  }
}

TEST(VertexStore, ZeroBudgetIsAllResident) {
  VertexStore s(100, 64);
  EXPECT_FALSE(s.out_of_core());
  // Pins are free no-ops; stats stay zero.
  std::vector<NodeId> rows = {1, 2, 3};
  s.pin_rows(rows);
  s.unpin_rows(rows);
  EXPECT_EQ(s.stats().hits + s.stats().misses, 0u);
  EXPECT_DOUBLE_EQ(s.stats().hit_rate(), 1.0);
}

TEST(VertexStore, GenerousBudgetDegeneratesToResident) {
  VertexStore s(100, 64, small_opts(/*budget_pages=*/1000));
  EXPECT_FALSE(s.out_of_core());
}

TEST(VertexStore, RowsStartZeroOutOfCore) {
  VertexStore s(256, 64, small_opts(4));
  ASSERT_TRUE(s.out_of_core());
  for (std::size_t r = 0; r < 256; r += 17) {
    const std::byte* p = s.row(r);
    for (std::size_t i = 0; i < s.row_bytes(); ++i)
      EXPECT_EQ(p[i], std::byte{0});
  }
}

TEST(VertexStore, RoundsRowBytesUpToEight) {
  VertexStore s(4, 13);
  EXPECT_EQ(s.row_bytes(), 16u);
}

TEST(VertexStore, SpillRoundTripIsBitExact) {
  // 32 pages of 8 rows, 4 frames: writing every row forces continuous
  // eviction; every row must read back exactly despite the spill churn.
  VertexStore s(256, 64, small_opts(4));
  ASSERT_TRUE(s.out_of_core());
  for (std::size_t r = 0; r < 256; ++r) fill_row(s, r, 5);
  for (std::size_t r = 0; r < 256; ++r) EXPECT_TRUE(check_row(s, r, 5));
  const auto st = s.stats();
  EXPECT_GT(st.evictions, 0u);
  EXPECT_GT(st.spill_page_writes, 0u);
  EXPECT_GT(st.spill_page_reads, 0u);
}

TEST(VertexStore, PinnedRowsSurviveEvictionPressure) {
  VertexStore s(256, 64, small_opts(4));
  std::vector<NodeId> pinned = {0, 1, 2, 3, 4, 5, 6, 7};  // page 0
  for (NodeId r : pinned) fill_row(s, r, 9);
  s.pin_rows(pinned);
  const std::byte* before = s.row(0);
  // Churn through every other page; page 0 must not move or spill-corrupt.
  for (std::size_t r = 8; r < 256; ++r) fill_row(s, r, 9);
  EXPECT_EQ(s.row(0), before);  // pointer stability under pin
  for (NodeId r : pinned) EXPECT_TRUE(check_row(s, r, 9));
  s.unpin_rows(pinned);
  for (std::size_t r = 0; r < 256; ++r) EXPECT_TRUE(check_row(s, r, 9));
}

TEST(VertexStore, PinCountsHitsAndMisses) {
  VertexStore s(256, 64, small_opts(4));
  std::vector<NodeId> rows = {0, 1, 2};  // one page
  s.pin_rows(rows);
  auto st = s.stats();
  EXPECT_EQ(st.misses, 1u);  // first row faults the page
  EXPECT_EQ(st.hits, 2u);    // the rest hit it
  s.unpin_rows(rows);
  s.pin_rows(rows);
  st = s.stats();
  EXPECT_EQ(st.hits, 5u);  // still resident
  s.unpin_rows(rows);
}

TEST(VertexStore, RedirtyOfQueuedPageCountsInvalidation) {
  VertexStore s(256, 64, small_opts(4));
  std::vector<NodeId> rows = {0};
  s.pin_rows(rows);
  fill_row(s, 0, 1);
  s.unpin_rows(rows);  // dirty page 0 queued for write-back (batch of 4)
  EXPECT_EQ(s.stats().writeback_invalidations, 0u);
  s.pin_rows(rows);
  fill_row(s, 0, 2);  // supersedes the queued version
  s.unpin_rows(rows);
  EXPECT_EQ(s.stats().writeback_invalidations, 1u);
  EXPECT_TRUE(check_row(s, 0, 2));  // newest version is what's visible
}

TEST(VertexStore, OvercommitGrowsWhenEverythingPinned) {
  VertexStore s(256, 64, small_opts(4));
  // Pin one row in more pages than there are frames: the store must grow
  // past the budget (and count it) rather than fail or deadlock.
  std::vector<NodeId> rows;
  for (std::size_t p = 0; p < 8; ++p)
    rows.push_back(static_cast<NodeId>(p * 8));
  s.pin_rows(rows);
  EXPECT_GT(s.stats().overcommit_frames, 0u);
  for (NodeId r : rows) fill_row(s, r, 3);
  for (NodeId r : rows) EXPECT_TRUE(check_row(s, r, 3));
  s.unpin_rows(rows);
}

TEST(VertexStore, ResetZeroesEverythingIncludingSpill) {
  VertexStore s(256, 64, small_opts(4));
  for (std::size_t r = 0; r < 256; ++r) fill_row(s, r, 8);  // spills
  s.reset();
  for (std::size_t r = 0; r < 256; r += 13) {
    const std::byte* p = s.row(r);
    for (std::size_t i = 0; i < s.row_bytes(); ++i)
      EXPECT_EQ(p[i], std::byte{0});
  }
}

TEST(VertexStore, ConcurrentPinnedAccessIsRaceFree) {
  // The contract the engine relies on: lanes pin disjoint row sets, then
  // read/write them lock-free while other lanes fault and evict around
  // them. 4 threads x 64 rows over a 4-frame store.
  VertexStore s(1024, 64, small_opts(4));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&s, t] {
      std::vector<NodeId> mine;
      for (int i = 0; i < 64; ++i)
        mine.push_back(static_cast<NodeId>(t * 256 + i * 4));
      for (int round = 0; round < 20; ++round) {
        s.pin_rows(mine);
        for (NodeId r : mine) fill_row(s, r, static_cast<std::uint32_t>(t));
        for (NodeId r : mine)
          EXPECT_TRUE(check_row(s, r, static_cast<std::uint32_t>(t)));
        s.unpin_rows(mine);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < 4; ++t)
    for (int i = 0; i < 64; ++i)
      EXPECT_TRUE(check_row(s, static_cast<NodeId>(t * 256 + i * 4),
                            static_cast<std::uint32_t>(t)));
}

}  // namespace
}  // namespace tgnn::graph
