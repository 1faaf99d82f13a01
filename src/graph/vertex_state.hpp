// Persistent per-vertex state of a memory-based TGNN (§II, §IV-A):
//
//  * VertexMemory — the node-memory table {s_v}: one f_mem vector per vertex
//    plus the timestamp of its last update (needed for the Δt fed to the
//    time encoder when the memory is next refreshed).
//  * VertexMailbox — the cached raw messages {m_v}: written when an edge
//    touches v, consumed by the GRU updater at v's NEXT event. Storing the
//    *raw* concatenation [s_v || s_other || f_e] plus the mail timestamp
//    (rather than a time-encoded vector) lets the consumer pick its own time
//    encoder — this is what makes the LUT-encoder substitution (§III-C) a
//    drop-in change.
//
// Both tables live in "external memory" from the accelerator's point of
// view; their row sizes feed the DDR traffic model.
//
// Since the out-of-core PR both tables sit on a graph::VertexStore: with
// the default (zero) budget the store is a single flat allocation and
// behaves exactly like the old std::vector members — stable row pointers,
// no locks, no counters. With a byte budget the store keeps only the hot
// pages resident and spills the rest (see vertex_store.hpp for the pin
// contract the engine follows in that regime). Record layout is
// [f64 timestamp][payload...] per row, so one spill round-trip moves the
// timestamp and the vector together and bit-exactly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/temporal_graph.hpp"
#include "graph/vertex_store.hpp"

namespace tgnn::graph {

class VertexMemory {
 public:
  VertexMemory(NodeId num_nodes, std::size_t dim,
               const VertexStoreOptions& store_opts = {});

  [[nodiscard]] std::size_t dim() const { return dim_; }
  [[nodiscard]] NodeId num_nodes() const { return num_nodes_; }

  [[nodiscard]] std::span<const float> get(NodeId v) const;
  void set(NodeId v, std::span<const float> value, double ts);

  /// Timestamp of the last memory update of v (0 before any update).
  [[nodiscard]] double last_update(NodeId v) const;

  void reset();
  /// Zero a single vertex's row (the per-shard reset primitive).
  void clear_row(NodeId v);

  [[nodiscard]] std::size_t row_bytes() const { return dim_ * sizeof(float); }
  /// Store-row stride for a given dim (timestamp + payload, 8-aligned);
  /// what a byte budget is actually spent on.
  [[nodiscard]] static std::size_t store_row_bytes(std::size_t dim) {
    return (sizeof(double) + dim * sizeof(float) + 7) & ~std::size_t{7};
  }

  // Out-of-core seam (all no-ops on an all-resident store).
  [[nodiscard]] bool out_of_core() const { return store_.out_of_core(); }
  void pin_rows(std::span<const NodeId> rows) { store_.pin_rows(rows); }
  void unpin_rows(std::span<const NodeId> rows) { store_.unpin_rows(rows); }
  [[nodiscard]] VertexStoreStats store_stats() const { return store_.stats(); }

 private:
  NodeId num_nodes_;
  std::size_t dim_;
  VertexStore store_;
};

class VertexMailbox {
 public:
  VertexMailbox(NodeId num_nodes, std::size_t raw_dim,
                const VertexStoreOptions& store_opts = {});

  [[nodiscard]] std::size_t raw_dim() const { return dim_; }
  [[nodiscard]] NodeId num_nodes() const { return num_nodes_; }

  /// True once v has received at least one message.
  [[nodiscard]] bool has_mail(NodeId v) const;
  [[nodiscard]] std::span<const float> mail(NodeId v) const;
  [[nodiscard]] double mail_ts(NodeId v) const;

  /// Overwrite v's cached message ("most-recent" aggregator: the newest
  /// message simply replaces the old one).
  void put(NodeId v, std::span<const float> raw, double ts);

  void reset();
  /// Drop a single vertex's cached message (the per-shard reset
  /// primitive). Clears payload, timestamp AND the valid byte — a cleared
  /// row is indistinguishable from a never-mailed one.
  void clear_row(NodeId v);

  [[nodiscard]] std::size_t row_bytes() const {
    return dim_ * sizeof(float) + sizeof(float);  // payload + timestamp
  }
  [[nodiscard]] static std::size_t store_row_bytes(std::size_t raw_dim) {
    return (sizeof(double) + raw_dim * sizeof(float) + 1 + 7) &
           ~std::size_t{7};
  }

  // Out-of-core seam (all no-ops on an all-resident store).
  [[nodiscard]] bool out_of_core() const { return store_.out_of_core(); }
  void pin_rows(std::span<const NodeId> rows) { store_.pin_rows(rows); }
  void unpin_rows(std::span<const NodeId> rows) { store_.unpin_rows(rows); }
  [[nodiscard]] VertexStoreStats store_stats() const { return store_.stats(); }

 private:
  NodeId num_nodes_;
  std::size_t dim_;
  VertexStore store_;
};

}  // namespace tgnn::graph
