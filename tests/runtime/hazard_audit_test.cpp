// The serving scheduler's hazard-ledger audit: the admission invariant —
// no two in-flight batches with intersecting write footprints — restated
// over raw footprints and proven falsifiable. The engine-level integration
// (audit after every admission, on one lane or several) only runs under
// -DTGNN_CHECKED=ON; the primitive itself is always available, so its
// contract is pinned in every build.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "data/synthetic.hpp"
#include "runtime/serving.hpp"

namespace tgnn::runtime {
namespace {

using Footprint = std::vector<graph::NodeId>;

std::vector<std::span<const graph::NodeId>> views(
    const std::vector<Footprint>& fps) {
  return {fps.begin(), fps.end()};
}

TEST(HazardAudit, DisjointFootprintsPass) {
  const std::vector<Footprint> fps{{1, 2, 3}, {4, 5}, {}, {6}};
  audit_disjoint_footprints(views(fps));
  audit_disjoint_footprints({});  // vacuously disjoint
  SUCCEED();
}

TEST(HazardAuditDeathTest, IntersectingFootprintsAbort) {
  const std::vector<Footprint> fps{{1, 2, 3}, {4, 5}, {5, 6}};
  EXPECT_DEATH(audit_disjoint_footprints(views(fps)), "hazard audit");
  // A duplicate WITHIN one footprint is the same corruption (it would
  // double-mark the ledger and double-release at completion).
  const std::vector<Footprint> dup{{7, 8, 7}};
  EXPECT_DEATH(audit_disjoint_footprints(views(dup)), "hazard audit");
}

TEST(HazardAudit, CheckedServingRunsTheAuditCleanlyInBothExecutors) {
  // End-to-end: drive the executor both ways it runs (which, in checked
  // builds, audits the in-flight footprints at every admission) over a
  // real stream — the inline single lane, and two pool lanes under both
  // conflict policies. Passing means every admission the engine actually
  // made kept the footprints disjoint — in unchecked builds this degrades
  // to a plain serving smoke test.
  data::SyntheticConfig dcfg;
  dcfg.num_users = 40;
  dcfg.num_items = 25;
  dcfg.num_edges = 600;
  dcfg.edge_dim = 5;
  dcfg.seed = 11;
  const auto ds = data::make_synthetic(dcfg);

  core::ModelConfig cfg;
  cfg.mem_dim = 8;
  cfg.time_dim = 4;
  cfg.emb_dim = 6;
  cfg.edge_dim = ds.edge_dim();
  cfg.num_neighbors = 4;
  core::TgnModel model(cfg, 1);

  struct Input {
    const char* key;
    std::size_t workers;
    bool deterministic;
  };
  for (const Input& in : {Input{"cpu", 1, false},
                          Input{"sharded-cpu", 2, false},
                          Input{"sharded-cpu", 2, true}}) {
    BackendOptions bopts;
    bopts.threads = 2;
    auto backend = make_backend(in.key, model, ds, bopts);
    ServingOptions opts;
    opts.workers = in.workers;
    opts.deterministic = in.deterministic;
    opts.max_batch = 16;
    opts.max_wait_s = 0.0;  // dispatch eagerly: maximize concurrent batches
    ServingEngine engine(*backend, opts);
    for (std::size_t i = 0; i < 300; ++i) engine.submit(i);
    engine.drain();
    engine.stop();
    const auto stats = engine.stats();
    EXPECT_EQ(stats.num_requests, 300u)
        << in.key << " workers=" << in.workers
        << " deterministic=" << in.deterministic;
  }
}

}  // namespace
}  // namespace tgnn::runtime
