// Shutdown races: stop() must terminate cleanly — no deadlock, no lost
// typed outcome, no use-after-stop — while submitters and drainers are
// racing it, in every scheduler mode and under every admission policy
// (including a submitter parked in a shed wait). Run under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "data/synthetic.hpp"
#include "runtime/serving.hpp"
#include "util/stopwatch.hpp"

namespace tgnn::runtime {
namespace {

data::Dataset tiny_ds() {
  data::SyntheticConfig dcfg;
  dcfg.num_users = 30;
  dcfg.num_items = 20;
  dcfg.num_edges = 400;
  dcfg.edge_dim = 7;
  dcfg.seed = 99;
  return data::make_synthetic(dcfg);
}

// A longer stream for the stop-vs-submit race: the submitter must still
// have work left when stop() lands mid-stream.
data::Dataset long_ds() {
  data::SyntheticConfig dcfg;
  dcfg.num_users = 30;
  dcfg.num_items = 20;
  dcfg.num_edges = 20000;
  dcfg.edge_dim = 7;
  dcfg.seed = 99;
  return data::make_synthetic(dcfg);
}

core::TgnModel tiny_model(const data::Dataset& ds) {
  core::ModelConfig cfg;
  cfg.mem_dim = 8;
  cfg.time_dim = 4;
  cfg.emb_dim = 6;
  cfg.edge_dim = ds.edge_dim();
  cfg.num_neighbors = 5;
  return core::TgnModel(cfg, 1);
}

struct ModeCase {
  const char* name;
  const char* key;
  std::size_t workers;
};

const ModeCase kModes[] = {
    {"serial", "cpu", 1},
    {"multi-worker", "sharded-cpu", 2},
};

ServingOptions mode_opts(const ModeCase& m) {
  ServingOptions opts;
  opts.max_batch = 8;
  opts.max_wait_s = 1e-4;
  opts.queue_capacity = 16;
  opts.workers = m.workers;
  return opts;
}

BackendOptions mode_bopts(const ModeCase& m) {
  BackendOptions bopts;
  if (m.workers > 1) bopts.threads = static_cast<int>(m.workers);
  return bopts;
}

TEST(ShutdownRace, StopVersusSubmit) {
  for (const auto& m : kModes) {
    SCOPED_TRACE(m.name);
    const auto ds = long_ds();
    const auto model = tiny_model(ds);
    auto backend = make_backend(m.key, model, ds, mode_bopts(m));
    ServingEngine server(*backend, mode_opts(m));

    std::atomic<std::size_t> submitted{0};
    std::thread submitter([&] {
      try {
        for (std::size_t i = 0; i < ds.num_edges(); ++i) {
          server.submit(i);
          submitted.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const std::logic_error&) {
        // stop() landed mid-stream — the expected exit.
      }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Stopwatch sw;
    server.stop();
    EXPECT_LT(sw.seconds(), 30.0);
    submitter.join();

    // Everything admitted before the stop was resolved, nothing invented.
    const auto s = server.stats();
    EXPECT_EQ(s.num_requests + s.num_failed,
              submitted.load(std::memory_order_relaxed));
    EXPECT_EQ(server.outcome_log().size(),
              submitted.load(std::memory_order_relaxed));
    EXPECT_THROW(server.submit(submitted.load()), std::logic_error);
  }
}

TEST(ShutdownRace, StopVersusDrain) {
  for (const auto& m : kModes) {
    SCOPED_TRACE(m.name);
    const auto ds = tiny_ds();
    const auto model = tiny_model(ds);
    auto backend = make_backend(m.key, model, ds, mode_bopts(m));
    ServingEngine server(*backend, mode_opts(m));

    for (std::size_t i = 0; i < 64; ++i) server.submit(i);
    std::thread drainer([&] { server.drain(); });
    server.stop();  // races the drain; both must return
    drainer.join();
    EXPECT_EQ(server.stats().num_requests + server.stats().num_failed, 64u);
  }
}

TEST(ShutdownRace, ConcurrentStopsAreIdempotent) {
  for (const auto& m : kModes) {
    SCOPED_TRACE(m.name);
    const auto ds = tiny_ds();
    const auto model = tiny_model(ds);
    auto backend = make_backend(m.key, model, ds, mode_bopts(m));
    ServingEngine server(*backend, mode_opts(m));
    for (std::size_t i = 0; i < 32; ++i) server.submit(i);

    std::thread other([&] { server.stop(); });
    server.stop();
    other.join();
    EXPECT_EQ(server.stats().num_requests + server.stats().num_failed, 32u);
  }
}

TEST(ShutdownRace, StopWhileSubmitterParkedInShedWait) {
  // A submitter blocked in the kShed bounded wait must be released by
  // stop() immediately — not after its full shed_wait_s.
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  ServingOptions opts;
  opts.queue_capacity = 1;
  opts.max_batch = 100;
  opts.max_wait_s = 30.0;  // the queue stays full
  opts.admission = AdmissionPolicy::kShed;
  opts.shed_wait_s = 30.0;  // a stop must not wait this out
  ServingEngine server(*backend, opts);

  ASSERT_TRUE(server.submit(0));
  std::atomic<bool> threw{false};
  std::thread submitter([&] {
    try {
      server.submit(1);  // parks in the shed wait (queue full)
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Stopwatch sw;
  server.stop();
  submitter.join();
  EXPECT_LT(sw.seconds(), 10.0);
  EXPECT_TRUE(threw.load());
  // The parked request was neither served nor shed — it never entered.
  EXPECT_EQ(server.stats().num_requests, 1u);
  EXPECT_EQ(server.stats().num_shed, 0u);
}

TEST(ShutdownRace, StopWhileSubmitterParkedInDeadlineBlock) {
  // Same for kDeadline, whose submit blocks like kBlock.
  const auto ds = tiny_ds();
  const auto model = tiny_model(ds);
  auto backend = make_backend("cpu", model, ds);
  ServingOptions opts;
  opts.queue_capacity = 1;
  opts.max_batch = 100;
  opts.max_wait_s = 30.0;
  opts.admission = AdmissionPolicy::kDeadline;
  opts.deadline_s = 60.0;  // nothing expires during the test
  ServingEngine server(*backend, opts);

  ASSERT_TRUE(server.submit(0));
  std::atomic<bool> threw{false};
  std::thread submitter([&] {
    try {
      server.submit(1);
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Stopwatch sw;
  server.stop();
  submitter.join();
  EXPECT_LT(sw.seconds(), 10.0);
  EXPECT_TRUE(threw.load());
  EXPECT_EQ(server.stats().num_requests, 1u);
}

}  // namespace
}  // namespace tgnn::runtime
