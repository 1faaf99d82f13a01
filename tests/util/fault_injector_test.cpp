#include "util/fault_injector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace tgnn::util {
namespace {

/// Install an injector for one test and guarantee removal on every exit
/// path — a leaked global injector would poison later tests in the binary.
struct InjectorGuard {
  explicit InjectorGuard(std::uint64_t seed) : fi(seed) {
    set_fault_injector(&fi);
  }
  ~InjectorGuard() { set_fault_injector(nullptr); }
  FaultInjector fi;
};

/// Which of the first n checks at `site` fault, as a bitmap.
std::vector<bool> fault_pattern(FaultInjector& fi, FaultSite site,
                                std::size_t n) {
  std::vector<bool> hit(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    try {
      fi.check(site);
    } catch (const InjectedFault& e) {
      hit[i] = true;
      EXPECT_EQ(e.site(), site);
      EXPECT_EQ(e.ordinal(), i);
    }
  }
  return hit;
}

TEST(FaultInjector, UnarmedAndNullInjectorAreNoops) {
  // No global injector: the probe is a single load and never throws.
  ASSERT_EQ(fault_injector(), nullptr);
  EXPECT_NO_THROW(fault_point(FaultSite::kStageExec));

  // Installed but unarmed: checks pass and are not even counted.
  InjectorGuard g(1);
  EXPECT_NO_THROW(fault_point(FaultSite::kStageExec));
  EXPECT_NO_THROW(fault_point(FaultSite::kSpillRead));
  EXPECT_EQ(g.fi.injected(FaultSite::kStageExec), 0u);
}

TEST(FaultInjector, SameSeedSameSiteSamePattern) {
  // The determinism contract: whether check k faults depends only on
  // (seed, site, k) — two injectors with the same seed agree check by
  // check, which is what makes the CI fault matrix reproducible.
  FaultPlan plan;
  plan.probability = 0.4;
  const std::size_t kChecks = 200;

  FaultInjector a(42), b(42), c(43);
  a.arm(FaultSite::kStageExec, plan);
  b.arm(FaultSite::kStageExec, plan);
  c.arm(FaultSite::kStageExec, plan);
  const auto pa = fault_pattern(a, FaultSite::kStageExec, kChecks);
  const auto pb = fault_pattern(b, FaultSite::kStageExec, kChecks);
  const auto pc = fault_pattern(c, FaultSite::kStageExec, kChecks);
  EXPECT_EQ(pa, pb);
  EXPECT_NE(pa, pc);  // a different seed draws a different pattern

  // p = 0.4 over 200 draws: the count lands well inside [40, 120].
  const auto hits =
      static_cast<std::size_t>(std::count(pa.begin(), pa.end(), true));
  EXPECT_GT(hits, 40u);
  EXPECT_LT(hits, 120u);
  EXPECT_EQ(a.injected(FaultSite::kStageExec), hits);
  EXPECT_EQ(a.checks(FaultSite::kStageExec), kChecks);
}

TEST(FaultInjector, SitesKeepIndependentCounters) {
  // Arming one site never perturbs another — per-site ordinals are what
  // keeps injection stable under cross-site interleaving.
  FaultInjector fi(7);
  FaultPlan always;  // probability 1
  fi.arm(FaultSite::kSpillRead, always);
  EXPECT_NO_THROW(fi.check(FaultSite::kSpillWrite));
  EXPECT_THROW(fi.check(FaultSite::kSpillRead), InjectedFault);
  EXPECT_EQ(fi.checks(FaultSite::kSpillWrite), 1u);
  EXPECT_EQ(fi.injected(FaultSite::kSpillWrite), 0u);
  EXPECT_EQ(fi.injected(FaultSite::kSpillRead), 1u);
}

TEST(FaultInjector, MaxFaultsBoundsInjection) {
  FaultInjector fi(5);
  FaultPlan plan;  // probability 1
  plan.max_faults = 3;
  fi.arm(FaultSite::kSpillOpen, plan);
  std::size_t thrown = 0;
  for (int i = 0; i < 10; ++i) {
    try {
      fi.check(FaultSite::kSpillOpen);
    } catch (const InjectedFault&) {
      ++thrown;
    }
  }
  EXPECT_EQ(thrown, 3u);
  EXPECT_EQ(fi.injected(FaultSite::kSpillOpen), 3u);
  EXPECT_EQ(fi.checks(FaultSite::kSpillOpen), 10u);
}

TEST(FaultInjector, SkipFirstPlacesFaultMidStream) {
  FaultInjector fi(5);
  FaultPlan plan;  // probability 1
  plan.skip_first = 4;
  plan.max_faults = 1;
  fi.arm(FaultSite::kStageExec, plan);
  const auto hit = fault_pattern(fi, FaultSite::kStageExec, 8);
  const std::vector<bool> want = {false, false, false, false,
                                  true,  false, false, false};
  EXPECT_EQ(hit, want);
}

TEST(FaultInjector, TransientFlagRidesTheException) {
  FaultInjector fi(9);
  FaultPlan plan;
  plan.transient = false;
  fi.arm(FaultSite::kSpillOpen, plan);
  try {
    fi.check(FaultSite::kSpillOpen);
    FAIL() << "armed check did not throw";
  } catch (const InjectedFault& e) {
    EXPECT_FALSE(e.transient());
    EXPECT_EQ(e.site(), FaultSite::kSpillOpen);
    EXPECT_NE(std::string(e.what()).find(fault_site_name(e.site())),
              std::string::npos);
  }
}

TEST(FaultInjector, DisarmStopsInjection) {
  InjectorGuard g(3);
  g.fi.arm(FaultSite::kStageExec, FaultPlan{});
  EXPECT_THROW(fault_point(FaultSite::kStageExec), InjectedFault);
  g.fi.disarm(FaultSite::kStageExec);
  EXPECT_NO_THROW(fault_point(FaultSite::kStageExec));
}

TEST(FaultInjector, SiteNamesAreDistinct) {
  for (std::size_t i = 0; i < kNumFaultSites; ++i)
    for (std::size_t j = i + 1; j < kNumFaultSites; ++j)
      EXPECT_STRNE(fault_site_name(static_cast<FaultSite>(i)),
                   fault_site_name(static_cast<FaultSite>(j)));
}

}  // namespace
}  // namespace tgnn::util
