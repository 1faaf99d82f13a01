#include "util/fault_injector.hpp"

namespace tgnn::util {

namespace {

std::atomic<FaultInjector*> g_injector{nullptr};

/// SplitMix64 finalizer: a seeded stateless hash of the check ordinal, so
/// the fault decision for check k depends only on (seed, site, k).
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

const char* fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kStageExec: return "stage-exec";
    case FaultSite::kSpillRead: return "spill-read";
    case FaultSite::kSpillWrite: return "spill-write";
    case FaultSite::kSpillOpen: return "spill-open";
  }
  return "unknown";
}

InjectedFault::InjectedFault(FaultSite site, bool transient,
                             std::uint64_t ordinal)
    : std::runtime_error(std::string("injected ") +
                         (transient ? "transient" : "permanent") +
                         " fault at " + fault_site_name(site) + " (check #" +
                         std::to_string(ordinal) + ")"),
      site_(site),
      transient_(transient),
      ordinal_(ordinal) {}

void FaultInjector::arm(FaultSite site, FaultPlan plan) {
  SiteState& s = sites_[static_cast<std::size_t>(site)];
  s.plan = plan;
  s.armed.store(true, std::memory_order_release);
}

void FaultInjector::disarm(FaultSite site) {
  sites_[static_cast<std::size_t>(site)].armed.store(
      false, std::memory_order_release);
}

void FaultInjector::check(FaultSite site) {
  SiteState& s = sites_[static_cast<std::size_t>(site)];
  // The ordinal is claimed unconditionally so concurrent checks at one
  // site each get a distinct, stable decision.
  const std::uint64_t ordinal =
      s.checks.fetch_add(1, std::memory_order_relaxed);
  if (!s.armed.load(std::memory_order_acquire)) return;
  const FaultPlan& plan = s.plan;
  if (ordinal < plan.skip_first) return;
  if (plan.probability < 1.0) {
    const std::uint64_t h =
        mix(seed_ ^ (static_cast<std::uint64_t>(site) * 0x9e3779b97f4a7c15ULL)
            ^ (ordinal + 1));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    if (u >= plan.probability) return;
  }
  if (plan.max_faults != 0) {
    // Claim a fault slot; back off once the budget is spent.
    std::uint64_t n = s.injected.load(std::memory_order_relaxed);
    for (;;) {
      if (n >= plan.max_faults) return;
      if (s.injected.compare_exchange_weak(n, n + 1,
                                           std::memory_order_relaxed))
        break;
    }
  } else {
    s.injected.fetch_add(1, std::memory_order_relaxed);
  }
  throw InjectedFault(site, plan.transient, ordinal);
}

std::uint64_t FaultInjector::checks(FaultSite site) const {
  return sites_[static_cast<std::size_t>(site)].checks.load(
      std::memory_order_relaxed);
}

std::uint64_t FaultInjector::injected(FaultSite site) const {
  return sites_[static_cast<std::size_t>(site)].injected.load(
      std::memory_order_relaxed);
}

void set_fault_injector(FaultInjector* injector) {
  g_injector.store(injector, std::memory_order_release);
}

FaultInjector* fault_injector() {
  return g_injector.load(std::memory_order_acquire);
}

}  // namespace tgnn::util
