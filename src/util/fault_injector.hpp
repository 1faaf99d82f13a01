// Deterministic fault injection for the serving stack's failure paths.
//
// Production code marks its fallible seams with fault_point(site); with no
// injector installed that is a single relaxed atomic load and the whole
// harness costs nothing. Tests install a seeded FaultInjector and arm
// individual sites with a FaultPlan; an armed check throws InjectedFault,
// which the seam's owner must convert into a bounded retry (transient) or
// a clean typed failure (permanent) — never a deadlock, never a partial
// state commit.
//
// Determinism contract: whether check number k at a site faults depends
// only on (seed, site, k). Sites keep independent counters, so two runs
// that issue the same per-site check sequences inject the same faults,
// regardless of cross-site interleaving. That is what makes the CI fault
// matrix (seeds x sites) reproducible under TSan's scheduling noise.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace tgnn::util {

/// Where a fault can be injected. One enumerator per seam the runtime
/// guards; keep kNumFaultSites in sync.
enum class FaultSite : std::size_t {
  kStageExec = 0,      ///< backend stage / batch execution entry
  kSpillRead = 1,      ///< PagedFile::read_page
  kSpillWrite = 2,     ///< PagedFile::write_page
  kSpillOpen = 3,      ///< PagedFile::ensure_open (mkstemp/ftruncate/mmap)
};
inline constexpr std::size_t kNumFaultSites = 4;

[[nodiscard]] const char* fault_site_name(FaultSite site);

/// The typed error an armed fault_point throws. `transient()` faults are
/// the retryable class (the seam owner retries with bounded backoff);
/// permanent ones must surface as a typed request/batch failure.
class InjectedFault : public std::runtime_error {
 public:
  InjectedFault(FaultSite site, bool transient, std::uint64_t ordinal);

  [[nodiscard]] FaultSite site() const { return site_; }
  [[nodiscard]] bool transient() const { return transient_; }
  /// Which check at the site fired (0-based) — stable across reruns.
  [[nodiscard]] std::uint64_t ordinal() const { return ordinal_; }

 private:
  FaultSite site_;
  bool transient_;
  std::uint64_t ordinal_;
};

/// Per-site injection schedule.
struct FaultPlan {
  /// Probability that any one check faults (decided by a seeded hash of
  /// the check ordinal — no shared RNG stream, no ordering sensitivity).
  double probability = 1.0;
  /// Transient faults are retried by the seam owner; permanent ones fail
  /// the enclosing request/batch with a typed outcome.
  bool transient = true;
  /// Stop injecting after this many faults at the site (0 = unbounded).
  std::uint64_t max_faults = 0;
  /// Let the first N checks pass untouched (place a fault mid-stream).
  std::uint64_t skip_first = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(std::uint64_t seed) : seed_(seed) {}

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Arm/disarm a site. Not synchronized against concurrent check():
  /// install the full plan before starting the workload under test.
  void arm(FaultSite site, FaultPlan plan);
  void disarm(FaultSite site);

  /// The production-side probe: throws InjectedFault when the site's plan
  /// says this check faults. Thread-safe and lock-free.
  void check(FaultSite site);

  [[nodiscard]] std::uint64_t checks(FaultSite site) const;
  [[nodiscard]] std::uint64_t injected(FaultSite site) const;

 private:
  struct SiteState {
    std::atomic<bool> armed{false};
    FaultPlan plan;
    std::atomic<std::uint64_t> checks{0};
    std::atomic<std::uint64_t> injected{0};
  };

  std::uint64_t seed_;
  SiteState sites_[kNumFaultSites];
};

/// Install/remove the process-global injector (tests only; pass nullptr
/// to remove). The caller owns the injector and must keep it alive — and
/// quiesce the workload — across install/remove.
void set_fault_injector(FaultInjector* injector);
[[nodiscard]] FaultInjector* fault_injector();

/// The seam marker production code calls. No injector installed = one
/// relaxed load, no branch taken.
inline void fault_point(FaultSite site) {
  if (FaultInjector* fi = fault_injector(); fi != nullptr) fi->check(site);
}

}  // namespace tgnn::util
