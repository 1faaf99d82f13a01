// Clang thread-safety annotation macros — the compile-time half of the
// concurrency contract (DESIGN.md "Correctness tooling").
//
// The runtime has four independently-locked concurrent layers (shard
// locks, the serving queue, the thread pool, and the out-of-core
// VertexStore); TSan can only catch a lock violation a test happens to
// interleave, but clang's -Wthread-safety
// analysis proves lock discipline at compile time the way the paper's
// statically-scheduled dataflow proves hazard-freedom in hardware. The
// macros expand to clang capability attributes under clang and to nothing
// elsewhere, so gcc builds are untouched.
//
// Conventions (enforced by the dedicated CI job, which builds with
// -Wthread-safety -Werror=thread-safety):
//  * every mutex-protected member is TGNN_GUARDED_BY(mu_),
//  * every private helper that assumes the lock is TGNN_REQUIRES(mu_),
//  * every public method that takes the lock itself is TGNN_EXCLUDES(mu_),
//  * raw std::mutex / std::condition_variable are never used directly in
//    concurrent code — util/mutex.hpp wraps them in annotated capability
//    types (libstdc++'s are unannotated, so the analysis cannot see
//    through them).
#pragma once

#if defined(__clang__) && !defined(SWIG)
#define TGNN_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define TGNN_THREAD_ANNOTATION(x)  // no-op: analysis is clang-only
#endif

/// Marks a type as a lockable capability ("mutex", "shared mutex", ...).
#define TGNN_CAPABILITY(x) TGNN_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define TGNN_SCOPED_CAPABILITY TGNN_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding `x`.
#define TGNN_GUARDED_BY(x) TGNN_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is protected by `x`.
#define TGNN_PT_GUARDED_BY(x) TGNN_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function that acquires the capability (exclusively / shared).
#define TGNN_ACQUIRE(...) \
  TGNN_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define TGNN_ACQUIRE_SHARED(...) \
  TGNN_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// Function that releases the capability.
#define TGNN_RELEASE(...) \
  TGNN_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define TGNN_RELEASE_SHARED(...) \
  TGNN_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
/// Release either an exclusive or a shared hold (scoped-lock destructors).
#define TGNN_RELEASE_GENERIC(...) \
  TGNN_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

/// Function that acquires the capability iff it returns `b`.
#define TGNN_TRY_ACQUIRE(b, ...) \
  TGNN_THREAD_ANNOTATION(try_acquire_capability(b, __VA_ARGS__))

/// Caller must already hold the capability (exclusively / shared).
#define TGNN_REQUIRES(...) \
  TGNN_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define TGNN_REQUIRES_SHARED(...) \
  TGNN_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (the function acquires it itself —
/// the annotation that turns self-deadlock into a compile error).
#define TGNN_EXCLUDES(...) TGNN_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the given capability.
#define TGNN_RETURN_CAPABILITY(x) TGNN_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch, always paired with a comment explaining why the analysis
/// cannot see the invariant (e.g. lock-free publication protocols).
#define TGNN_NO_THREAD_SAFETY_ANALYSIS \
  TGNN_THREAD_ANNOTATION(no_thread_safety_analysis)
