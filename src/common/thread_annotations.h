#ifndef NBCP_COMMON_THREAD_ANNOTATIONS_H_
#define NBCP_COMMON_THREAD_ANNOTATIONS_H_

// Clang thread-safety annotations (-Wthread-safety) plus the annotated
// Mutex/MutexLock wrappers the shared runtime classes lock with.
//
// This header is the concurrency contract ROADMAP item 1 (the threaded
// runtime) implements against: every class the threads will contend on
// (MetricsRegistry, TraceRecorder, SiteTransport, CausalClockDomain,
// FailureDetector, GlobalStateObserver, WindowedSeries) declares which
// mutex guards which member, and the CI thread-safety leg compiles with
// -Werror=thread-safety so a lock left out of a new code path is a build
// break, not a data race found in production.
//
// The macros expand to Clang attributes under __clang__ and to nothing
// elsewhere (GCC has no equivalent analysis), so annotated code builds
// unchanged on either compiler. The locking itself is real under both:
// today's discrete-event runtime is single-threaded, so the uncontended
// locks cost a few nanoseconds each; the annotations — not the runtime —
// are what this buys.
//
// Conventions used across the annotated classes:
//   * runtime-mutable state is GUARDED_BY(mu_); private helpers that assume
//     the lock take REQUIRES(mu_);
//   * setup-time wiring (set_sink, set_clocks, RegisterSite, ...) performed
//     before the run starts is documented as unguarded rather than locked;
//   * callbacks (trace sinks, network handlers, observers) are ALWAYS
//     invoked with no lock held — re-entry through another annotated class
//     must not deadlock;
//   * by-reference snapshot accessors kept for the single-threaded
//     analysis/export paths are marked NBCP_QUIESCENT_READ: valid only when
//     no other thread is mutating (end of run, tests, offline export).

#if defined(__clang__)
#define NBCP_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define NBCP_THREAD_ANNOTATION(x)  // GCC/MSVC: no analysis, no attribute.
#endif

#define NBCP_CAPABILITY(x) NBCP_THREAD_ANNOTATION(capability(x))
#define NBCP_SCOPED_CAPABILITY NBCP_THREAD_ANNOTATION(scoped_lockable)
#define NBCP_GUARDED_BY(x) NBCP_THREAD_ANNOTATION(guarded_by(x))
#define NBCP_PT_GUARDED_BY(x) NBCP_THREAD_ANNOTATION(pt_guarded_by(x))
#define NBCP_REQUIRES(...) \
  NBCP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define NBCP_REQUIRES_SHARED(...) \
  NBCP_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define NBCP_ACQUIRE(...) \
  NBCP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define NBCP_RELEASE(...) \
  NBCP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define NBCP_EXCLUDES(...) NBCP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define NBCP_RETURN_CAPABILITY(x) NBCP_THREAD_ANNOTATION(lock_returned(x))
#define NBCP_NO_THREAD_SAFETY_ANALYSIS \
  NBCP_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Marks a by-reference accessor into guarded state that is only valid when
/// no other thread is mutating the object (post-run export, tests, offline
/// analysis). The analysis is suppressed — the annotation is documentation
/// plus a grep anchor for the threaded-runtime work.
#define NBCP_QUIESCENT_READ NBCP_NO_THREAD_SAFETY_ANALYSIS

#include <mutex>

namespace nbcp {

/// std::mutex with the capability attribute so members can be declared
/// NBCP_GUARDED_BY(mu_) and helpers NBCP_REQUIRES(mu_).
class NBCP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() NBCP_ACQUIRE() { mu_.lock(); }
  void Unlock() NBCP_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// RAII scoped lock over Mutex (the annotated std::lock_guard).
class NBCP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) NBCP_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() NBCP_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

}  // namespace nbcp

#endif  // NBCP_COMMON_THREAD_ANNOTATIONS_H_
