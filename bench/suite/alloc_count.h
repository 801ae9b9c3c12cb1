// Allocation counting for nbcp-bench. alloc_count.cc replaces the global
// operator new/delete of the nbcp-bench binary only; counting is off by
// default, so untraced timed runs pay one relaxed load per allocation.
#ifndef NBCP_BENCH_SUITE_ALLOC_COUNT_H_
#define NBCP_BENCH_SUITE_ALLOC_COUNT_H_

#include <cstdint>

namespace nbcp::bench {

/// Cumulative counters since the process started counting.
struct AllocSnapshot {
  uint64_t allocs = 0;
  uint64_t frees = 0;
  /// Usable bytes allocated minus usable bytes freed while counting was on.
  int64_t live_bytes = 0;
};

/// Turns counting on or off (all threads).
void SetAllocCounting(bool on);

AllocSnapshot AllocNow();

/// Counts allocations over a scope: Delta() is the change since
/// construction. Turns counting on for its lifetime.
class AllocScope {
 public:
  AllocScope() : start_(AllocNow()) { SetAllocCounting(true); }
  ~AllocScope() { SetAllocCounting(false); }
  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;

  AllocSnapshot Delta() const {
    AllocSnapshot now = AllocNow();
    return {now.allocs - start_.allocs, now.frees - start_.frees,
            now.live_bytes - start_.live_bytes};
  }

 private:
  AllocSnapshot start_;
};

}  // namespace nbcp::bench

#endif  // NBCP_BENCH_SUITE_ALLOC_COUNT_H_
