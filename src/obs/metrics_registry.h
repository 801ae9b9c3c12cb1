#ifndef NBCP_OBS_METRICS_REGISTRY_H_
#define NBCP_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "common/thread_annotations.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/timeseries.h"

namespace nbcp {

/// Monotonically increasing named counter. Lock-free: increments are
/// relaxed atomics (counters are statistics, not synchronization).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins named value (queue depths, rates, configuration echoes).
/// Lock-free: loads and stores are relaxed atomics.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double v) { value_.fetch_add(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Named metrics for one system: counters, gauges, and log-bucketed latency
/// histograms. Subsumes the ad-hoc SystemMetrics counters: every component
/// (network, participants, termination, election, failure injector) records
/// into the registry owned by its CommitSystem, and benchmarks snapshot it
/// as JSON so trajectories can be tracked across PRs.
///
/// Metric names are slash-separated paths, e.g. "phase/vote/latency_us",
/// "net/delay_us", "txn/committed". Lookup creates on first use, so
/// instrumentation sites need no registration step.
///
/// Thread safety: mu_ guards the *map structure* (lookup-or-create), and
/// std::map node stability keeps returned references valid across later
/// insertions, and no metric is ever erased, so a reference is valid for
/// the registry's lifetime (the transports resolve theirs once). Counters and gauges are atomic and WindowedSeries locks
/// internally, so the references handed out by counter()/gauge()/series()
/// are safe to use concurrently. LatencyHistogram is intentionally
/// unsynchronized — the aggregation contract is one writer per histogram
/// (per-thread/per-run registries folded together with Merge), matching how
/// the benchmarks already use it. The by-reference map accessors are for
/// the single-threaded export paths, valid only while nothing is recording.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name) NBCP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return counters_[name];
  }
  Gauge& gauge(const std::string& name) NBCP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return gauges_[name];
  }
  LatencyHistogram& histogram(const std::string& name) NBCP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return histograms_[name];
  }

  /// Windowed time series over virtual time (see obs/timeseries.h): the
  /// first lookup of `name` creates the series with `config`; later
  /// lookups return the existing one (their config argument is ignored).
  WindowedSeries& series(const std::string& name, SeriesConfig config = {})
      NBCP_EXCLUDES(mu_);

  const std::map<std::string, Counter>& counters() const NBCP_QUIESCENT_READ {
    return counters_;
  }
  const std::map<std::string, Gauge>& gauges() const NBCP_QUIESCENT_READ {
    return gauges_;
  }
  const std::map<std::string, LatencyHistogram>& histograms() const
      NBCP_QUIESCENT_READ {
    return histograms_;
  }
  const std::map<std::string, WindowedSeries>& all_series() const
      NBCP_QUIESCENT_READ {
    return series_;
  }

  /// Adds every metric of `other` into this registry (counters and
  /// histograms accumulate; gauges take `other`'s value). Benchmarks use
  /// this to aggregate per-run registries into one per-cell snapshot.
  /// Locks this registry, then `other` — do not merge two registries into
  /// each other concurrently.
  void Merge(const MetricsRegistry& other) NBCP_EXCLUDES(mu_);

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,p50,...}}}
  Json ToJson() const NBCP_EXCLUDES(mu_);

  /// Human-readable multi-line rendering, sorted by name.
  std::string ToString() const NBCP_EXCLUDES(mu_);

 private:
  /// Lookup-or-create for series_, for callers already holding mu_.
  WindowedSeries& SeriesSlot(const std::string& name, SeriesConfig config)
      NBCP_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<std::string, Counter> counters_ NBCP_GUARDED_BY(mu_);
  std::map<std::string, Gauge> gauges_ NBCP_GUARDED_BY(mu_);
  std::map<std::string, LatencyHistogram> histograms_ NBCP_GUARDED_BY(mu_);
  std::map<std::string, WindowedSeries> series_ NBCP_GUARDED_BY(mu_);
};

}  // namespace nbcp

#endif  // NBCP_OBS_METRICS_REGISTRY_H_
