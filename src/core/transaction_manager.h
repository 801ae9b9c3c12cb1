#ifndef NBCP_CORE_TRANSACTION_MANAGER_H_
#define NBCP_CORE_TRANSACTION_MANAGER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/concurrency_set.h"
#include "analysis/state_graph.h"
#include "common/result.h"
#include "core/failure_injector.h"
#include "core/metrics.h"
#include "core/participant.h"
#include "db/local_transaction.h"
#include "fsa/protocol_spec.h"
#include "net/failure_detector.h"
#include "net/network.h"
#include "obs/blocking.h"
#include "obs/metrics_registry.h"
#include "obs/observer.h"
#include "obs/span.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace nbcp {

/// Whole-system configuration.
struct SystemConfig {
  std::string protocol = "3PC-central";  ///< A registry name.
  size_t num_sites = 3;
  uint64_t seed = 42;
  DelayModel delay{/*base_delay=*/100, /*jitter=*/50};
  SimTime detection_delay = 500;
  ParticipantConfig participant;

  /// Execution backend behind the engine interface: kSim is the
  /// single-threaded discrete-event simulation (deterministic, virtual
  /// time); kThreaded runs one worker thread per site over the in-process
  /// threaded transport with wall-clock timers (see docs/runtime.md).
  enum class Backend { kSim, kThreaded };
  Backend backend = Backend::kSim;

  /// Threaded backend: per-site inbox bound; senders block (backpressure)
  /// when the receiver's inbox is full.
  size_t inbox_capacity = 4096;

  /// Threaded backend: log every protocol start and message delivery (with
  /// causal stamps) so the run's schedule can be replayed through
  /// nbcp-explore on the simulator.
  bool record_schedule = false;

  /// Threaded backend: how long AwaitQuiescence waits for the runtime to
  /// go idle before summarizing anyway.
  int64_t quiesce_timeout_ms = 30000;

  /// Population used for the concurrency analysis backing the termination
  /// decision rule. 0 = min(num_sites, 3). Same-role sites are symmetric,
  /// so a small analyzed population classifies states for any n (verified
  /// by the test suite).
  size_t analysis_sites = 0;

  /// Safety valve for AwaitQuiescence.
  size_t max_events_per_run = 5'000'000;

  /// Record a full protocol event trace (see trace/trace.h). Off by
  /// default; intended for examples, debugging and post-mortem test
  /// assertions, not benchmarks.
  bool trace = false;

  /// Ring-buffer capacity of the trace recorder; 0 = unbounded. With a
  /// bound, the oldest events are evicted (TraceRecorder::dropped() counts
  /// them) so long-running traced workloads keep the recent window.
  size_t trace_capacity = 0;

  /// Attach a GlobalStateObserver: per-transaction live global state,
  /// online invariant checks and (with `trace` also on) a global-state
  /// timeline plus violation events in the exported trace. Works without
  /// `trace` too — events are then consumed live and not retained.
  bool observe = false;

  /// What the observer does on a failed invariant check.
  ObserverPolicy observe_policy = ObserverPolicy::kLog;

  /// Emit "global-state" timeline events into the trace (off leaves only
  /// the invariant checks).
  bool observe_timeline = true;

  /// Attach a BlockingMonitor (see obs/blocking.h): per-site,
  /// per-transaction blocked spans with cause attribution, fed from the
  /// same event bus as the observer. Works with or without `trace` and
  /// `observe`; with `observe` on, every span open/close is cross-checked
  /// against the live global state.
  bool blocking = false;
};

/// The top-level facade: a simulated n-site distributed database running a
/// pluggable commit protocol, with failure injection, termination and
/// recovery — everything the paper describes, wired together.
///
/// Typical use:
///   auto system = CommitSystem::Create(config);
///   TransactionId txn = (*system)->Begin();
///   (*system)->SubmitOps(txn, ops);      // or SetVote(...) for vote-only
///   TxnResult result = (*system)->RunToCompletion(txn);
class CommitSystem {
 public:
  /// Creates a system running the registry protocol named by
  /// `config.protocol`.
  static Result<std::unique_ptr<CommitSystem>> Create(
      const SystemConfig& config);

  /// Creates a system running a caller-supplied protocol spec (e.g. one
  /// parsed from the text format or produced by buffer-state synthesis);
  /// `config.protocol` is ignored.
  static Result<std::unique_ptr<CommitSystem>> CreateWithSpec(
      const SystemConfig& config, ProtocolSpec spec);

  ~CommitSystem();

  // --- component access ---------------------------------------------------
  /// Sim backend only (null on the threaded backend — use clock()).
  Simulator& simulator() { return *sim_; }
  /// Sim backend only (null on the threaded backend — use transport()).
  Network& network() { return *network_; }

  /// The backend-agnostic seams every component runs against.
  Clock& clock() { return *clock_; }
  Transport& transport() { return *transport_; }

  /// True when running on the threaded backend.
  bool threaded() const { return runtime_ != nullptr; }

  /// The threaded runtime, or nullptr on the sim backend.
  ThreadedRuntime* runtime() { return runtime_.get(); }

  /// The run's Lamport/vector clocks, ticked by the network (send/deliver)
  /// and the simulator (timers); every trace event carries a sample. The
  /// vector part is kept only with trace, observe, blocking or
  /// record_schedule on; otherwise stamps are Lamport-only.
  CausalClockDomain& clocks() { return *clocks_; }
  const CausalClockDomain& clocks() const { return *clocks_; }
  FailureDetector& detector() { return *detector_; }
  FailureInjector& injector() { return *injector_; }
  Participant& participant(SiteId site) { return *participants_[site - 1]; }
  size_t num_sites() const { return config_.num_sites; }
  const ProtocolSpec& spec() const { return *spec_; }
  const ConcurrencyAnalysis& analysis() const { return *analysis_; }
  const SystemConfig& config() const { return config_; }
  SystemMetrics& metrics() { return metrics_; }

  /// Named counters, gauges and latency histograms fed by every layer
  /// (network, elections, termination, phase spans, per-txn results).
  MetricsRegistry& registry() { return registry_; }
  const MetricsRegistry& registry() const { return registry_; }

  /// Per-transaction, per-site commit-phase spans.
  SpanCollector& spans() { return spans_; }
  const SpanCollector& spans() const { return spans_; }

  /// The event recorder, or nullptr when both SystemConfig::trace and
  /// SystemConfig::observe are off. In observe-only mode the recorder
  /// stores nothing (store() is false) and acts as the observer's event
  /// bus.
  TraceRecorder* trace() { return trace_.get(); }

  /// The runtime invariant checker, or nullptr when SystemConfig::observe
  /// is off.
  GlobalStateObserver* observer() { return observer_.get(); }
  const GlobalStateObserver* observer() const { return observer_.get(); }

  /// The stall detector, or nullptr when SystemConfig::blocking is off.
  BlockingMonitor* blocking() { return blocking_.get(); }
  const BlockingMonitor* blocking() const { return blocking_.get(); }

  /// Prometheus text-exposition rendering of the registry, labelled with
  /// protocol/sites/seed, windowed at the current virtual time.
  std::string MetricsPrometheusText(SimTime window = 0) const;

  // --- structured export --------------------------------------------------

  /// Machine-readable snapshot of the registry plus simulator and network
  /// statistics, as a JSON document.
  std::string MetricsSnapshotJson(int indent = 2) const;

  /// The trace (events + spans) in JSON-lines form. Requires
  /// SystemConfig::trace; empty string when tracing is off.
  std::string TraceJsonl() const;

  /// The trace in Chrome trace_event form (load in chrome://tracing or
  /// Perfetto). Empty string when tracing is off.
  std::string TraceChromeJson() const;

  /// Writes TraceJsonl() / TraceChromeJson() to `path`.
  Status ExportTraceJsonl(const std::string& path) const;
  Status ExportTraceChrome(const std::string& path) const;

  // --- transaction API ----------------------------------------------------

  /// Allocates a transaction id.
  TransactionId Begin();

  /// Presets the vote of `site` for `txn`.
  void SetVote(TransactionId txn, SiteId site, bool vote);

  /// Distributes `ops` to their sites and executes the local portions.
  /// A failing site's portion makes that site vote no (status reported).
  Status SubmitOps(TransactionId txn, const std::vector<KvOp>& ops);

  /// Starts the commit protocol (the coordinator in the central-site
  /// paradigm; every site in the decentralized one). Does not advance
  /// virtual time.
  Status Launch(TransactionId txn);

  /// Sim backend: runs the simulator until the event queue drains (or the
  /// event cap is hit). Threaded backend: blocks until the runtime owes no
  /// work (empty inboxes, idle handlers, no pending timers), then merges
  /// the sites' trace buffers in causal order and feeds them to the
  /// observer/blocking monitor (TraceRecorder::FlushBuffers). Then summarizes
  /// `txn`; the result is also recorded in metrics().
  TxnResult AwaitQuiescence(TransactionId txn);

  /// Launch + AwaitQuiescence.
  TxnResult RunToCompletion(TransactionId txn);

  /// Snapshot of `txn`'s fate right now (no simulation).
  TxnResult Summarize(TransactionId txn) const;

 private:
  CommitSystem() = default;

  SystemConfig config_;
  std::unique_ptr<Simulator> sim_;              ///< Sim backend only.
  std::unique_ptr<ThreadedRuntime> runtime_;    ///< Threaded backend only.
  Clock* clock_ = nullptr;          ///< -> sim_ or runtime_->clock().
  Transport* transport_ = nullptr;  ///< -> network_ or runtime_->transport().
  std::unique_ptr<CausalClockDomain> clocks_;
  std::unique_ptr<Network> network_;            ///< Sim backend only.
  std::unique_ptr<FailureDetector> detector_;
  std::unique_ptr<ProtocolSpec> spec_;
  std::unique_ptr<ReachableStateGraph> graph_;
  std::unique_ptr<ConcurrencyAnalysis> analysis_;
  std::vector<std::unique_ptr<Participant>> participants_;
  std::unique_ptr<FailureInjector> injector_;
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<GlobalStateObserver> observer_;
  std::unique_ptr<BlockingMonitor> blocking_;
  SystemMetrics metrics_;
  MetricsRegistry registry_;
  SpanCollector spans_;
  uint64_t log_time_token_ = 0;

  TransactionId next_txn_ = 1;
  struct LaunchInfo {
    SimTime start_time = 0;
    uint64_t messages_before = 0;
  };
  std::map<TransactionId, LaunchInfo> launches_;
};

}  // namespace nbcp

#endif  // NBCP_CORE_TRANSACTION_MANAGER_H_
