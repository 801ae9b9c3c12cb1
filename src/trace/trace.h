#ifndef NBCP_TRACE_TRACE_H_
#define NBCP_TRACE_TRACE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/causal_clock.h"
#include "common/thread_annotations.h"
#include "common/types.h"

namespace nbcp {

/// Kind of a recorded protocol event.
enum class TraceEventType : uint8_t {
  kProtocolStart = 0,  ///< Client request reached a site.
  kStateChange,        ///< Local FSA moved (detail = new state name).
  kVoteCast,           ///< Site voted (detail = "yes"/"no").
  kDecision,           ///< Final commit/abort at a site.
  kMessageSent,        ///< detail = "type->to".
  kMessageDelivered,   ///< detail = "type<-from".
  kMessageDropped,     ///< Receiver down / link cut.
  kCrash,              ///< Site went down.
  kRecover,            ///< Site came back.
  kTerminationStart,   ///< Termination protocol engaged at a site.
  kTerminationDecide,  ///< Termination decided (detail = outcome).
  kBlocked,            ///< Termination concluded "blocked".
  kElectionWon,        ///< detail = leader id.
  kLinkCut,            ///< Network link severed (detail = "a-b").
  kLinkRestored,       ///< Network link healed (detail = "a-b").
  kGlobalState,        ///< Observer timeline entry (detail = rendering).
  kInvariantViolation, ///< Observer check failed (detail = "kind: ...").
};

std::string ToString(TraceEventType type);

/// Inverse of ToString (trace reimport); false when `name` is unknown.
bool TraceEventTypeFromString(const std::string& name, TraceEventType* out);

/// One recorded event.
struct TraceEvent {
  SimTime at = 0;
  SiteId site = kNoSite;          ///< Site the event happened at (0 = system).
  TransactionId txn = kNoTransaction;  ///< 0 = not transaction-scoped.
  TraceEventType type = TraceEventType::kStateChange;
  std::string detail;

  /// Message-event correlation: the network stamps every accepted send with
  /// a unique sequence number, and the matching deliver/drop event carries
  /// the same value. 0 = not a message event.
  uint64_t seq = 0;

  /// Causal timestamp of the event's site at recording time (empty when
  /// clocks are not wired). Send events carry the sender's post-send stamp,
  /// deliveries the receiver's post-merge stamp — so for any two events,
  /// vector-clock order decides happens-before.
  ClockStamp stamp;
};

/// In-memory recorder for protocol events, with human-readable rendering.
///
/// Enable via SystemConfig::trace; CommitSystem then wires every
/// participant, the network and the failure injector into one recorder.
/// Intended for examples, debugging and post-mortem assertions in tests —
/// benchmarks should leave it off, or cap memory with a ring-buffer
/// capacity (SystemConfig::trace_capacity) for soak/throughput runs.
///
/// Two recording paths:
///   * Direct (the default; the simulator): Record stores the event under
///     mu_, then invokes the sink with the lock released — a sink may
///     itself Record (observer chains) without deadlocking.
///   * Per-site buffers (BufferPerSite; the threaded backend): Record
///     appends to the recording site's own buffer under that buffer's own
///     lock, so workers never contend with each other. FlushBuffers, at a
///     quiescence point, merges the buffers into one causal linearization
///     (MergeSiteBuffers), feeds it to the sink and stores it.
///
/// set_clocks/set_sink/set_store/BufferPerSite are setup-time wiring;
/// events() is a by-reference view for the single-threaded export paths,
/// valid only while nothing is recording.
class TraceRecorder {
 public:
  /// `capacity` = maximum retained events; 0 = unbounded (the default).
  /// When full, recording a new event evicts the oldest one.
  explicit TraceRecorder(size_t capacity = 0) : capacity_(capacity) {}
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void Record(SimTime at, SiteId site, TransactionId txn,
              TraceEventType type, std::string detail = "", uint64_t seq = 0);

  /// Causal-clock source (not owned; nullptr detaches). When attached,
  /// every recorded site event is stamped with that site's current clock —
  /// the transports tick the domain (send/deliver/timer), the recorder only
  /// samples, so stamping works identically under any transport.
  void set_clocks(const CausalClockDomain* clocks) { clocks_ = clocks; }

  /// Tap invoked for every recorded event, after it is stored: live on the
  /// direct path, at FlushBuffers with per-site buffers. The
  /// GlobalStateObserver subscribes here; events the sink itself records
  /// re-enter Record (and the sink) — sinks must ignore their own kinds.
  void set_sink(std::function<void(const TraceEvent&)> sink) {
    sink_ = std::move(sink);
  }

  /// When storing is off, Record only forwards to the sink — this is how a
  /// system observes without retaining the full event log (observe-only
  /// mode; benchmarks and long soaks).
  void set_store(bool store) { store_ = store; }
  bool store() const { return store_; }

  /// Switches to per-site buffers for sites 1..num_sites (the threaded
  /// backend, one worker per site). Events of other sites (kNoSite: link
  /// cut and restore) share one buffer in recording order. Nothing reaches
  /// the store or the sink until FlushBuffers.
  void BufferPerSite(size_t num_sites);

  /// Per-site buffers only; call at a quiescence point, from one thread at
  /// a time. Merges the buffers (MergeSiteBuffers), feeds the batch to the
  /// sink by reference and then stores it (when storing is on). Events the
  /// sink records meanwhile (observer timeline and violations) are fed and
  /// stored after the batch, in recording order.
  void FlushBuffers();

  const std::deque<TraceEvent>& events() const NBCP_QUIESCENT_READ {
    return events_;
  }
  void Clear() NBCP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    events_.clear();
  }

  size_t capacity() const NBCP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return capacity_;
  }
  void set_capacity(size_t capacity);

  /// Events evicted so far due to the capacity limit.
  uint64_t dropped() const NBCP_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return dropped_;
  }

  /// Events of one transaction, in order.
  std::vector<TraceEvent> ForTransaction(TransactionId txn) const;

  /// Chronological rendering:
  ///   t=300us  site 2  [state-change]  w
  /// Pass kNoTransaction to include everything.
  std::string Render(TransactionId txn = kNoTransaction) const;

  /// Per-site swimlane rendering for one transaction: one column per site
  /// (1..n), one row per event.
  std::string RenderLanes(TransactionId txn, size_t n) const;

  /// Count of events of `type` (optionally transaction-scoped).
  size_t Count(TraceEventType type,
               TransactionId txn = kNoTransaction) const;

 private:
  /// One site's events since the last flush. Aligned so that workers
  /// appending to neighbouring buffers do not share a cache line.
  struct alignas(64) SiteBuffer {
    Mutex mu;
    std::vector<TraceEvent> events NBCP_GUARDED_BY(mu);
  };

  void Store(TraceEvent event) NBCP_REQUIRES(mu_);

  mutable Mutex mu_;
  std::deque<TraceEvent> events_ NBCP_GUARDED_BY(mu_);
  size_t capacity_ NBCP_GUARDED_BY(mu_) = 0;
  uint64_t dropped_ NBCP_GUARDED_BY(mu_) = 0;

  // Setup-time wiring; unguarded (see class comment).
  const CausalClockDomain* clocks_ = nullptr;
  bool store_ = true;
  std::function<void(const TraceEvent&)> sink_;

  /// Per-site buffers: [0] = events of no site, [s] = site s. Empty on the
  /// direct path.
  std::vector<std::unique_ptr<SiteBuffer>> buffers_;
  // Used only by the flushing thread: the emptied buffers swapped in at the
  // next flush (keeping their capacity), and the events recorded by the
  // sink during a flush.
  std::vector<std::vector<TraceEvent>> flushed_;
  std::vector<TraceEvent> spill_;
};

/// Merges one batch of per-site buffers into a linearization of the run:
/// `buffers[0]` holds the events of no site in recording order, and
/// `buffers[s]` site s's events in its own order.
///
/// A block opens at each delivery, drop or protocol start of a site; every
/// other event joins its site's open block (no message reaches the site in
/// between). The events of no site come first. Then the head block of some
/// site is emitted, repeatedly: a head is ready unless it opens with a
/// delivery or drop whose send (matched by seq) is in this batch and not
/// emitted yet, and among the ready heads the lowest Lamport value of the
/// opening event wins, then the lowest site. The result keeps every site's
/// order, keeps blocks whole and puts every send before its delivery or
/// drop. Lamport order alone would not: a drop at a crashed receiver
/// carries the receiver's unmerged stamp, which can be below its send's.
///
/// Events are moved out of `*buffers`; the vectors are left for the caller
/// to clear.
std::vector<TraceEvent> MergeSiteBuffers(
    std::vector<std::vector<TraceEvent>>* buffers);

}  // namespace nbcp

#endif  // NBCP_TRACE_TRACE_H_
