#ifndef NBCP_RUNTIME_THREADED_TRANSPORT_H_
#define NBCP_RUNTIME_THREADED_TRANSPORT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/clock.h"
#include "runtime/inflight.h"
#include "runtime/schedule_log.h"
#include "runtime/transport.h"

namespace nbcp {

/// Threaded implementation of the Transport seam: one worker thread per
/// site, each draining a bounded MPSC inbox of messages and tasks.
///
/// Delivery semantics match the simulated Network: sends from a down site
/// fail; a message's fate (delivered vs dropped for cut link / receiver
/// down) is resolved when the receiver *pops* it, not when it is sent; a
/// delivered message merges its causal stamp into the receiver before the
/// handler runs. There is no artificial channel delay — the DelayModel is
/// a property of the simulated network; here latency is whatever the
/// machine provides — and per-channel delivery is FIFO (the inbox is a
/// queue), which is a legal refinement of the paper's asynchronous model.
///
/// Backpressure: an inbox holds at most `inbox_capacity` items; a sender
/// blocks until space frees up. Two exceptions keep the system live: a
/// site enqueueing to itself bypasses the bound (blocking on your own
/// full inbox is a self-deadlock), and tasks (Post/PostSync) bypass it
/// too (they are control-plane: crash injection and timer dispatch must
/// not wait behind data traffic). Mutual sends between two sites with
/// both inboxes full can still deadlock in principle; the default
/// capacity (4096) is far above what any commit protocol round puts in
/// flight.
///
/// Threading contract: everything a handler touches (the participant's
/// protocol state) is only ever executed on the site's own worker thread —
/// messages and dispatched timers arrive through the inbox, and the
/// driver reaches per-site state via PostSync. Tasks run even while the
/// site is marked down; being "down" silences the protocol (messages are
/// dropped), not the machinery around it. Workers always run in parallel,
/// also with trace consumers attached: each site's events form blocks in
/// that site's own trace buffer (see TraceRecorder::BufferPerSite), and
/// the schedule log is put in causal order when read.
class ThreadedTransport : public Transport {
 public:
  struct Options {
    size_t inbox_capacity = 4096;
  };

  explicit ThreadedTransport(Clock* clock, Options options);
  explicit ThreadedTransport(Clock* clock)
      : ThreadedTransport(clock, Options{}) {}
  ~ThreadedTransport() override;

  ThreadedTransport(const ThreadedTransport&) = delete;
  ThreadedTransport& operator=(const ThreadedTransport&) = delete;

  /// Registers `site` and spawns its worker thread (first registration
  /// only; re-registering swaps the handler).
  Status RegisterSite(SiteId site, Handler handler) override;

  Status Send(Message msg) override;

  void SetSiteDown(SiteId site) override;
  void SetSiteUp(SiteId site) override;
  bool IsSiteUp(SiteId site) const override;
  void CutLink(SiteId a, SiteId b) override;
  void RestoreLink(SiteId a, SiteId b) override;

  std::vector<SiteId> Sites() const override;
  std::vector<SiteId> OperationalSites() const override;

  NetworkStats StatsSnapshot() const override;
  void ResetStats() override;

  void Post(SiteId site, std::function<void()> fn) override;
  void PostSync(SiteId site, std::function<void()> fn) override;

  void set_observer(Observer observer) override {
    observer_ = std::move(observer);
  }
  void set_link_observer(LinkObserver observer) override {
    link_observer_ = std::move(observer);
  }
  void set_metrics(MetricsRegistry* metrics) override { metrics_ = metrics; }
  void set_clocks(CausalClockDomain* clocks) override { clocks_ = clocks; }

  /// Setup-time wiring: queued items and running handlers count here.
  void set_inflight(InflightCounter* inflight) { inflight_ = inflight; }

  /// Setup-time wiring: deliveries are appended here with causal stamps
  /// (nullptr disables; see ScheduleLog).
  void set_schedule_log(ScheduleLog* log) { schedule_log_ = log; }

  /// High-water mark of any inbox, for the backpressure tests.
  size_t max_inbox_depth() const;

  /// Stops and joins all workers, discarding undrained items. Idempotent;
  /// also run by the destructor.
  void Shutdown();

 private:
  /// One inbox item: a protocol message or a control-plane task.
  struct Item {
    bool is_task = false;
    Message msg;
    std::function<void()> task;
  };

  /// Per-site worker state. Own mutex so senders to different sites do
  /// not contend; heap-allocated so pointers stay stable under map growth.
  struct SiteState {
    explicit SiteState(SiteId id) : site(id) {}

    const SiteId site;
    std::mutex m;
    std::condition_variable not_empty;
    std::condition_variable not_full;
    std::deque<Item> inbox;
    bool stop = false;
    Handler handler;          ///< Written at register time, read by worker.
    std::thread worker;
    std::thread::id worker_id;
  };

  void WorkerLoop(SiteState* state);
  void Deliver(SiteState* state, Message msg);
  /// Enqueues onto `state`'s inbox, honoring the bound unless the caller
  /// is the receiving worker itself or the item is a task. Returns false
  /// (after balancing the inflight counter) if the worker has stopped.
  bool Enqueue(SiteState* state, Item item, bool bounded);
  SiteState* FindSite(SiteId site) const;

  Clock* clock_;
  const size_t inbox_capacity_;

  /// Serializes net/delay_us histogram recording (see Deliver).
  std::mutex metrics_mu_;

  mutable std::mutex mu_;
  std::map<SiteId, std::unique_ptr<SiteState>> sites_;
  std::set<SiteId> down_sites_;
  std::set<std::pair<SiteId, SiteId>> cut_links_;
  NetworkStats stats_;
  uint64_t next_seq_ = 0;
  size_t max_inbox_depth_ = 0;
  bool shutdown_ = false;

  // Setup-time wiring; unguarded.
  Observer observer_;
  LinkObserver link_observer_;
  MetricsRegistry* metrics_ = nullptr;
  CausalClockDomain* clocks_ = nullptr;
  InflightCounter* inflight_ = nullptr;
  ScheduleLog* schedule_log_ = nullptr;
};

}  // namespace nbcp

#endif  // NBCP_RUNTIME_THREADED_TRANSPORT_H_
