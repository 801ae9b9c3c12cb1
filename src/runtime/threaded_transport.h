#ifndef NBCP_RUNTIME_THREADED_TRANSPORT_H_
#define NBCP_RUNTIME_THREADED_TRANSPORT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/clock.h"
#include "runtime/inflight.h"
#include "runtime/schedule_log.h"
#include "runtime/site_transport.h"

namespace nbcp {

/// Threaded implementation of the Transport seam: one worker thread per
/// site, each draining a bounded MPSC inbox of messages and tasks.
///
/// The fault model is SiteTransport's; this class adds only the
/// scheduling. A message's fate is decided when the receiver's worker pops
/// it, so a crash or link cut while it sat in the inbox still drops it. A
/// message to an unknown receiver has no inbox and is dropped at once.
/// There is no artificial channel delay (the DelayModel is a property of
/// the simulated network; here latency is whatever the machine provides),
/// and per-channel delivery is FIFO (the inbox is a queue), which is a
/// legal refinement of the paper's asynchronous model.
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
class ThreadedTransport : public SiteTransport {
 public:
  struct Options {
    size_t inbox_capacity = 4096;
  };

  explicit ThreadedTransport(Clock* clock, Options options);
  explicit ThreadedTransport(Clock* clock)
      : ThreadedTransport(clock, Options{}) {}
  ~ThreadedTransport() override;

  /// Registers `site` and spawns its worker thread (first registration
  /// only; re-registering swaps the handler).
  Status RegisterSite(SiteId site, Handler handler) override;

  Status Send(Message msg) override;

  void Post(SiteId site, std::function<void()> fn) override;
  void PostSync(SiteId site, std::function<void()> fn) override;

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

  /// Per-site worker state, attached to the site's registry entry. Own
  /// mutex so senders to different sites do not contend.
  struct Inbox : Endpoint {
    std::mutex m;
    std::condition_variable not_empty;
    std::condition_variable not_full;
    std::deque<Item> items;
    size_t max_depth = 0;  ///< High-water mark of `items`.
    bool stop = false;
    std::thread worker;
    std::thread::id worker_id;
  };

  void WorkerLoop(Inbox* inbox);
  /// Enqueues onto `inbox`, honoring the bound unless the caller is the
  /// receiving worker itself or the item is a task. Returns false (after
  /// balancing the inflight counter, with `item` not moved from) if the
  /// worker has stopped.
  bool Enqueue(Inbox* inbox, Item&& item, bool bounded);
  Inbox* FindInbox(SiteId site) const {
    return static_cast<Inbox*>(EndpointOf(site));
  }

  const size_t inbox_capacity_;

  /// Orders registration against Shutdown: no worker starts after it.
  std::mutex register_mu_;
  bool shutdown_ = false;

  // Setup-time wiring; unguarded.
  InflightCounter* inflight_ = nullptr;
  ScheduleLog* schedule_log_ = nullptr;
};

}  // namespace nbcp

#endif  // NBCP_RUNTIME_THREADED_TRANSPORT_H_
