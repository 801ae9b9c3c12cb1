#ifndef NBCP_SIM_SIMULATOR_H_
#define NBCP_SIM_SIMULATOR_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/causal_clock.h"
#include "common/rng.h"
#include "common/types.h"
#include "runtime/clock.h"
#include "sim/event_queue.h"

namespace nbcp {

class ScheduleStrategy;

/// Lifetime counters of one Simulator, for observability snapshots.
struct SimStats {
  size_t events_executed = 0;
  size_t events_scheduled = 0;
  size_t max_queue_depth = 0;
};

/// Single-threaded discrete-event simulator: the virtual-time
/// implementation of the Clock seam.
///
/// All nbcp runtime components (network, sites, failure injector) share one
/// Simulator. Virtual time advances only between events; within an event
/// callback, `now()` is constant. Determinism: given the same seed and the
/// same scheduling sequence, a run is bit-for-bit reproducible.
class Simulator : public Clock {
 public:
  explicit Simulator(uint64_t seed = 42) : rng_(seed) {}

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current virtual time.
  SimTime now() const override { return now_; }

  /// Shared deterministic RNG.
  Rng& rng() override { return rng_; }

  /// Schedules `fn` to run `delay` microseconds from now.
  EventId ScheduleAfter(SimTime delay, std::function<void()> fn) {
    EventId id = queue_.Push(now_ + delay, std::move(fn));
    NoteScheduled();
    return id;
  }

  /// Schedules `fn` to run `delay` microseconds from now, tagged with an
  /// exploration label (see EventLabel). Labels never affect execution —
  /// except that, with a clock domain attached, a timer firing at a site
  /// ticks that site's causal clock first (a timer is a local event: its
  /// callback, and everything it records, runs on post-tick clocks).
  EventId ScheduleLabeled(SimTime delay, EventLabel label,
                          std::function<void()> fn) override {
    fn = WrapTimerTick(label, std::move(fn));
    EventId id = queue_.Push(now_ + delay, std::move(label), std::move(fn));
    NoteScheduled();
    return id;
  }

  /// Schedules the delivery of `msg` `delay` microseconds from now: the
  /// event calls `deliver(target, msg)`, with no closure built. Its label,
  /// derived from the message, is what Pending() shows.
  EventId ScheduleDelivery(SimTime delay, DeliverFn deliver, void* target,
                           Message msg) {
    EventId id = queue_.PushDelivery(now_ + delay, deliver, target,
                                     std::move(msg));
    NoteScheduled();
    return id;
  }

  /// Attaches the run's causal clocks (not owned; nullptr detaches). Only
  /// timer firings scheduled *after* this call tick the clock.
  void set_clocks(CausalClockDomain* clocks) override { clocks_ = clocks; }

  /// Schedules `fn` at absolute virtual time `at` (clamped to >= now).
  EventId ScheduleAt(SimTime at, std::function<void()> fn) {
    if (at < now_) at = now_;
    EventId id = queue_.Push(at, std::move(fn));
    NoteScheduled();
    return id;
  }

  /// Labeled variant of ScheduleAt, same timer-tick semantics as
  /// ScheduleLabeled.
  EventId ScheduleLabeledAt(SimTime at, EventLabel label,
                            std::function<void()> fn) override {
    if (at < now_) at = now_;
    fn = WrapTimerTick(label, std::move(fn));
    EventId id = queue_.Push(at, std::move(label), std::move(fn));
    NoteScheduled();
    return id;
  }

  /// Virtual time: the simulator backend.
  bool virtual_time() const override { return true; }

  /// Cancels a scheduled event.
  void Cancel(EventId id) override { queue_.Cancel(id); }

  /// Runs events until the queue drains or `max_events` fire.
  /// Returns the number of events executed.
  size_t Run(size_t max_events = SIZE_MAX);

  /// Runs events with timestamp <= `until`. Virtual time ends at `until`
  /// (or earlier if the queue drains). Returns events executed.
  size_t RunUntil(SimTime until);

  /// Executes exactly one event if available. Returns true if one ran.
  bool Step();

  /// Runs events with the strategy choosing each one, until the queue
  /// drains, `max_events` fire, or the strategy returns kStopRun. Choosing
  /// an event whose timestamp is in the "future" advances virtual time to
  /// it; choosing one "behind" the clock runs it at the current time (time
  /// never rewinds). Returns events executed.
  size_t RunControlled(ScheduleStrategy& strategy,
                       size_t max_events = SIZE_MAX);

  /// Fires the pending event `id` immediately, advancing virtual time to
  /// max(now, its timestamp). Returns false if `id` is not pending.
  bool FireEvent(EventId id);

  /// Number of pending events.
  size_t PendingEvents() const { return queue_.Size(); }

  /// Snapshot of all pending events in default pop order (time, seq).
  std::vector<PendingEvent> Pending() const { return queue_.Pending(); }

  const SimStats& stats() const { return stats_; }

 private:
  /// With a clock domain attached, a timer firing at a site ticks that
  /// site's causal clock before the callback runs (a timer is a local
  /// event: its callback, and everything it records, runs on post-tick
  /// clocks).
  std::function<void()> WrapTimerTick(const EventLabel& label,
                                      std::function<void()> fn) {
    if (clocks_ != nullptr && label.cls == EventClass::kTimer &&
        label.site != kNoSite) {
      return [clocks = clocks_, site = label.site, inner = std::move(fn)]() {
        clocks->Tick(site);
        inner();
      };
    }
    return fn;
  }

  void NoteScheduled() {
    ++stats_.events_scheduled;
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.Size());
  }

  EventQueue queue_;
  SimTime now_ = 0;
  Rng rng_;
  SimStats stats_;
  CausalClockDomain* clocks_ = nullptr;
};

}  // namespace nbcp

#endif  // NBCP_SIM_SIMULATOR_H_
