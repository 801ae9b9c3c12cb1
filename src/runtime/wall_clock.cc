#include "runtime/wall_clock.h"

#include <utility>

namespace nbcp {

WallClock::WallClock(uint64_t seed)
    : epoch_(std::chrono::steady_clock::now()), rng_(seed) {
  timer_thread_ = std::thread([this] { TimerLoop(); });
}

WallClock::~WallClock() { Shutdown(); }

SimTime WallClock::now() const {
  return static_cast<SimTime>(std::chrono::duration_cast<std::chrono::microseconds>(
                                  std::chrono::steady_clock::now() - epoch_)
                                  .count());
}

EventId WallClock::ScheduleLabeled(SimTime delay, EventLabel label,
                                   std::function<void()> fn) {
  return ScheduleLabeledAt(now() + delay, std::move(label), std::move(fn));
}

EventId WallClock::ScheduleLabeledAt(SimTime at, EventLabel label,
                                     std::function<void()> fn) {
  // Count the timer before it becomes visible to the timer thread, so the
  // inflight count can never dip to zero while the timer is pending.
  if (inflight_ != nullptr) inflight_->Add(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) {
    if (inflight_ != nullptr) inflight_->Done();
    return 0;
  }
  EventId id = next_id_++;
  pending_.emplace(id, Entry{at, std::move(label), std::move(fn)});
  const bool new_earliest = by_time_.empty() || at < by_time_.begin()->first;
  by_time_.emplace(at, id);
  // Only a new earliest deadline moves the timer thread's wake-up time;
  // anything later is already covered by its current wait_until.
  if (new_earliest) cv_.notify_one();
  return id;
}

void WallClock::Cancel(EventId id) {
  bool erased = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pending_.find(id);
    if (it != pending_.end()) {
      auto [lo, hi] = by_time_.equal_range(it->second.at);
      for (auto bt = lo; bt != hi; ++bt) {
        if (bt->second == id) {
          by_time_.erase(bt);
          break;
        }
      }
      pending_.erase(it);
      erased = true;
      // No notify: the timer thread at worst wakes at the cancelled
      // deadline, sees nothing due, and re-sleeps.
    }
  }
  if (erased && inflight_ != nullptr) inflight_->Done();
}

size_t WallClock::PendingTimers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

void WallClock::TimerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (pending_.empty()) {
      cv_.wait(lock);
      continue;
    }
    auto first = by_time_.begin();
    if (first->first > now()) {
      cv_.wait_until(lock, epoch_ + std::chrono::microseconds(first->first));
      continue;  // Re-evaluate: an earlier timer, a Cancel, or Shutdown.
    }
    auto best = pending_.find(first->second);
    Entry entry = std::move(best->second);
    pending_.erase(best);
    by_time_.erase(first);
    lock.unlock();

    std::function<void()> fn = std::move(entry.fn);
    if (clocks_ != nullptr && entry.label.cls == EventClass::kTimer &&
        entry.label.site != kNoSite) {
      // Same rule as the simulator: a timer is a local event, so its
      // callback runs on post-tick clocks.
      fn = [clocks = clocks_, site = entry.label.site,
            inner = std::move(fn)]() {
        clocks->Tick(site);
        inner();
      };
    }
    if (dispatcher_ && entry.label.site != kNoSite) {
      // Hand the callback to the owning site's worker. The dispatcher
      // counts the new task before this timer's count is released.
      dispatcher_(entry.label.site, std::move(fn));
    } else {
      fn();
    }
    if (inflight_ != nullptr) inflight_->Done();

    lock.lock();
  }
}

void WallClock::Shutdown() {
  size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
    dropped = pending_.size();
    pending_.clear();
    by_time_.clear();
    cv_.notify_all();
  }
  if (timer_thread_.joinable()) timer_thread_.join();
  if (inflight_ != nullptr) {
    for (size_t i = 0; i < dropped; ++i) inflight_->Done();
  }
}

}  // namespace nbcp
