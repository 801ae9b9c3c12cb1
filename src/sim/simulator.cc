#include "sim/simulator.h"

#include "sim/schedule.h"

namespace nbcp {

size_t Simulator::Run(size_t max_events) {
  size_t executed = 0;
  while (executed < max_events && !queue_.Empty()) {
    SimTime t;
    auto fn = queue_.Pop(&t);
    now_ = t;
    fn();
    ++executed;
    ++stats_.events_executed;
  }
  return executed;
}

size_t Simulator::RunUntil(SimTime until) {
  size_t executed = 0;
  while (!queue_.Empty() && queue_.NextTime() <= until) {
    SimTime t;
    auto fn = queue_.Pop(&t);
    now_ = t;
    fn();
    ++executed;
    ++stats_.events_executed;
  }
  if (now_ < until) now_ = until;
  return executed;
}

size_t Simulator::RunControlled(ScheduleStrategy& strategy,
                                size_t max_events) {
  size_t executed = 0;
  while (executed < max_events && !queue_.Empty()) {
    EventId choice = strategy.ChooseNext(*this, queue_.Pending());
    if (choice == kStopRun) break;
    SimTime t;
    EventAction fn;
    if (choice == 0) {
      fn = queue_.Pop(&t);
    } else {
      fn = queue_.PopById(choice, &t);
      if (!fn) break;  // Strategy picked a dead id; nothing sane to fire.
    }
    if (t > now_) now_ = t;
    fn();
    ++executed;
    ++stats_.events_executed;
  }
  return executed;
}

bool Simulator::FireEvent(EventId id) {
  SimTime t;
  auto fn = queue_.PopById(id, &t);
  if (!fn) return false;
  if (t > now_) now_ = t;
  fn();
  ++stats_.events_executed;
  return true;
}

bool Simulator::Step() {
  if (queue_.Empty()) return false;
  SimTime t;
  auto fn = queue_.Pop(&t);
  now_ = t;
  fn();
  ++stats_.events_executed;
  return true;
}

}  // namespace nbcp
