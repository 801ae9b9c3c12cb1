#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "net/network.h"
#include "sim/event_queue.h"
#include "sim/schedule.h"
#include "sim/simulator.h"

namespace nbcp {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(300, [&] { order.push_back(3); });
  q.Push(100, [&] { order.push_back(1); });
  q.Push(200, [&] { order.push_back(2); });
  SimTime t;
  while (!q.Empty()) q.Pop(&t)();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesAreFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Push(100, [&order, i] { order.push_back(i); });
  }
  SimTime t;
  while (!q.Empty()) q.Pop(&t)();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventId id = q.Push(100, [&] { ran = true; });
  q.Cancel(id);
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelMiddleEventSkipsOnlyIt) {
  EventQueue q;
  std::vector<int> order;
  q.Push(100, [&] { order.push_back(1); });
  EventId id = q.Push(200, [&] { order.push_back(2); });
  q.Push(300, [&] { order.push_back(3); });
  q.Cancel(id);
  EXPECT_EQ(q.Size(), 2u);
  SimTime t;
  while (!q.Empty()) q.Pop(&t)();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, CancelIsIdempotentAndIgnoresBogusIds) {
  EventQueue q;
  EventId id = q.Push(100, [] {});
  q.Cancel(id);
  q.Cancel(id);
  q.Cancel(0);
  q.Cancel(999999);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, SizeCountsLiveEvents) {
  EventQueue q;
  EventId a = q.Push(1, [] {});
  q.Push(2, [] {});
  EXPECT_EQ(q.Size(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.Size(), 1u);
}

TEST(EventQueueTest, EqualTimesStayFifoAcrossInterleavedPops) {
  // The documented tie-break: equal-SimTime events pop in Push order
  // (monotonic sequence number), even when pops interleave with pushes.
  EventQueue q;
  std::vector<int> order;
  q.Push(100, [&] { order.push_back(0); });
  q.Push(100, [&] { order.push_back(1); });
  SimTime t;
  q.Pop(&t)();
  q.Push(100, [&] { order.push_back(2); });
  q.Push(50, [&] { order.push_back(3); });  // Earlier time still wins.
  while (!q.Empty()) q.Pop(&t)();
  EXPECT_EQ(order, (std::vector<int>{0, 3, 1, 2}));
}

TEST(EventQueueTest, CancelAfterFireDoesNotCorruptSize) {
  // Regression: cancelling an id that already popped used to be recorded
  // as a pending cancellation and corrupted Size() / Empty().
  EventQueue q;
  EventId id = q.Push(100, [] {});
  q.Push(200, [] {});
  SimTime t;
  q.Pop(&t)();     // Fires `id`.
  q.Cancel(id);    // Must be a strict no-op now.
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_FALSE(q.Empty());
  q.Pop(&t)();
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
}

TEST(EventQueueTest, PendingExposesLabelsAndPopByIdSelects) {
  EventQueue q;
  std::vector<int> order;
  EventLabel d;
  d.cls = EventClass::kDelivery;
  d.site = 2;
  d.from = 1;
  d.msg_type = "yes";
  q.Push(100, [&] { order.push_back(0); });
  EventId id = q.Push(100, d, [&] { order.push_back(1); });
  ASSERT_EQ(q.Pending().size(), 2u);
  EXPECT_TRUE(q.Contains(id));

  // Out-of-order selection by id: the chosen event fires, the rest keep
  // their documented order, and the fired id is no longer pending.
  SimTime t = 0;
  q.PopById(id, &t)();
  EXPECT_EQ(t, 100u);
  EXPECT_FALSE(q.Contains(id));
  ASSERT_EQ(q.Pending().size(), 1u);
  EXPECT_EQ(q.Pending()[0].label.cls, EventClass::kInternal);
  EXPECT_FALSE(q.PopById(id, &t));  // Dead id: empty function.
  q.Pop(&t)();
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(EventQueueTest, IdsAreNeverReissued) {
  // Slots are reused after a pop and the storage is released whenever the
  // queue drains; ids must still be unique and ascend in push order.
  EventQueue q;
  std::set<EventId> seen;
  EventId last = 0;
  auto push = [&](SimTime at) {
    EventId id = q.Push(at, [] {});
    EXPECT_GT(id, last);
    EXPECT_TRUE(seen.insert(id).second) << "id " << id << " reissued";
    last = id;
    return id;
  };
  SimTime t;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 600; ++i) push(100 + i % 7);  // Spans chunks.
    for (int i = 0; i < 300; ++i) q.Pop(&t)();
    for (int i = 0; i < 300; ++i) push(50);  // Reuses the freed slots.
    while (!q.Empty()) q.Pop(&t)();  // Drains: the slab is released.
  }
  EventId cancelled = push(10);
  q.Cancel(cancelled);
  push(10);
  EXPECT_EQ(seen.size(), 3u * 900u + 2u);
}

TEST(EventQueueTest, CancelOfFiredIdLeavesItsSlotsNewEventAlone) {
  EventQueue q;
  std::vector<int> order;
  q.Push(500, [&] { order.push_back(2); });  // Keeps the queue from draining.
  EventId fired = q.Push(100, [&] { order.push_back(0); });
  SimTime t;
  q.Pop(&t)();
  EventId reuser = q.Push(200, [&] { order.push_back(1); });
  EXPECT_NE(reuser, fired);
  q.Cancel(fired);  // The fired id's slot now holds `reuser`.
  EXPECT_TRUE(q.Contains(reuser));
  EXPECT_EQ(q.Size(), 2u);
  while (!q.Empty()) q.Pop(&t)();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueTest, TimeSeqOrderHoldsAcrossCancelAndPopById) {
  // Pushes at scrambled times, then cancels and pops-by-id a few, with new
  // pushes in between so freed slots are reused out of push order. What
  // remains must pop by (time, push order).
  EventQueue q;
  struct Pushed {
    SimTime time;
    int order;
    EventId id;
  };
  std::vector<Pushed> pushed;
  std::vector<int> fired;
  int next = 0;
  auto push = [&](SimTime at) {
    int me = next++;
    pushed.push_back({at, me, q.Push(at, [&fired, me] { fired.push_back(me); })});
  };
  for (int i = 0; i < 40; ++i) push(static_cast<SimTime>((i * 37) % 11));
  std::set<int> removed;
  SimTime t;
  for (int i = 0; i < 40; i += 3) {
    q.Cancel(pushed[i].id);
    removed.insert(pushed[i].order);
    push(static_cast<SimTime>(i % 5));
  }
  for (int i = 1; i < 40; i += 7) {
    if (removed.count(pushed[i].order) != 0) continue;
    q.PopById(pushed[i].id, &t)();
    EXPECT_EQ(t, pushed[i].time);
    removed.insert(pushed[i].order);
    push(static_cast<SimTime>(i % 4));
  }
  fired.clear();
  while (!q.Empty()) q.Pop(&t)();

  std::vector<Pushed> expected;
  for (const Pushed& p : pushed) {
    if (removed.count(p.order) == 0) expected.push_back(p);
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Pushed& a, const Pushed& b) { return a.time < b.time; });
  ASSERT_EQ(fired.size(), expected.size());
  for (size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], expected[i].order) << "position " << i;
  }
}

TEST(EventQueueTest, PendingIsInPushOrderForEqualTimes) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(q.Push(100, [] {}));
  // Free slots 1, 3 and 5, then refill them: the newest events now sit in
  // low slots, ahead of older ones in storage order.
  for (int i : {5, 1, 3}) q.Cancel(ids[i]);
  std::vector<EventId> expected = {ids[0], ids[2], ids[4], ids[6], ids[7]};
  for (int i = 0; i < 3; ++i) expected.push_back(q.Push(100, [] {}));
  std::vector<PendingEvent> pending = q.Pending();
  ASSERT_EQ(pending.size(), expected.size());
  for (size_t i = 0; i < pending.size(); ++i) {
    EXPECT_EQ(pending[i].id, expected[i]) << "position " << i;
  }
}

TEST(SimulatorTest, NetworkDeliveryLabelComesFromTheMessage) {
  Simulator sim(1);
  Network net(&sim, DelayModel{100, 0});
  for (SiteId s = 1; s <= 3; ++s) {
    ASSERT_TRUE(net.RegisterSite(s, [](const Message&) {}).ok());
  }
  Message first;
  first.type = "yes";
  first.from = 2;
  first.to = 1;
  first.txn = 7;
  ASSERT_TRUE(net.Send(first).ok());
  Message second = first;
  second.type = "a-message-type-too-long-for-sso";
  second.from = 3;
  second.txn = 8;
  ASSERT_TRUE(net.Send(second).ok());

  std::vector<PendingEvent> pending = sim.Pending();
  ASSERT_EQ(pending.size(), 2u);
  const Message* sent[] = {&first, &second};
  for (size_t i = 0; i < 2; ++i) {
    const EventLabel& label = pending[i].label;
    EXPECT_EQ(label.cls, EventClass::kDelivery);
    EXPECT_EQ(label.site, sent[i]->to);
    EXPECT_EQ(label.from, sent[i]->from);
    EXPECT_EQ(label.txn, sent[i]->txn);
    EXPECT_EQ(label.msg_type, sent[i]->type);
    EXPECT_EQ(label.seq, i + 1);  // The network's send sequence.
    EXPECT_EQ(pending[i].time, 100u);
  }
}

TEST(SimulatorTest, RunControlledFollowsStrategy) {
  // A strategy that always fires the latest pending event first inverts
  // the schedule; virtual time must still be monotonic.
  class LifoStrategy : public ScheduleStrategy {
   public:
    EventId ChooseNext(Simulator&,
                       const std::vector<PendingEvent>& pending) override {
      return pending.back().id;
    }
  };
  Simulator sim;
  std::vector<int> order;
  std::vector<SimTime> times;
  sim.ScheduleAfter(100, [&] { order.push_back(1); times.push_back(sim.now()); });
  sim.ScheduleAfter(200, [&] { order.push_back(2); times.push_back(sim.now()); });
  sim.ScheduleAfter(300, [&] { order.push_back(3); times.push_back(sim.now()); });
  LifoStrategy lifo;
  EXPECT_EQ(sim.RunControlled(lifo), 3u);
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1}));
  // Firing t=300 first pins the clock; earlier events fire "late".
  EXPECT_EQ(times, (std::vector<SimTime>{300, 300, 300}));
}

TEST(SimulatorTest, RunControlledStopsOnSentinel) {
  class StopStrategy : public ScheduleStrategy {
   public:
    EventId ChooseNext(Simulator&,
                       const std::vector<PendingEvent>&) override {
      return kStopRun;
    }
  };
  Simulator sim;
  sim.ScheduleAfter(100, [] {});
  StopStrategy stop;
  EXPECT_EQ(sim.RunControlled(stop), 0u);
  EXPECT_EQ(sim.PendingEvents(), 1u);
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  SimTime seen = 0;
  sim.ScheduleAfter(500, [&] { seen = sim.now(); });
  sim.Run();
  EXPECT_EQ(seen, 500u);
  EXPECT_EQ(sim.now(), 500u);
}

TEST(SimulatorTest, ScheduleAtClampsToPresent) {
  Simulator sim;
  sim.ScheduleAfter(100, [&] {
    // From t=100, scheduling at t=50 must not go back in time.
    sim.ScheduleAt(50, [&] { EXPECT_GE(sim.now(), 100u); });
  });
  sim.Run();
}

TEST(SimulatorTest, RunUntilStopsAtBoundary) {
  Simulator sim;
  int count = 0;
  for (SimTime t = 100; t <= 1000; t += 100) {
    sim.ScheduleAt(t, [&] { ++count; });
  }
  size_t executed = sim.RunUntil(500);
  EXPECT_EQ(executed, 5u);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(sim.now(), 500u);
  EXPECT_EQ(sim.PendingEvents(), 5u);
}

TEST(SimulatorTest, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.RunUntil(12345);
  EXPECT_EQ(sim.now(), 12345u);
}

TEST(SimulatorTest, StepExecutesExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.ScheduleAfter(1, [&] { ++count; });
  sim.ScheduleAfter(2, [&] { ++count; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) sim.ScheduleAfter(10, chain);
  };
  sim.ScheduleAfter(10, chain);
  sim.Run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(SimulatorTest, MaxEventsCapsExecution) {
  Simulator sim;
  int count = 0;
  for (int i = 0; i < 100; ++i) sim.ScheduleAfter(i, [&] { ++count; });
  size_t executed = sim.Run(10);
  EXPECT_EQ(executed, 10u);
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, CancelScheduledEvent) {
  Simulator sim;
  bool ran = false;
  EventId id = sim.ScheduleAfter(100, [&] { ran = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, RngIsSeeded) {
  Simulator a(99), b(99);
  EXPECT_EQ(a.rng().Uniform(0, 1u << 20), b.rng().Uniform(0, 1u << 20));
}

}  // namespace
}  // namespace nbcp
