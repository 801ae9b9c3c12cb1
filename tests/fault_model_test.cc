// The paper's fault model, checked once against both execution backends:
// the simulated Network on the Simulator's virtual clock, and the
// ThreadedTransport on real worker threads and the WallClock. Both inherit
// the model from SiteTransport, so every case below must hold on each.
#include <gtest/gtest.h>

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/causal_clock.h"
#include "net/network.h"
#include "obs/metrics_registry.h"
#include "runtime/inflight.h"
#include "runtime/threaded_transport.h"
#include "runtime/wall_clock.h"
#include "sim/simulator.h"

namespace nbcp {
namespace {

/// Network + Simulator: a sent message is in flight until Settle runs the
/// event queue.
struct Simulated {
  Simulated() : sim(1), transport(&sim, DelayModel{100, 0}) {}

  void Settle() { sim.Run(); }

  /// Nothing to hold: a message stays in flight until Settle.
  std::function<void()> HoldDeliveries(SiteId) { return [] {}; }

  Simulator sim;
  Network transport;
};

/// ThreadedTransport + WallClock: Settle waits for the workers to drain.
struct Threaded {
  Threaded() : clock(1), transport(&clock) {
    transport.set_inflight(&inflight);
  }
  ~Threaded() {
    transport.Shutdown();
    clock.Shutdown();
  }

  void Settle() { ASSERT_TRUE(inflight.WaitZero(5000)); }

  /// Blocks `site`'s worker on a posted latch until the returned function
  /// runs. Whatever is sent to `site` meanwhile queues behind the latch, so
  /// it is still in flight when the caller crashes the site: a trap, not a
  /// timing window.
  std::function<void()> HoldDeliveries(SiteId site) {
    auto latch = std::make_shared<std::promise<void>>();
    std::shared_future<void> released = latch->get_future().share();
    transport.Post(site, [released] { released.wait(); });
    return [latch] { latch->set_value(); };
  }

  InflightCounter inflight;
  WallClock clock;
  ThreadedTransport transport;
};

template <typename Backend>
class FaultModelTest : public ::testing::Test {
 protected:
  Transport& transport() { return backend_.transport; }

  /// Registers sites 1..n; deliveries are collected per receiver.
  void RegisterSites(SiteId n) {
    for (SiteId s = 1; s <= n; ++s) {
      ASSERT_TRUE(transport()
                      .RegisterSite(s,
                                    [this, s](const Message& m) {
                                      std::lock_guard<std::mutex> lock(mu_);
                                      inboxes_[s].push_back(m);
                                    })
                      .ok());
    }
  }

  /// Records every observer call as (seq, phase).
  void ObserveTraffic() {
    transport().set_observer([this](const Message& m, char phase) {
      std::lock_guard<std::mutex> lock(mu_);
      traffic_.emplace_back(m.seq, phase);
    });
  }

  static Message Make(SiteId from, SiteId to) {
    Message m;
    m.type = "m";
    m.from = from;
    m.to = to;
    m.txn = 1;
    return m;
  }

  size_t Delivered(SiteId site) {
    std::lock_guard<std::mutex> lock(mu_);
    return inboxes_[site].size();
  }

  std::vector<std::pair<uint64_t, char>> Traffic() {
    std::lock_guard<std::mutex> lock(mu_);
    return traffic_;
  }

  std::mutex mu_;
  std::map<SiteId, std::vector<Message>> inboxes_;
  std::vector<std::pair<uint64_t, char>> traffic_;
  // Last, so its workers stop before the state they write is destroyed.
  Backend backend_;
};

class BackendNames {
 public:
  template <typename T>
  static std::string GetName(int) {
    return std::is_same_v<T, Simulated> ? "Simulated" : "Threaded";
  }
};

using Backends = ::testing::Types<Simulated, Threaded>;
TYPED_TEST_SUITE(FaultModelTest, Backends, BackendNames);

TYPED_TEST(FaultModelTest, RegistrationRejectsSiteZeroAndNullHandler) {
  EXPECT_TRUE(this->transport()
                  .RegisterSite(kNoSite, [](const Message&) {})
                  .IsInvalidArgument());
  EXPECT_TRUE(this->transport().RegisterSite(1, nullptr).IsInvalidArgument());
  EXPECT_TRUE(this->transport().Sites().empty());
}

TYPED_TEST(FaultModelTest, UnregisteredOrDownSenderCannotSend) {
  this->RegisterSites(2);
  EXPECT_TRUE(this->transport().Send(this->Make(9, 1)).IsInvalidArgument());
  this->transport().SetSiteDown(1);
  EXPECT_TRUE(this->transport().Send(this->Make(1, 2)).IsUnavailable());
  this->backend_.Settle();
  EXPECT_EQ(this->transport().StatsSnapshot().messages_sent, 0u);
}

TYPED_TEST(FaultModelTest, MessageToReceiverDownAtSendTimeIsDropped) {
  this->RegisterSites(2);
  this->transport().SetSiteDown(2);
  ASSERT_TRUE(this->transport().Send(this->Make(1, 2)).ok());
  this->backend_.Settle();
  EXPECT_EQ(this->Delivered(2), 0u);
  EXPECT_EQ(this->transport().StatsSnapshot().messages_dropped, 1u);
}

TYPED_TEST(FaultModelTest, ReceiverCrashingWhileMessageIsInFlightDropsIt) {
  this->RegisterSites(2);
  std::function<void()> release = this->backend_.HoldDeliveries(2);
  ASSERT_TRUE(this->transport().Send(this->Make(1, 2)).ok());
  this->transport().SetSiteDown(2);
  release();
  this->backend_.Settle();
  EXPECT_EQ(this->Delivered(2), 0u);
  EXPECT_EQ(this->transport().StatsSnapshot().messages_dropped, 1u);

  // Back up, the site hears new messages again.
  this->transport().SetSiteUp(2);
  ASSERT_TRUE(this->transport().Send(this->Make(1, 2)).ok());
  this->backend_.Settle();
  EXPECT_EQ(this->Delivered(2), 1u);
}

TYPED_TEST(FaultModelTest, CutLinkDropsOnlyItsOwnDirection) {
  this->RegisterSites(2);
  std::vector<std::tuple<SiteId, SiteId, bool>> changes;
  this->transport().set_link_observer(
      [&changes](SiteId a, SiteId b, bool cut) {
        changes.emplace_back(a, b, cut);
      });
  this->transport().CutLink(1, 2);
  this->transport().CutLink(1, 2);  // Already cut: no change.
  ASSERT_TRUE(this->transport().Send(this->Make(1, 2)).ok());
  ASSERT_TRUE(this->transport().Send(this->Make(2, 1)).ok());
  this->backend_.Settle();
  EXPECT_EQ(this->Delivered(2), 0u);
  EXPECT_EQ(this->Delivered(1), 1u);

  this->transport().RestoreLink(1, 2);
  this->transport().RestoreLink(1, 2);  // Already restored.
  this->transport().RestoreLink(2, 1);  // Never cut.
  ASSERT_TRUE(this->transport().Send(this->Make(1, 2)).ok());
  this->backend_.Settle();
  EXPECT_EQ(this->Delivered(2), 1u);
  EXPECT_EQ(changes, (std::vector<std::tuple<SiteId, SiteId, bool>>{
                         {1, 2, true}, {1, 2, false}}));
}

TYPED_TEST(FaultModelTest, ObserverSeesSendThenFateWithTheSameSeq) {
  this->RegisterSites(3);
  this->ObserveTraffic();
  ASSERT_TRUE(this->transport().Send(this->Make(1, 2)).ok());
  this->backend_.Settle();
  this->transport().SetSiteDown(3);
  ASSERT_TRUE(this->transport().Send(this->Make(1, 3)).ok());
  this->backend_.Settle();

  std::vector<std::pair<uint64_t, char>> traffic = this->Traffic();
  ASSERT_EQ(traffic.size(), 4u);
  EXPECT_EQ(traffic[0].second, 's');
  EXPECT_EQ(traffic[1], std::make_pair(traffic[0].first, 'd'));
  EXPECT_EQ(traffic[2].second, 's');
  EXPECT_EQ(traffic[3], std::make_pair(traffic[2].first, 'x'));
  EXPECT_LT(traffic[0].first, traffic[2].first);
}

TYPED_TEST(FaultModelTest, MessageToUnknownReceiverEndsInDrop) {
  this->RegisterSites(1);
  this->ObserveTraffic();
  ASSERT_TRUE(this->transport().Send(this->Make(1, 9)).ok());
  this->backend_.Settle();
  std::vector<std::pair<uint64_t, char>> traffic = this->Traffic();
  ASSERT_EQ(traffic.size(), 2u);
  EXPECT_EQ(traffic[0].second, 's');
  EXPECT_EQ(traffic[1], std::make_pair(traffic[0].first, 'x'));
  EXPECT_EQ(this->transport().StatsSnapshot().messages_dropped, 1u);
}

TYPED_TEST(FaultModelTest, EverySentMessageIsDeliveredOrDropped) {
  MetricsRegistry metrics;
  this->transport().set_metrics(&metrics);
  this->RegisterSites(3);
  this->transport().SetSiteDown(3);
  this->transport().CutLink(2, 1);
  for (int round = 0; round < 4; ++round) {
    Message m = this->Make(1, 2);
    m.payload = "abc";
    ASSERT_TRUE(this->transport().Send(m).ok());  // Delivered.
    ASSERT_TRUE(this->transport().Send(this->Make(1, 3)).ok());  // Down.
    ASSERT_TRUE(this->transport().Send(this->Make(2, 1)).ok());  // Cut.
    ASSERT_TRUE(this->transport().Send(this->Make(2, 7)).ok());  // Unknown.
  }
  this->backend_.Settle();

  NetworkStats stats = this->transport().StatsSnapshot();
  EXPECT_EQ(stats.messages_sent, 16u);
  EXPECT_EQ(stats.messages_delivered, 4u);
  EXPECT_EQ(stats.messages_dropped, 12u);
  EXPECT_EQ(stats.messages_sent,
            stats.messages_delivered + stats.messages_dropped);
  EXPECT_EQ(stats.bytes_sent, 12u);
  EXPECT_EQ(this->Delivered(2), 4u);
  // The registry counts the same traffic.
  EXPECT_EQ(metrics.counter("net/sent").value(), 16u);
  EXPECT_EQ(metrics.counter("net/delivered").value(), 4u);
  EXPECT_EQ(metrics.counter("net/dropped").value(), 12u);
  EXPECT_EQ(metrics.histogram("net/delay_us").count(), 4u);
  EXPECT_EQ(metrics.series("net/inflight").total_count(), 16u);
  this->transport().set_metrics(nullptr);
}

TYPED_TEST(FaultModelTest, ReceiverClockDominatesTheDeliveredStamp) {
  CausalClockDomain clocks(2);
  this->transport().set_clocks(&clocks);
  // Written by site 2's handler, read after Settle.
  std::vector<bool> dominated;
  ASSERT_TRUE(this->transport().RegisterSite(1, [](const Message&) {}).ok());
  ASSERT_TRUE(this->transport()
                  .RegisterSite(2,
                                [&](const Message& m) {
                                  dominated.push_back(
                                      m.stamp.stamped() &&
                                      HappensBefore(m.stamp,
                                                    clocks.Current(2)));
                                })
                  .ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(this->transport().Send(this->Make(1, 2)).ok());
  }
  this->backend_.Settle();
  EXPECT_EQ(dominated, (std::vector<bool>{true, true, true}));
  EXPECT_GE(clocks.Current(2).lamport, 4u);
  this->transport().set_clocks(nullptr);
}

}  // namespace
}  // namespace nbcp
