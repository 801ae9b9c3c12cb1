#include <gtest/gtest.h>

#include <vector>

#include "net/failure_detector.h"
#include "net/message.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace nbcp {
namespace {

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : sim_(1), net_(&sim_, DelayModel{100, 0}) {}

  void RegisterSites(int n) {
    for (SiteId s = 1; s <= static_cast<SiteId>(n); ++s) {
      inboxes_[s] = {};
      ASSERT_TRUE(net_
                      .RegisterSite(s,
                                    [this, s](const Message& m) {
                                      inboxes_[s].push_back(m);
                                    })
                      .ok());
    }
  }

  Message Make(const std::string& type, SiteId from, SiteId to) {
    Message m;
    m.type = type;
    m.from = from;
    m.to = to;
    m.txn = 1;
    return m;
  }

  Simulator sim_;
  Network net_;
  std::map<SiteId, std::vector<Message>> inboxes_;
};

TEST_F(NetworkTest, RejectsBadRegistrations) {
  EXPECT_TRUE(net_.RegisterSite(kNoSite, [](const Message&) {})
                  .IsInvalidArgument());
  EXPECT_TRUE(net_.RegisterSite(1, nullptr).IsInvalidArgument());
}

TEST_F(NetworkTest, DeliversAfterDelay) {
  RegisterSites(2);
  ASSERT_TRUE(net_.Send(Make("ping", 1, 2)).ok());
  EXPECT_TRUE(inboxes_[2].empty());
  sim_.RunUntil(99);
  EXPECT_TRUE(inboxes_[2].empty());
  sim_.RunUntil(100);
  ASSERT_EQ(inboxes_[2].size(), 1u);
  EXPECT_EQ(inboxes_[2][0].type, "ping");
  EXPECT_EQ(inboxes_[2][0].from, 1u);
}

TEST_F(NetworkTest, UnregisteredSenderFails) {
  RegisterSites(1);
  EXPECT_TRUE(net_.Send(Make("x", 9, 1)).IsInvalidArgument());
}

TEST_F(NetworkTest, DownSenderFails) {
  RegisterSites(2);
  net_.SetSiteDown(1);
  EXPECT_TRUE(net_.Send(Make("x", 1, 2)).IsUnavailable());
}

TEST_F(NetworkTest, MessageToDownReceiverIsDropped) {
  RegisterSites(2);
  net_.SetSiteDown(2);
  ASSERT_TRUE(net_.Send(Make("x", 1, 2)).ok());
  sim_.Run();
  EXPECT_TRUE(inboxes_[2].empty());
  EXPECT_EQ(net_.StatsSnapshot().messages_dropped, 1u);
}

TEST_F(NetworkTest, MessageInFlightWhenReceiverCrashesIsDropped) {
  RegisterSites(2);
  ASSERT_TRUE(net_.Send(Make("x", 1, 2)).ok());
  net_.SetSiteDown(2);  // Crash before delivery time.
  sim_.Run();
  EXPECT_TRUE(inboxes_[2].empty());
}

TEST_F(NetworkTest, RecoveredReceiverGetsNewMessages) {
  RegisterSites(2);
  net_.SetSiteDown(2);
  net_.SetSiteUp(2);
  ASSERT_TRUE(net_.Send(Make("x", 1, 2)).ok());
  sim_.Run();
  EXPECT_EQ(inboxes_[2].size(), 1u);
}

TEST_F(NetworkTest, BroadcastReachesAllTargets) {
  RegisterSites(4);
  ASSERT_TRUE(net_.Broadcast(Make("vote", 1, 0), {2, 3, 4}).ok());
  sim_.Run();
  for (SiteId s = 2; s <= 4; ++s) {
    ASSERT_EQ(inboxes_[s].size(), 1u) << "site " << s;
    EXPECT_EQ(inboxes_[s][0].to, s);
  }
}

TEST_F(NetworkTest, CutLinkDropsDirectionally) {
  RegisterSites(2);
  net_.CutLink(1, 2);
  ASSERT_TRUE(net_.Send(Make("a", 1, 2)).ok());
  ASSERT_TRUE(net_.Send(Make("b", 2, 1)).ok());
  sim_.Run();
  EXPECT_TRUE(inboxes_[2].empty());
  EXPECT_EQ(inboxes_[1].size(), 1u);
  net_.RestoreLink(1, 2);
  ASSERT_TRUE(net_.Send(Make("c", 1, 2)).ok());
  sim_.Run();
  EXPECT_EQ(inboxes_[2].size(), 1u);
}

TEST_F(NetworkTest, StatsCountTraffic) {
  RegisterSites(3);
  Message m = Make("x", 1, 2);
  m.payload = "12345";
  ASSERT_TRUE(net_.Send(m).ok());
  net_.SetSiteDown(3);
  ASSERT_TRUE(net_.Send(Make("y", 1, 3)).ok());
  sim_.Run();
  EXPECT_EQ(net_.StatsSnapshot().messages_sent, 2u);
  EXPECT_EQ(net_.StatsSnapshot().messages_delivered, 1u);
  EXPECT_EQ(net_.StatsSnapshot().messages_dropped, 1u);
  EXPECT_EQ(net_.StatsSnapshot().bytes_sent, 5u);
  net_.ResetStats();
  EXPECT_EQ(net_.StatsSnapshot().messages_sent, 0u);
}

TEST_F(NetworkTest, SiteListsAreSorted) {
  RegisterSites(3);
  EXPECT_EQ(net_.Sites(), (std::vector<SiteId>{1, 2, 3}));
  net_.SetSiteDown(2);
  EXPECT_EQ(net_.OperationalSites(), (std::vector<SiteId>{1, 3}));
  EXPECT_FALSE(net_.IsSiteUp(2));
  EXPECT_TRUE(net_.IsSiteUp(1));
}

TEST_F(NetworkTest, JitterStaysWithinBounds) {
  Network jittery(&sim_, DelayModel{100, 50});
  std::vector<SimTime> arrivals;
  for (SiteId s = 1; s <= 2; ++s) {
    ASSERT_TRUE(jittery
                    .RegisterSite(s,
                                  [this, &arrivals](const Message&) {
                                    arrivals.push_back(sim_.now());
                                  })
                    .ok());
  }
  SimTime start = sim_.now();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(jittery.Send(Make("x", 1, 2)).ok());
  }
  sim_.Run();
  // All deliveries within [100, 150].
  ASSERT_EQ(arrivals.size(), 50u);
  for (SimTime at : arrivals) {
    EXPECT_GE(at, start + 100);
    EXPECT_LE(at, start + 150);
  }
}

TEST_F(NetworkTest, MessageToString) {
  Message m = Make("yes", 2, 1);
  EXPECT_EQ(m.ToString(), "yes(2->1, txn=1)");
}

class FailureDetectorTest : public ::testing::Test {
 protected:
  FailureDetectorTest()
      : sim_(1), net_(&sim_, DelayModel{100, 0}), fd_(&sim_, &net_, 500) {
    for (SiteId s = 1; s <= 3; ++s) {
      net_.RegisterSite(s, [](const Message&) {});
      fd_.Subscribe(s, [this, s](SiteId subject, bool up) {
        reports_.push_back({s, subject, up, sim_.now()});
      });
    }
  }

  struct Report {
    SiteId listener;
    SiteId subject;
    bool up;
    SimTime at;
  };

  Simulator sim_;
  Network net_;
  FailureDetector fd_;
  std::vector<Report> reports_;
};

TEST_F(FailureDetectorTest, ReportsCrashToOtherOperationalSites) {
  net_.SetSiteDown(3);
  fd_.NotifyCrash(3);
  sim_.Run();
  ASSERT_EQ(reports_.size(), 2u);
  for (const Report& r : reports_) {
    EXPECT_NE(r.listener, 3u);
    EXPECT_EQ(r.subject, 3u);
    EXPECT_FALSE(r.up);
    EXPECT_EQ(r.at, 500u);  // Detection delay.
  }
  EXPECT_TRUE(fd_.IsSuspected(3));
  EXPECT_EQ(fd_.SuspectedSites(), (std::vector<SiteId>{3}));
}

TEST_F(FailureDetectorTest, CrashReportIsIdempotent) {
  net_.SetSiteDown(3);
  fd_.NotifyCrash(3);
  fd_.NotifyCrash(3);
  sim_.Run();
  EXPECT_EQ(reports_.size(), 2u);
}

TEST_F(FailureDetectorTest, RecoveryIsReported) {
  net_.SetSiteDown(3);
  fd_.NotifyCrash(3);
  sim_.Run();
  reports_.clear();
  net_.SetSiteUp(3);
  fd_.NotifyRecovery(3);
  sim_.Run();
  ASSERT_EQ(reports_.size(), 2u);
  for (const Report& r : reports_) {
    EXPECT_TRUE(r.up);
    EXPECT_EQ(r.subject, 3u);
  }
  EXPECT_FALSE(fd_.IsSuspected(3));
}

TEST_F(FailureDetectorTest, CrashedSubscribersHearNothing) {
  net_.SetSiteDown(2);
  fd_.NotifyCrash(2);
  net_.SetSiteDown(3);
  fd_.NotifyCrash(3);
  sim_.Run();
  // Site 2 must not hear about site 3 and vice versa; only site 1 hears both.
  int site1_reports = 0;
  for (const Report& r : reports_) {
    EXPECT_EQ(r.listener, 1u);
    ++site1_reports;
  }
  EXPECT_EQ(site1_reports, 2);
}

TEST_F(FailureDetectorTest, FlappingSiteReportsCurrentBelief) {
  net_.SetSiteDown(3);
  fd_.NotifyCrash(3);
  // Recovers before the detection delay elapses.
  net_.SetSiteUp(3);
  fd_.NotifyRecovery(3);
  sim_.Run();
  // Neither stale report fires: the crash report sees the site back up, the
  // recovery report sees it was never reported down.
  for (const Report& r : reports_) {
    EXPECT_TRUE(r.up) << "stale down-report leaked";
  }
}

TEST_F(FailureDetectorTest, UnsubscribeStopsReports) {
  fd_.Unsubscribe(1);
  net_.SetSiteDown(3);
  fd_.NotifyCrash(3);
  sim_.Run();
  ASSERT_EQ(reports_.size(), 1u);
  EXPECT_EQ(reports_[0].listener, 2u);
}

}  // namespace
}  // namespace nbcp
