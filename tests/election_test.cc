#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "election/bully.h"
#include "election/ring.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace nbcp {
namespace {

/// Harness wiring N election participants over a simulated network.
template <typename Algo>
class ElectionHarness {
 public:
  ElectionHarness(size_t n, Simulator* sim, Network* net)
      : n_(n), sim_(sim), net_(net) {
    for (SiteId s = 1; s <= n_; ++s) {
      elections_[s] = std::make_unique<Algo>(
          s, sim_, net_,
          [this]() {
            std::vector<SiteId> alive;
            for (SiteId x = 1; x <= n_; ++x) {
              if (net_->IsSiteUp(x)) alive.push_back(x);
            }
            return alive;
          },
          [this, s](TransactionId tag, SiteId leader) {
            elected_[s][tag] = leader;
          },
          ElectionConfig{2000});
      net_->RegisterSite(s, [this, s](const Message& m) {
        elections_[s]->OnMessage(m);
      });
    }
  }

  Algo& at(SiteId s) { return *elections_[s]; }
  std::optional<SiteId> LeaderSeenBy(SiteId s, TransactionId tag) {
    auto it = elected_[s].find(tag);
    if (it == elected_[s].end()) return std::nullopt;
    return it->second;
  }

  size_t n_;
  Simulator* sim_;
  Network* net_;
  std::map<SiteId, std::unique_ptr<Algo>> elections_;
  std::map<SiteId, std::map<TransactionId, SiteId>> elected_;
};

class BullyTest : public ::testing::Test {
 protected:
  BullyTest() : sim_(3), net_(&sim_, DelayModel{100, 0}), h_(4, &sim_, &net_) {}
  Simulator sim_;
  Network net_;
  ElectionHarness<BullyElection> h_;
};

TEST_F(BullyTest, HighestIdWinsWhenAllAlive) {
  h_.at(1).StartElection(7);
  sim_.Run();
  for (SiteId s = 1; s <= 4; ++s) {
    EXPECT_EQ(h_.LeaderSeenBy(s, 7), std::optional<SiteId>(4)) << "site " << s;
  }
}

TEST_F(BullyTest, HighestAliveWinsWhenTopCrashed) {
  net_.SetSiteDown(4);
  h_.at(2).StartElection(7);
  sim_.Run();
  for (SiteId s = 1; s <= 3; ++s) {
    EXPECT_EQ(h_.LeaderSeenBy(s, 7), std::optional<SiteId>(3)) << "site " << s;
  }
}

TEST_F(BullyTest, SelfElectsWhenAlone) {
  net_.SetSiteDown(2);
  net_.SetSiteDown(3);
  net_.SetSiteDown(4);
  h_.at(1).StartElection(7);
  sim_.Run();
  EXPECT_EQ(h_.LeaderSeenBy(1, 7), std::optional<SiteId>(1));
}

TEST_F(BullyTest, ConcurrentInitiatorsAgree) {
  h_.at(1).StartElection(7);
  h_.at(2).StartElection(7);
  h_.at(3).StartElection(7);
  sim_.Run();
  for (SiteId s = 1; s <= 4; ++s) {
    EXPECT_EQ(h_.LeaderSeenBy(s, 7), std::optional<SiteId>(4));
  }
}

TEST_F(BullyTest, SeparateTagsAreIndependent) {
  h_.at(1).StartElection(7);
  sim_.Run();
  net_.SetSiteDown(4);
  h_.at(1).StartElection(8);
  sim_.Run();
  EXPECT_EQ(h_.LeaderSeenBy(1, 7), std::optional<SiteId>(4));
  EXPECT_EQ(h_.LeaderSeenBy(1, 8), std::optional<SiteId>(3));
}

TEST_F(BullyTest, AnswererCrashTriggersRestart) {
  // Answer-then-silence: the answerer must be waiting on an even higher
  // (unreachable) site, so its own election does not conclude instantly.
  // A private cluster of sites 1..3 believes a site 4 exists (stale
  // membership); site 4 is never registered, so challenges to it vanish.
  // Site 3 answers site 1's challenge, then crashes while waiting on
  // site 4. Site 1's takeover timer must restart the election; site 2
  // eventually wins.
  Simulator sim(5);
  Network net(&sim, DelayModel{100, 0});
  std::map<SiteId, std::unique_ptr<BullyElection>> nodes;
  std::map<SiteId, SiteId> leaders;
  for (SiteId s = 1; s <= 3; ++s) {
    nodes[s] = std::make_unique<BullyElection>(
        s, &sim, &net,
        []() { return std::vector<SiteId>{1, 2, 3, 4}; },
        [&leaders, s](TransactionId, SiteId leader) { leaders[s] = leader; },
        ElectionConfig{2000});
    net.RegisterSite(
        s, [&nodes, s](const Message& m) { nodes[s]->OnMessage(m); });
  }
  nodes[1]->StartElection(7);
  sim.ScheduleAt(500, [&] { net.SetSiteDown(3); });
  sim.Run();
  EXPECT_EQ(leaders[1], 2u);
  EXPECT_EQ(leaders[2], 2u);
}

TEST_F(BullyTest, ResetAllowsReelection) {
  h_.at(1).StartElection(7);
  sim_.Run();
  ASSERT_EQ(h_.LeaderSeenBy(1, 7), std::optional<SiteId>(4));
  net_.SetSiteDown(4);
  for (SiteId s = 1; s <= 3; ++s) h_.at(s).Reset(7);
  h_.at(1).StartElection(7);
  sim_.Run();
  EXPECT_EQ(h_.LeaderSeenBy(1, 7), std::optional<SiteId>(3));
}

TEST_F(BullyTest, StaleLowerAnnouncementDoesNotSplitTheLeadership) {
  // Site 3's challenge to site 4 is lost, so it times out at t=2000 and
  // declares itself. Site 4 starts its own round at t=2050 and, as the
  // highest site, declares at once. Site 3's announcement then reaches
  // site 4, which must contest it rather than accept a lower leader.
  net_.CutLink(3, 4);
  h_.at(3).StartElection(7);
  sim_.ScheduleAt(1990, [&] { net_.RestoreLink(3, 4); });
  sim_.ScheduleAt(2050, [&] { h_.at(4).StartElection(7); });
  sim_.Run();
  for (SiteId s = 1; s <= 4; ++s) {
    EXPECT_EQ(h_.LeaderSeenBy(s, 7), std::optional<SiteId>(4)) << "site " << s;
  }
}

TEST_F(BullyTest, LowerAnnouncementStartsAnIdleSitesElection) {
  // A site with no round of its own that hears a lower site claim the
  // lead runs its election, and the highest site ends up leading.
  net_.SetSiteDown(4);
  h_.at(3).StartElection(7);
  sim_.Run();
  ASSERT_EQ(h_.LeaderSeenBy(1, 7), std::optional<SiteId>(3));
  net_.SetSiteUp(4);
  Message stale;
  stale.type = "bully:leader";
  stale.from = 3;
  stale.to = 4;
  stale.txn = 7;
  stale.payload = "3";
  ASSERT_TRUE(net_.Send(stale).ok());
  sim_.Run();
  for (SiteId s = 1; s <= 4; ++s) {
    EXPECT_EQ(h_.LeaderSeenBy(s, 7), std::optional<SiteId>(4)) << "site " << s;
  }
}

TEST_F(BullyTest, OwnsMessageFiltersPrefixes) {
  EXPECT_TRUE(BullyElection::OwnsMessage("bully:election"));
  EXPECT_FALSE(BullyElection::OwnsMessage("ring:token"));
  EXPECT_FALSE(BullyElection::OwnsMessage("yes"));
}

class RingTest : public ::testing::Test {
 protected:
  RingTest() : sim_(3), net_(&sim_, DelayModel{100, 0}), h_(4, &sim_, &net_) {}
  Simulator sim_;
  Network net_;
  ElectionHarness<RingElection> h_;
};

TEST_F(RingTest, HighestIdWins) {
  h_.at(2).StartElection(7);
  sim_.Run();
  for (SiteId s = 1; s <= 4; ++s) {
    EXPECT_EQ(h_.LeaderSeenBy(s, 7), std::optional<SiteId>(4)) << "site " << s;
  }
}

TEST_F(RingTest, SkipsCrashedSites) {
  net_.SetSiteDown(4);
  h_.at(1).StartElection(7);
  sim_.Run();
  for (SiteId s = 1; s <= 3; ++s) {
    EXPECT_EQ(h_.LeaderSeenBy(s, 7), std::optional<SiteId>(3)) << "site " << s;
  }
}

TEST_F(RingTest, SelfElectsWhenAlone) {
  net_.SetSiteDown(2);
  net_.SetSiteDown(3);
  net_.SetSiteDown(4);
  h_.at(1).StartElection(7);
  sim_.Run();
  EXPECT_EQ(h_.LeaderSeenBy(1, 7), std::optional<SiteId>(1));
}

TEST_F(RingTest, TokenLossIsRetried) {
  // Crash the next hop mid-circulation; the initiator's retry timer must
  // restart and succeed around the smaller ring.
  h_.at(1).StartElection(7);
  sim_.ScheduleAt(150, [&] { net_.SetSiteDown(3); });
  sim_.Run();
  EXPECT_EQ(h_.LeaderSeenBy(1, 7), std::optional<SiteId>(4));
}

TEST_F(RingTest, OwnsMessageFiltersPrefixes) {
  EXPECT_TRUE(RingElection::OwnsMessage("ring:token"));
  EXPECT_FALSE(RingElection::OwnsMessage("bully:election"));
}

}  // namespace
}  // namespace nbcp
