#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "net/network.h"
#include "protocols/engine.h"
#include "protocols/handcoded_3pc.h"
#include "protocols/protocols.h"
#include "sim/simulator.h"

namespace nbcp {
namespace {

/// Failure-free harness running the hand-coded 3PC at every site.
class HandCodedTest : public ::testing::Test {
 protected:
  HandCodedTest() : sim_(1), net_(&sim_, DelayModel{100, 0}) {
    for (SiteId s = 1; s <= 4; ++s) {
      nodes_[s] = std::make_unique<HandCodedThreePhase>(s, 4, &net_);
      net_.RegisterSite(
          s, [this, s](const Message& m) { nodes_[s]->OnMessage(m); });
    }
  }

  Simulator sim_;
  Network net_;
  std::map<SiteId, std::unique_ptr<HandCodedThreePhase>> nodes_;
};

TEST_F(HandCodedTest, AllYesCommits) {
  ASSERT_TRUE(nodes_[1]->Start(1).ok());
  sim_.Run();
  for (SiteId s = 1; s <= 4; ++s) {
    EXPECT_EQ(nodes_[s]->OutcomeOf(1), Outcome::kCommitted) << "site " << s;
  }
  // 5(n-1) messages, like the interpreted engine.
  EXPECT_EQ(net_.StatsSnapshot().messages_sent, 15u);
}

TEST_F(HandCodedTest, SlaveNoAborts) {
  nodes_[3]->set_vote([](TransactionId) { return false; });
  ASSERT_TRUE(nodes_[1]->Start(1).ok());
  sim_.Run();
  for (SiteId s = 1; s <= 4; ++s) {
    EXPECT_EQ(nodes_[s]->OutcomeOf(1), Outcome::kAborted) << "site " << s;
  }
}

TEST_F(HandCodedTest, CoordinatorNoAborts) {
  nodes_[1]->set_vote([](TransactionId) { return false; });
  ASSERT_TRUE(nodes_[1]->Start(1).ok());
  sim_.Run();
  EXPECT_EQ(nodes_[1]->OutcomeOf(1), Outcome::kAborted);
  EXPECT_EQ(nodes_[2]->OutcomeOf(1), Outcome::kAborted);
}

TEST_F(HandCodedTest, OnlyCoordinatorMayStart) {
  EXPECT_TRUE(nodes_[2]->Start(1).IsFailedPrecondition());
}

TEST_F(HandCodedTest, MatchesInterpretedEngineObservably) {
  // Run the same scenario through the spec-interpreting engine and compare
  // outcome + total message count — the ablation's like-for-like check.
  ASSERT_TRUE(nodes_[1]->Start(1).ok());
  sim_.Run();
  uint64_t handcoded_messages = net_.StatsSnapshot().messages_sent;

  Simulator sim2(1);
  Network net2(&sim2, DelayModel{100, 0});
  ProtocolSpec spec = MakeThreePhaseCentral();
  std::map<SiteId, std::unique_ptr<ProtocolEngine>> engines;
  for (SiteId s = 1; s <= 4; ++s) {
    engines[s] = std::make_unique<ProtocolEngine>(s, &spec, 4, &net2);
    net2.RegisterSite(
        s, [&engines, s](const Message& m) { engines[s]->OnMessage(m); });
  }
  ASSERT_TRUE(engines[1]->StartTransaction(1).ok());
  sim2.Run();

  EXPECT_EQ(engines[1]->OutcomeOf(1), nodes_[1]->OutcomeOf(1));
  EXPECT_EQ(net2.StatsSnapshot().messages_sent, handcoded_messages);
  EXPECT_EQ(sim2.now(), sim_.now()) << "same rounds, same virtual latency";
}

}  // namespace
}  // namespace nbcp
