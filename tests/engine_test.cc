#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <utility>

#include "net/network.h"
#include "protocols/engine.h"
#include "protocols/protocols.h"
#include "sim/simulator.h"

namespace nbcp {
namespace {

/// Three-site central-site harness with hand-wired engines.
class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : sim_(1), net_(&sim_, DelayModel{100, 0}), spec_(MakeTwoPhaseCentral()) {
    for (SiteId s = 1; s <= 3; ++s) {
      engines_[s] = std::make_unique<ProtocolEngine>(s, &spec_, 3, &net_);
      net_.RegisterSite(s, [this, s](const Message& m) {
        engines_[s]->OnMessage(m);
      });
    }
  }

  void SetSpec(ProtocolSpec spec) {
    spec_ = std::move(spec);
    for (SiteId s = 1; s <= 3; ++s) {
      engines_[s] = std::make_unique<ProtocolEngine>(s, &spec_, 3, &net_);
      net_.RegisterSite(s, [this, s](const Message& m) {
        engines_[s]->OnMessage(m);
      });
    }
  }

  ProtocolEngine& E(SiteId s) { return *engines_[s]; }

  Simulator sim_;
  Network net_;
  ProtocolSpec spec_;
  std::map<SiteId, std::unique_ptr<ProtocolEngine>> engines_;
};

TEST_F(EngineTest, AllYesCommits) {
  ASSERT_TRUE(E(1).StartTransaction(1).ok());
  sim_.Run();
  for (SiteId s = 1; s <= 3; ++s) {
    EXPECT_EQ(E(s).OutcomeOf(1), Outcome::kCommitted) << "site " << s;
  }
}

TEST_F(EngineTest, SlaveNoVoteAborts) {
  EngineHooks hooks;
  hooks.vote = [](TransactionId) { return false; };
  E(3).set_hooks(std::move(hooks));
  ASSERT_TRUE(E(1).StartTransaction(1).ok());
  sim_.Run();
  for (SiteId s = 1; s <= 3; ++s) {
    EXPECT_EQ(E(s).OutcomeOf(1), Outcome::kAborted) << "site " << s;
  }
}

TEST_F(EngineTest, CoordinatorSelfNoAbortsSpontaneously) {
  EngineHooks hooks;
  hooks.vote = [](TransactionId) { return false; };
  E(1).set_hooks(std::move(hooks));
  ASSERT_TRUE(E(1).StartTransaction(1).ok());
  sim_.Run();
  for (SiteId s = 1; s <= 3; ++s) {
    EXPECT_EQ(E(s).OutcomeOf(1), Outcome::kAborted) << "site " << s;
  }
  EXPECT_EQ(E(1).VoteCast(1), std::optional<bool>(false));
}

TEST_F(EngineTest, UnreadableMessagesLeaveTheTransactionAlone) {
  ASSERT_TRUE(E(1).StartTransaction(1).ok());  // Coordinator waits in w1.
  const LocalState before = *E(1).CurrentState(1);
  const NetworkStats stats = net_.StatsSnapshot();
  // Types no coordinator trigger reads, and readable types from senders
  // outside 1..n: none can be buffered, so none can enable a transition.
  auto message = [](std::string type, SiteId from, SiteId to,
                    TransactionId txn) {
    Message m;
    m.type = std::move(type);
    m.from = from;
    m.to = to;
    m.txn = txn;
    return m;
  };
  auto deliver = [&](const Message& m) {
    E(1).OnMessage(m);
    EXPECT_EQ(E(1).CurrentState(1)->name, before.name) << m.ToString();
    EXPECT_EQ(E(1).VoteCast(1), std::nullopt) << m.ToString();
  };
  deliver(message("token", 2, 1, 1));
  deliver(message("prepar", 3, 1, 1));
  deliver(message(msg::kYes, 0, 1, 1));
  deliver(message(msg::kYes, 4, 1, 1));
  deliver(message(msg::kNo, 99, 1, 1));
  const NetworkStats after = net_.StatsSnapshot();
  EXPECT_EQ(after.messages_sent, stats.messages_sent);
  EXPECT_EQ(after.messages_delivered, stats.messages_delivered);
  EXPECT_EQ(after.messages_dropped, stats.messages_dropped);
  // A slave that has not heard of a transaction ignores them just as well.
  E(2).OnMessage(message("token", 1, 2, 2));
  E(2).OnMessage(message(msg::kXact, 4, 2, 2));
  EXPECT_EQ(E(2).CurrentKind(2), StateKind::kInitial);
  EXPECT_EQ(E(2).VoteCast(2), std::nullopt);
  EXPECT_EQ(net_.StatsSnapshot().messages_sent, stats.messages_sent);
  // The real votes still complete the transaction.
  sim_.Run();
  for (SiteId s = 1; s <= 3; ++s) {
    EXPECT_EQ(E(s).OutcomeOf(1), Outcome::kCommitted) << "site " << s;
  }
}

TEST_F(EngineTest, StateProgressionIsObservable) {
  std::vector<std::string> states;
  EngineHooks hooks;
  hooks.on_state_change = [&](TransactionId, const LocalState& s) {
    states.push_back(s.name);
  };
  E(2).set_hooks(std::move(hooks));
  ASSERT_TRUE(E(1).StartTransaction(1).ok());
  sim_.Run();
  EXPECT_EQ(states, (std::vector<std::string>{"w", "c"}));
}

TEST_F(EngineTest, VoteHookConsultedOncePerTransaction) {
  int consultations = 0;
  EngineHooks hooks;
  hooks.vote = [&](TransactionId) {
    ++consultations;
    return true;
  };
  E(2).set_hooks(std::move(hooks));
  ASSERT_TRUE(E(1).StartTransaction(1).ok());
  sim_.Run();
  EXPECT_EQ(consultations, 1);
}

TEST_F(EngineTest, OnVoteCastFiresBeforeDecision) {
  std::vector<std::string> events;
  EngineHooks hooks;
  hooks.on_vote_cast = [&](TransactionId, bool yes) {
    events.push_back(yes ? "vote-yes" : "vote-no");
  };
  hooks.on_decision = [&](TransactionId, Outcome o) {
    events.push_back(ToString(o));
  };
  E(2).set_hooks(std::move(hooks));
  ASSERT_TRUE(E(1).StartTransaction(1).ok());
  sim_.Run();
  EXPECT_EQ(events,
            (std::vector<std::string>{"vote-yes", "committed"}));
}

TEST_F(EngineTest, DecisionHookFiresExactlyOnce) {
  int decisions = 0;
  EngineHooks hooks;
  hooks.on_decision = [&](TransactionId, Outcome) { ++decisions; };
  E(3).set_hooks(std::move(hooks));
  ASSERT_TRUE(E(1).StartTransaction(1).ok());
  sim_.Run();
  EXPECT_EQ(decisions, 1);
}

TEST_F(EngineTest, UnknownTransactionQueries) {
  EXPECT_FALSE(E(2).HasTransaction(9));
  EXPECT_FALSE(E(2).CurrentState(9).ok());
  EXPECT_EQ(E(2).CurrentKind(9), StateKind::kInitial);
  EXPECT_EQ(E(2).OutcomeOf(9), Outcome::kUndecided);
  EXPECT_EQ(E(2).VoteCast(9), std::nullopt);
}

TEST_F(EngineTest, SendFilterTruncatesBroadcast) {
  // Coordinator crashes mid-commit-broadcast: only the first commit copy
  // leaves. One slave commits, the other stays in w.
  EngineHooks hooks;
  hooks.send_filter = [](TransactionId, const Message& m, size_t, size_t) {
    static int commits_allowed = 1;
    if (m.type != msg::kCommit) return true;
    return commits_allowed-- > 0;
  };
  E(1).set_hooks(std::move(hooks));
  ASSERT_TRUE(E(1).StartTransaction(1).ok());
  sim_.Run();
  int committed = 0;
  int waiting = 0;
  for (SiteId s = 2; s <= 3; ++s) {
    if (E(s).OutcomeOf(1) == Outcome::kCommitted) ++committed;
    if (E(s).CurrentKind(1) == StateKind::kWait) ++waiting;
  }
  EXPECT_EQ(committed, 1);
  EXPECT_EQ(waiting, 1);
}

TEST_F(EngineTest, FreezeStopsNormalProcessing) {
  E(2).Freeze(1);
  ASSERT_TRUE(E(1).StartTransaction(1).ok());
  sim_.Run();
  EXPECT_EQ(E(2).CurrentKind(1), StateKind::kInitial);
  EXPECT_TRUE(E(2).IsFrozen(1));
  // But forced directives still work.
  EXPECT_TRUE(E(2).ForceOutcome(1, Outcome::kAborted).ok());
  EXPECT_EQ(E(2).OutcomeOf(1), Outcome::kAborted);
}

TEST_F(EngineTest, ForceToKindJumpsWithoutMessages) {
  uint64_t sent_before = net_.StatsSnapshot().messages_sent;
  ASSERT_TRUE(E(2).ForceToKind(7, StateKind::kWait).ok());
  EXPECT_EQ(E(2).CurrentKind(7), StateKind::kWait);
  EXPECT_EQ(net_.StatsSnapshot().messages_sent, sent_before);
}

TEST_F(EngineTest, ForceToKindRejectsLeavingFinalState) {
  ASSERT_TRUE(E(2).ForceOutcome(7, Outcome::kCommitted).ok());
  EXPECT_TRUE(E(2).ForceToKind(7, StateKind::kWait).IsFailedPrecondition());
  // Same-kind force is a no-op success.
  EXPECT_TRUE(E(2).ForceToKind(7, StateKind::kCommit).ok());
}

TEST_F(EngineTest, ForceOutcomeConflictDetected) {
  ASSERT_TRUE(E(2).ForceOutcome(7, Outcome::kCommitted).ok());
  EXPECT_TRUE(E(2).ForceOutcome(7, Outcome::kCommitted).ok());  // Idempotent.
  EXPECT_TRUE(
      E(2).ForceOutcome(7, Outcome::kAborted).IsFailedPrecondition());
  EXPECT_TRUE(
      E(2).ForceOutcome(7, Outcome::kUndecided).IsInvalidArgument());
}

TEST_F(EngineTest, ForceToKindMissingStateIsNotFound) {
  // 2PC has no buffer state.
  EXPECT_TRUE(E(2).ForceToKind(7, StateKind::kBuffer).IsNotFound());
}

TEST_F(EngineTest, ClearDropsEverything) {
  ASSERT_TRUE(E(1).StartTransaction(1).ok());
  sim_.Run();
  EXPECT_TRUE(E(1).HasTransaction(1));
  E(1).Clear();
  EXPECT_FALSE(E(1).HasTransaction(1));
  EXPECT_TRUE(E(1).UndecidedTransactions().empty());
}

TEST_F(EngineTest, UndecidedTransactionsListsInFlight) {
  ASSERT_TRUE(E(1).StartTransaction(5).ok());
  // No sim run: the coordinator sits in w1 waiting for votes.
  EXPECT_EQ(E(1).UndecidedTransactions(),
            (std::vector<TransactionId>{5}));
  sim_.Run();
  EXPECT_TRUE(E(1).UndecidedTransactions().empty());
}

TEST_F(EngineTest, UndecidedTransactionsAcrossLongHistories) {
  // Decided transactions are dropped from the bookkeeping in batches; the
  // list must stay exact across many of them.
  for (TransactionId t = 1; t <= 300; ++t) {
    ASSERT_TRUE(E(1).StartTransaction(t).ok());
  }
  sim_.Run();
  std::vector<TransactionId> pending;
  for (TransactionId t = 400; t > 300; t -= 3) {
    ASSERT_TRUE(E(1).StartTransaction(t).ok());
    pending.insert(pending.begin(), t);
  }
  EXPECT_EQ(E(1).UndecidedTransactions(), pending);
  sim_.Run();
  EXPECT_TRUE(E(1).UndecidedTransactions().empty());
}

TEST_F(EngineTest, MultipleConcurrentTransactions) {
  ASSERT_TRUE(E(1).StartTransaction(1).ok());
  ASSERT_TRUE(E(1).StartTransaction(2).ok());
  ASSERT_TRUE(E(1).StartTransaction(3).ok());
  sim_.Run();
  for (TransactionId t = 1; t <= 3; ++t) {
    for (SiteId s = 1; s <= 3; ++s) {
      EXPECT_EQ(E(s).OutcomeOf(t), Outcome::kCommitted);
    }
  }
}

TEST_F(EngineTest, DecentralizedSelfMessagesWork) {
  SetSpec(MakeThreePhaseDecentralized());
  for (SiteId s = 1; s <= 3; ++s) {
    ASSERT_TRUE(E(s).StartTransaction(1).ok());
  }
  sim_.Run();
  for (SiteId s = 1; s <= 3; ++s) {
    EXPECT_EQ(E(s).OutcomeOf(1), Outcome::kCommitted) << "site " << s;
  }
}

TEST_F(EngineTest, DecentralizedAnyNoAborts) {
  SetSpec(MakeTwoPhaseDecentralized());
  EngineHooks hooks;
  hooks.vote = [](TransactionId) { return false; };
  E(2).set_hooks(std::move(hooks));
  for (SiteId s = 1; s <= 3; ++s) {
    ASSERT_TRUE(E(s).StartTransaction(1).ok());
  }
  sim_.Run();
  for (SiteId s = 1; s <= 3; ++s) {
    EXPECT_EQ(E(s).OutcomeOf(1), Outcome::kAborted) << "site " << s;
  }
}

TEST_F(EngineTest, StartAfterDecisionFails) {
  ASSERT_TRUE(E(1).StartTransaction(1).ok());
  sim_.Run();
  EXPECT_TRUE(E(1).StartTransaction(1).IsFailedPrecondition());
}

TEST_F(EngineTest, LoggedOutcomeIsFinalWithoutRedeciding) {
  SetSpec(MakeThreePhaseCentral());
  // Site 2 logs each decision durably, as a participant's DT log does.
  std::map<TransactionId, Outcome> durable;
  EngineHooks logging;
  logging.on_decision = [&](TransactionId txn, Outcome outcome) {
    durable[txn] = outcome;
  };
  E(2).set_hooks(std::move(logging));
  ASSERT_TRUE(E(1).StartTransaction(1).ok());
  sim_.Run();
  ASSERT_EQ(durable[1], Outcome::kCommitted);
  durable[2] = Outcome::kAborted;  // Decided in an earlier session.

  // Site 2 crashes and recovers: a fresh engine over the same durable log.
  engines_[2] = std::make_unique<ProtocolEngine>(2, &spec_, 3, &net_);
  int hook_calls = 0;
  EngineHooks hooks;
  hooks.vote = [&](TransactionId) {
    ++hook_calls;
    return true;
  };
  hooks.on_state_change = [&](TransactionId, const LocalState&) {
    ++hook_calls;
  };
  hooks.on_decision = [&](TransactionId, Outcome) { ++hook_calls; };
  hooks.on_vote_cast = [&](TransactionId, bool) { ++hook_calls; };
  hooks.durable_outcome = [&](TransactionId txn) -> std::optional<Outcome> {
    auto it = durable.find(txn);
    if (it == durable.end()) return std::nullopt;
    return it->second;
  };
  E(2).set_hooks(std::move(hooks));

  EXPECT_TRUE(E(2).HasTransaction(1));
  EXPECT_TRUE(E(2).HasTransaction(2));
  EXPECT_FALSE(E(2).HasTransaction(3));
  auto state = E(2).CurrentState(1);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->kind, StateKind::kCommit);
  state = E(2).CurrentState(2);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->kind, StateKind::kAbort);
  EXPECT_EQ(E(2).OutcomeOf(1), Outcome::kCommitted);
  EXPECT_EQ(E(2).CurrentKind(2), StateKind::kAbort);

  // A late, re-delivered prepare fires nothing and sends nothing.
  const NetworkStats before = net_.StatsSnapshot();
  Message prepare;
  prepare.type = msg::kPrepare;
  prepare.from = 1;
  prepare.to = 2;
  prepare.txn = 1;
  E(2).OnMessage(prepare);
  sim_.Run();
  EXPECT_EQ(net_.StatsSnapshot().messages_sent, before.messages_sent);
  EXPECT_EQ(E(2).CurrentKind(1), StateKind::kCommit);

  EXPECT_TRUE(E(2).ForceOutcome(1, Outcome::kAborted).IsFailedPrecondition());
  EXPECT_TRUE(E(2).ForceOutcome(2, Outcome::kCommitted).IsFailedPrecondition());
  EXPECT_TRUE(E(2).ForceOutcome(1, Outcome::kCommitted).ok());
  EXPECT_TRUE(E(2).StartTransaction(2).IsFailedPrecondition());
  EXPECT_TRUE(E(2).UndecidedTransactions().empty());
  EXPECT_EQ(hook_calls, 0);
}

}  // namespace
}  // namespace nbcp
