#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/transaction_manager.h"
#include "net/network.h"
#include "obs/span.h"
#include "protocols/protocols.h"
#include "recovery/dt_log.h"
#include "recovery/recovery_manager.h"
#include "sim/simulator.h"

namespace nbcp {
namespace {

TEST(DtLogTest, OutcomeTracking) {
  DtLog log;
  log.Append(1, DtLogEvent::kStart);
  EXPECT_FALSE(log.OutcomeOf(1).has_value());
  log.Append(1, DtLogEvent::kVoteYes);
  log.Append(1, DtLogEvent::kCommit);
  EXPECT_EQ(log.OutcomeOf(1), std::optional<Outcome>(Outcome::kCommitted));
  EXPECT_TRUE(log.Knows(1));
  EXPECT_FALSE(log.Knows(2));
}

TEST(DtLogTest, InDoubtDetection) {
  DtLog log;
  log.Append(1, DtLogEvent::kStart);
  log.Append(1, DtLogEvent::kVoteYes);       // In doubt.
  log.Append(2, DtLogEvent::kStart);
  log.Append(2, DtLogEvent::kVoteYes);
  log.Append(2, DtLogEvent::kCommit);        // Decided.
  log.Append(3, DtLogEvent::kStart);
  log.Append(3, DtLogEvent::kVoteNo);        // Voted no: not in doubt.
  log.Append(4, DtLogEvent::kStart);          // Never voted.
  EXPECT_EQ(log.InDoubt(), (std::vector<TransactionId>{1}));
  EXPECT_EQ(log.UnvotedUndecided(), (std::vector<TransactionId>{4}));
}

TEST(DtLogTest, UnresolvedListsSurviveLongHistories) {
  // Decided transactions are dropped from the unresolved bookkeeping in
  // batches; the lists must keep exactly the unresolved ones, in
  // first-seen order, across many batches.
  DtLog log;
  std::vector<TransactionId> in_doubt;
  std::vector<TransactionId> unvoted;
  for (TransactionId txn = 1; txn <= 2000; ++txn) {
    log.Append(txn, DtLogEvent::kStart);
    if (txn % 97 == 0) {
      unvoted.push_back(txn);
      continue;
    }
    log.Append(txn, DtLogEvent::kVoteYes);
    if (txn % 89 == 0) {
      in_doubt.push_back(txn);
      continue;
    }
    log.Append(txn, txn % 2 == 0 ? DtLogEvent::kCommit : DtLogEvent::kAbort);
  }
  EXPECT_EQ(log.InDoubt(), in_doubt);
  EXPECT_EQ(log.UnvotedUndecided(), unvoted);
  log.Append(in_doubt.front(), DtLogEvent::kCommit);
  in_doubt.erase(in_doubt.begin());
  EXPECT_EQ(log.InDoubt(), in_doubt);
}

TEST(DtLogTest, PreparedImpliesVotedYes) {
  DtLog log;
  log.Append(1, DtLogEvent::kPrepared);
  EXPECT_TRUE(log.VotedYes(1));
  EXPECT_TRUE(log.WasPrepared(1));
  EXPECT_EQ(log.InDoubt(), (std::vector<TransactionId>{1}));
}

TEST(DtLogTest, VoteYesWithoutPrepare) {
  DtLog log;
  log.Append(1, DtLogEvent::kVoteYes);
  EXPECT_TRUE(log.VotedYes(1));
  EXPECT_FALSE(log.WasPrepared(1));
}

TEST(DtLogTest, EventNames) {
  EXPECT_EQ(ToString(DtLogEvent::kVoteYes), "VOTE-YES");
  EXPECT_EQ(ToString(DtLogEvent::kPrepared), "PREPARED");
  EXPECT_EQ(ToString(DtLogEvent::kAbort), "ABORT");
}

TEST(DtLogTest, RecordsKeptInOrder) {
  DtLog log;
  log.Append(5, DtLogEvent::kStart);
  log.Append(5, DtLogEvent::kVoteYes);
  ASSERT_EQ(log.records().size(), 2u);
  EXPECT_EQ(log.records()[0].event, DtLogEvent::kStart);
  EXPECT_EQ(log.records()[1].event, DtLogEvent::kVoteYes);
}

// --- RecoveryManager over a simulated network ------------------------

class RecoveryManagerTest : public ::testing::Test {
 protected:
  RecoveryManagerTest() : sim_(1), net_(&sim_, DelayModel{100, 0}) {
    // Site 1 recovers; sites 2 and 3 answer queries.
    for (SiteId s = 1; s <= 3; ++s) {
      net_.RegisterSite(s, [this, s](const Message& m) {
        if (managers_.count(s) != 0) managers_[s]->OnMessage(m);
      });
    }
    for (SiteId s = 1; s <= 3; ++s) {
      RecoveryHooks hooks;
      hooks.alive_sites = [this]() {
        std::vector<SiteId> alive;
        for (SiteId x = 1; x <= 3; ++x) {
          if (net_.IsSiteUp(x)) alive.push_back(x);
        }
        return alive;
      };
      hooks.apply_outcome = [this, s](TransactionId txn, Outcome outcome) {
        applied_[s][txn] = outcome;
      };
      hooks.lookup_outcome =
          [this, s](TransactionId txn) -> std::optional<Outcome> {
        auto it = known_[s].find(txn);
        if (it == known_[s].end()) return std::nullopt;
        return it->second;
      };
      hooks.on_unresolved = [this, s](TransactionId txn) {
        unresolved_[s].push_back(txn);
      };
      managers_[s] = std::make_unique<RecoveryManager>(
          s, &sim_, &net_, &logs_[s], std::move(hooks),
          RecoveryConfig{.query_timeout = 1000, .max_attempts = 3});
    }
  }

  Simulator sim_;
  Network net_;
  std::map<SiteId, DtLog> logs_;
  std::map<SiteId, std::unique_ptr<RecoveryManager>> managers_;
  std::map<SiteId, std::map<TransactionId, Outcome>> applied_;
  std::map<SiteId, std::map<TransactionId, Outcome>> known_;
  std::map<SiteId, std::vector<TransactionId>> unresolved_;
};

TEST_F(RecoveryManagerTest, UnvotedTransactionsAbortedImmediately) {
  logs_[1].Append(7, DtLogEvent::kStart);
  managers_[1]->StartRecovery();
  EXPECT_EQ(applied_[1][7], Outcome::kAborted);
}

TEST_F(RecoveryManagerTest, InDoubtResolvedByPeerAnswer) {
  logs_[1].Append(7, DtLogEvent::kVoteYes);
  known_[2][7] = Outcome::kCommitted;
  managers_[1]->StartRecovery();
  EXPECT_TRUE(managers_[1]->IsResolving(7));
  sim_.Run();
  EXPECT_EQ(applied_[1][7], Outcome::kCommitted);
  EXPECT_FALSE(managers_[1]->IsResolving(7));
}

TEST_F(RecoveryManagerTest, AbortAnswerAlsoAdopted) {
  logs_[1].Append(7, DtLogEvent::kVoteYes);
  known_[3][7] = Outcome::kAborted;
  managers_[1]->StartRecovery();
  sim_.Run();
  EXPECT_EQ(applied_[1][7], Outcome::kAborted);
}

TEST_F(RecoveryManagerTest, UnknownAnswersKeepRetryingThenGiveUp) {
  logs_[1].Append(7, DtLogEvent::kVoteYes);
  // Nobody knows: retries exhaust and the txn is reported unresolved.
  managers_[1]->StartRecovery();
  sim_.Run();
  ASSERT_EQ(unresolved_[1].size(), 1u);
  EXPECT_EQ(unresolved_[1][0], 7u);
  EXPECT_EQ(applied_[1].count(7), 0u);
}

TEST_F(RecoveryManagerTest, LateKnowledgeDuringRetryWindowResolves) {
  logs_[1].Append(7, DtLogEvent::kVoteYes);
  managers_[1]->StartRecovery();
  // The second retry (t=1000) finds site 2 informed.
  sim_.ScheduleAt(500, [&] { known_[2][7] = Outcome::kCommitted; });
  sim_.Run();
  EXPECT_EQ(applied_[1][7], Outcome::kCommitted);
  EXPECT_TRUE(unresolved_[1].empty());
}

TEST_F(RecoveryManagerTest, OwnsMessagePrefix) {
  EXPECT_TRUE(RecoveryManager::OwnsMessage("rec:query"));
  EXPECT_FALSE(RecoveryManager::OwnsMessage("term:move"));
}

// --- Recovery cost -----------------------------------------------------

/// Number of events a recorder has seen, including ring-buffer evictions.
uint64_t EventsRecorded(const TraceRecorder& trace) {
  return trace.events().size() + trace.dropped();
}

TEST(RecoveryCostTest, RecoveryDoesNotRewriteHistory) {
  SystemConfig config;
  config.protocol = "3PC-central";
  config.num_sites = 3;
  config.seed = 5;
  config.trace = true;
  auto system = std::move(CommitSystem::Create(config)).value();
  TransactionId txn = system->Begin();
  std::vector<KvOp> ops = {KvOp{1, KvOp::Kind::kPut, "a", "1"},
                           KvOp{2, KvOp::Kind::kPut, "b", "2"}};
  ASSERT_TRUE(system->SubmitOps(txn, ops).ok());
  TxnResult decided = system->RunToCompletion(txn);
  ASSERT_EQ(decided.outcome, Outcome::kCommitted);
  const std::optional<SimTime> decision_time =
      system->participant(1).DecisionTime(txn);
  ASSERT_TRUE(decision_time.has_value());

  system->injector().CrashNow(1);
  system->simulator().Run();
  const size_t events_before = system->trace()->events().size();
  const size_t spans_before = system->spans().ForTransaction(txn).size();
  system->injector().RecoverNow(1);
  system->simulator().Run();
  ASSERT_GT(system->simulator().now(), *decision_time);

  EXPECT_EQ(system->participant(1).DecisionTime(txn), decision_time);
  EXPECT_EQ(system->Summarize(txn).latency(), decided.latency());
  const std::deque<TraceEvent>& events = system->trace()->events();
  for (size_t i = events_before; i < events.size(); ++i) {
    if (events[i].txn != txn) continue;
    EXPECT_NE(events[i].type, TraceEventType::kStateChange);
    EXPECT_NE(events[i].type, TraceEventType::kDecision);
  }
  EXPECT_EQ(system->spans().ForTransaction(txn).size(), spans_before);
  // The recovered site still knows the outcome and the committed data.
  EXPECT_EQ(system->participant(1).OutcomeOf(txn), Outcome::kCommitted);
  EXPECT_EQ(system->participant(1).kv().GetCommitted("a"),
            std::optional<std::string>("1"));
}

TEST(RecoveryCostTest, PerCycleWorkDoesNotGrowWithHistory) {
  constexpr size_t kSites = 5;
  constexpr size_t kCycles = 1000;
  constexpr size_t kWindow = 50;
  SystemConfig config;
  config.protocol = "3PC-central";
  config.num_sites = kSites;
  config.seed = 11;
  config.delay = DelayModel{100, 0};
  config.trace = true;
  config.trace_capacity = 4096;
  auto system = std::move(CommitSystem::Create(config)).value();

  // Every cycle: the coordinator crashes before any prepare leaves, the
  // slaves terminate (abort), and the coordinator recovers and resolves
  // its in-doubt transaction. Each cycle grows the coordinator's logs.
  std::vector<std::pair<size_t, uint64_t>> per_cycle;  // (spans, events)
  for (size_t i = 0; i < kCycles; ++i) {
    const size_t spans_before = system->spans().spans().size();
    const uint64_t events_before = EventsRecorded(*system->trace());
    TransactionId txn = system->Begin();
    const std::string tag = std::to_string(i);
    std::vector<KvOp> ops = {KvOp{1, KvOp::Kind::kPut, "c" + tag, "x"},
                             KvOp{2, KvOp::Kind::kPut, "s" + tag, "y"}};
    ASSERT_TRUE(system->SubmitOps(txn, ops).ok());
    system->injector().CrashDuringBroadcast(1, txn, msg::kPrepare, 0);
    ASSERT_EQ(system->RunToCompletion(txn).outcome, Outcome::kAborted);
    ASSERT_TRUE(system->participant(1).crashed()) << "cycle " << i;
    system->injector().RecoverNow(1);
    ASSERT_EQ(system->AwaitQuiescence(txn).decided_sites, kSites);
    per_cycle.emplace_back(system->spans().spans().size() - spans_before,
                           EventsRecorded(*system->trace()) - events_before);
  }
  EXPECT_EQ(system->participant(1).dt_log().OutcomeOf(1),
            std::optional<Outcome>(Outcome::kAborted));
  const std::vector<std::pair<size_t, uint64_t>> first(
      per_cycle.begin(), per_cycle.begin() + kWindow);
  const std::vector<std::pair<size_t, uint64_t>> last(
      per_cycle.end() - kWindow, per_cycle.end());
  EXPECT_EQ(first, last);
}

// --- Recovery and concurrency control -----------------------------------

TEST(RecoveryLockTest, InDoubtWritesStayLockedUntilTheOutcome) {
  SystemConfig config;
  config.protocol = "2PC-central";
  config.num_sites = 3;
  config.seed = 3;
  auto system = std::move(CommitSystem::Create(config)).value();
  auto write_k_at_2 = [](const std::string& value) {
    return std::vector<KvOp>{KvOp{2, KvOp::Kind::kPut, "k", value}};
  };
  // Site 2 stages a write to "k" and votes yes. The coordinator decides
  // commit but crashes before any commit message leaves: site 2 is in
  // doubt.
  TransactionId in_doubt = system->Begin();
  ASSERT_TRUE(system->SubmitOps(in_doubt, write_k_at_2("v1")).ok());
  system->injector().CrashDuringBroadcast(1, in_doubt, msg::kCommit, 0);
  ASSERT_TRUE(system->RunToCompletion(in_doubt).blocked);

  // Site 2 crashes and recovers while the transaction is still in doubt.
  system->injector().CrashNow(2);
  system->injector().RecoverNow(2);
  system->simulator().Run();
  ASSERT_EQ(system->participant(2).OutcomeOf(in_doubt), Outcome::kUndecided);

  // The recovered site still holds the in-doubt write lock: a new writer
  // of the same key meets a lock conflict (and will vote no).
  TransactionId conflicting = system->Begin();
  EXPECT_TRUE(system->SubmitOps(conflicting, write_k_at_2("v2")).IsAborted());

  // The coordinator recovers with its logged commit; site 2 applies the
  // outcome and releases the lock, so the same write now succeeds.
  system->injector().RecoverNow(1);
  system->simulator().Run();
  ASSERT_EQ(system->participant(2).OutcomeOf(in_doubt), Outcome::kCommitted);
  EXPECT_EQ(system->participant(2).kv().GetCommitted("k"),
            std::optional<std::string>("v1"));
  TransactionId later = system->Begin();
  ASSERT_TRUE(system->SubmitOps(later, write_k_at_2("v3")).ok());
  EXPECT_EQ(system->RunToCompletion(later).outcome, Outcome::kCommitted);
  EXPECT_EQ(system->participant(2).kv().GetCommitted("k"),
            std::optional<std::string>("v3"));
}

}  // namespace
}  // namespace nbcp
