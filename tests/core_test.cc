#include <gtest/gtest.h>

#include "core/metrics.h"
#include "core/transaction_manager.h"
#include "protocols/protocols.h"

namespace nbcp {
namespace {

// --- Metrics -----------------------------------------------------------

TEST(MetricsTest, RecordAggregates) {
  SystemMetrics metrics;
  TxnResult commit;
  commit.outcome = Outcome::kCommitted;
  commit.messages = 10;
  commit.start_time = 0;
  commit.end_time = 500;
  metrics.Record(commit);

  TxnResult blocked;
  blocked.outcome = Outcome::kUndecided;
  blocked.blocked = true;
  blocked.used_termination = true;
  blocked.messages = 4;
  metrics.Record(blocked);

  EXPECT_EQ(metrics.runs, 2u);
  EXPECT_EQ(metrics.committed, 1u);
  EXPECT_EQ(metrics.aborted, 0u);
  EXPECT_EQ(metrics.blocked, 1u);
  EXPECT_EQ(metrics.terminations, 1u);
  EXPECT_DOUBLE_EQ(metrics.mean_messages(), 7.0);
  EXPECT_DOUBLE_EQ(metrics.mean_latency(), 250.0);
  EXPECT_DOUBLE_EQ(metrics.blocking_rate(), 0.5);
}

TEST(MetricsTest, EmptyMetricsAreZero) {
  SystemMetrics metrics;
  EXPECT_DOUBLE_EQ(metrics.mean_latency(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.mean_messages(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.blocking_rate(), 0.0);
}

TEST(MetricsTest, TxnResultLatencyNeverNegative) {
  TxnResult result;
  result.start_time = 100;
  result.end_time = 50;  // No decision recorded after start.
  EXPECT_EQ(result.latency(), 0u);
}

// --- Failure injector lifecycle ----------------------------------------

class InjectorTest : public ::testing::Test {
 protected:
  InjectorTest() {
    SystemConfig config;
    config.protocol = "3PC-central";
    config.num_sites = 3;
    config.seed = 13;
    system_ = std::move(CommitSystem::Create(config)).value();
  }
  std::unique_ptr<CommitSystem> system_;
};

TEST_F(InjectorTest, CrashIsIdempotent) {
  system_->injector().CrashNow(2);
  system_->injector().CrashNow(2);
  EXPECT_EQ(system_->injector().crash_count(), 1u);
  EXPECT_TRUE(system_->participant(2).crashed());
  EXPECT_FALSE(system_->network().IsSiteUp(2));
}

TEST_F(InjectorTest, TerminationIsNullOnlyWhileCrashed) {
  ASSERT_NE(system_->participant(2).termination(), nullptr);
  system_->injector().CrashNow(2);
  EXPECT_EQ(system_->participant(2).termination(), nullptr);
  system_->injector().RecoverNow(2);
  EXPECT_NE(system_->participant(2).termination(), nullptr);
}

TEST_F(InjectorTest, RecoveryIsIdempotent) {
  system_->injector().RecoverNow(2);  // Not down: no-op.
  EXPECT_FALSE(system_->participant(2).crashed());
  system_->injector().CrashNow(2);
  system_->injector().RecoverNow(2);
  system_->injector().RecoverNow(2);
  EXPECT_FALSE(system_->participant(2).crashed());
  EXPECT_TRUE(system_->network().IsSiteUp(2));
}

TEST_F(InjectorTest, RepeatedCrashRecoverCyclesPreserveDurableState) {
  TransactionId txn = system_->Begin();
  ASSERT_TRUE(
      system_->SubmitOps(txn, {KvOp{2, KvOp::Kind::kPut, "k", "v"}}).ok());
  ASSERT_EQ(system_->RunToCompletion(txn).outcome, Outcome::kCommitted);

  for (int cycle = 0; cycle < 3; ++cycle) {
    system_->injector().CrashNow(2);
    system_->injector().RecoverNow(2);
    system_->simulator().Run();
    EXPECT_EQ(system_->participant(2).kv().GetCommitted("k"),
              std::optional<std::string>("v"))
        << "cycle " << cycle;
    EXPECT_EQ(system_->participant(2).OutcomeOf(txn), Outcome::kCommitted);
  }
}

TEST_F(InjectorTest, TransactionsLaunchedDuringOutageAbortCleanly) {
  system_->injector().CrashNow(3);
  system_->simulator().Run();  // Let the failure report land.
  TransactionId txn = system_->Begin();
  TxnResult result = system_->RunToCompletion(txn);
  EXPECT_EQ(result.outcome, Outcome::kAborted);
  EXPECT_FALSE(result.blocked);
  EXPECT_TRUE(result.consistent);
}

TEST_F(InjectorTest, ScheduledEventsFireAtTheRightTime) {
  system_->injector().ScheduleCrash(2, 1000);
  system_->injector().ScheduleRecovery(2, 2000);
  system_->simulator().RunUntil(999);
  EXPECT_FALSE(system_->participant(2).crashed());
  system_->simulator().RunUntil(1000);
  EXPECT_TRUE(system_->participant(2).crashed());
  system_->simulator().RunUntil(2000);
  EXPECT_FALSE(system_->participant(2).crashed());
}

// --- Participant odds and ends ------------------------------------------

TEST_F(InjectorTest, KnowsTransactionSemantics) {
  TransactionId txn = system_->Begin();
  EXPECT_FALSE(system_->participant(2).KnowsTransaction(txn));
  ASSERT_TRUE(system_->Launch(txn).ok());
  system_->simulator().Run();
  EXPECT_TRUE(system_->participant(2).KnowsTransaction(txn));
  EXPECT_FALSE(system_->participant(2).KnowsTransaction(9999));
}

TEST_F(InjectorTest, SubmitOpsTwiceRejected) {
  TransactionId txn = system_->Begin();
  ASSERT_TRUE(
      system_->SubmitOps(txn, {KvOp{2, KvOp::Kind::kPut, "a", "1"}}).ok());
  EXPECT_TRUE(system_->SubmitOps(txn, {KvOp{2, KvOp::Kind::kPut, "b", "2"}})
                  .IsAlreadyExists());
}

TEST_F(InjectorTest, SubmitToUnknownSiteRejected) {
  TransactionId txn = system_->Begin();
  EXPECT_TRUE(system_->SubmitOps(txn, {KvOp{9, KvOp::Kind::kPut, "a", "1"}})
                  .IsInvalidArgument());
}

TEST_F(InjectorTest, CrashedSiteRejectsWork) {
  system_->injector().CrashNow(2);
  TransactionId txn = system_->Begin();
  EXPECT_TRUE(system_->participant(2)
                  .SubmitLocalOps(txn, {KvOp{2, KvOp::Kind::kPut, "a", "1"}})
                  .IsUnavailable());
  EXPECT_TRUE(system_->participant(2).StartProtocol(txn).IsUnavailable());
}

TEST_F(InjectorTest, DecisionTimeOnlyOnceDecided) {
  TransactionId txn = system_->Begin();
  EXPECT_EQ(system_->participant(2).DecisionTime(txn), std::nullopt);
  system_->RunToCompletion(txn);
  auto when = system_->participant(2).DecisionTime(txn);
  ASSERT_TRUE(when.has_value());
  EXPECT_GT(*when, 0u);
}

TEST_F(InjectorTest, SummarizeUnknownTransactionIsBenign) {
  TxnResult result = system_->Summarize(424242);
  EXPECT_EQ(result.outcome, Outcome::kUndecided);
  EXPECT_EQ(result.decided_sites, 0u);
  EXPECT_FALSE(result.blocked);
  EXPECT_TRUE(result.consistent);
}

}  // namespace
}  // namespace nbcp
