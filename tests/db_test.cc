#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"

#include "db/kv_store.h"
#include "db/local_transaction.h"
#include "db/lock_manager.h"
#include "db/wal.h"

namespace nbcp {
namespace {

// --- KvStore ------------------------------------------------------------

class KvStoreTest : public ::testing::Test {
 protected:
  KvStoreTest() : store_(&wal_) {}
  WriteAheadLog wal_;
  KvStore store_;
};

TEST_F(KvStoreTest, CommitLifecycle) {
  ASSERT_TRUE(store_.Begin(1).ok());
  ASSERT_TRUE(store_.Put(1, "a", "1").ok());
  ASSERT_TRUE(store_.Put(1, "b", "2").ok());
  // Uncommitted writes are invisible outside the transaction.
  EXPECT_FALSE(store_.GetCommitted("a").has_value());
  // But visible inside (read-your-writes).
  EXPECT_EQ(store_.Get(1, "a").value(), "1");
  ASSERT_TRUE(store_.Prepare(1).ok());
  ASSERT_TRUE(store_.Commit(1).ok());
  EXPECT_EQ(store_.GetCommitted("a"), std::optional<std::string>("1"));
  EXPECT_EQ(store_.GetCommitted("b"), std::optional<std::string>("2"));
  EXPECT_FALSE(store_.IsActive(1));
}

TEST_F(KvStoreTest, AbortDiscardsWrites) {
  ASSERT_TRUE(store_.Begin(1).ok());
  ASSERT_TRUE(store_.Put(1, "a", "1").ok());
  ASSERT_TRUE(store_.Abort(1).ok());
  EXPECT_FALSE(store_.GetCommitted("a").has_value());
}

TEST_F(KvStoreTest, CommitRequiresPrepare) {
  ASSERT_TRUE(store_.Begin(1).ok());
  ASSERT_TRUE(store_.Put(1, "a", "1").ok());
  EXPECT_TRUE(store_.Commit(1).IsFailedPrecondition());
  ASSERT_TRUE(store_.Prepare(1).ok());
  EXPECT_TRUE(store_.Commit(1).ok());
}

TEST_F(KvStoreTest, NoWritesAfterPrepare) {
  ASSERT_TRUE(store_.Begin(1).ok());
  ASSERT_TRUE(store_.Put(1, "a", "1").ok());
  ASSERT_TRUE(store_.Prepare(1).ok());
  EXPECT_TRUE(store_.Put(1, "b", "2").IsFailedPrecondition());
  EXPECT_TRUE(store_.Delete(1, "a").IsFailedPrecondition());
  EXPECT_TRUE(store_.IsPrepared(1));
}

TEST_F(KvStoreTest, DoubleBeginRejected) {
  ASSERT_TRUE(store_.Begin(1).ok());
  EXPECT_TRUE(store_.Begin(1).IsAlreadyExists());
}

TEST_F(KvStoreTest, OperationsOnInactiveTxnFail) {
  EXPECT_TRUE(store_.Put(9, "a", "1").IsFailedPrecondition());
  EXPECT_TRUE(store_.Get(9, "a").status().IsFailedPrecondition());
  EXPECT_TRUE(store_.Prepare(9).IsFailedPrecondition());
  EXPECT_TRUE(store_.Commit(9).IsFailedPrecondition());
  EXPECT_TRUE(store_.Abort(9).IsFailedPrecondition());
}

TEST_F(KvStoreTest, DeleteStagedAndApplied) {
  ASSERT_TRUE(store_.Begin(1).ok());
  ASSERT_TRUE(store_.Put(1, "a", "1").ok());
  ASSERT_TRUE(store_.Prepare(1).ok());
  ASSERT_TRUE(store_.Commit(1).ok());

  ASSERT_TRUE(store_.Begin(2).ok());
  ASSERT_TRUE(store_.Delete(2, "a").ok());
  EXPECT_TRUE(store_.Get(2, "a").status().IsNotFound());
  ASSERT_TRUE(store_.Prepare(2).ok());
  ASSERT_TRUE(store_.Commit(2).ok());
  EXPECT_FALSE(store_.GetCommitted("a").has_value());
}

TEST_F(KvStoreTest, RecoveryRedoesCommittedTransactions) {
  ASSERT_TRUE(store_.Begin(1).ok());
  ASSERT_TRUE(store_.Put(1, "a", "1").ok());
  ASSERT_TRUE(store_.Prepare(1).ok());
  ASSERT_TRUE(store_.Commit(1).ok());

  store_.CrashVolatile();
  EXPECT_FALSE(store_.GetCommitted("a").has_value());
  auto in_doubt = store_.RecoverFromWal();
  ASSERT_TRUE(in_doubt.ok());
  EXPECT_TRUE(in_doubt->empty());
  EXPECT_EQ(store_.GetCommitted("a"), std::optional<std::string>("1"));
}

TEST_F(KvStoreTest, RecoveryRestagesInDoubtTransactions) {
  ASSERT_TRUE(store_.Begin(1).ok());
  ASSERT_TRUE(store_.Put(1, "a", "1").ok());
  ASSERT_TRUE(store_.Prepare(1).ok());
  // Crash before the decision.
  store_.CrashVolatile();
  auto in_doubt = store_.RecoverFromWal();
  ASSERT_TRUE(in_doubt.ok());
  ASSERT_EQ(*in_doubt, (std::vector<TransactionId>{1}));
  EXPECT_TRUE(store_.IsPrepared(1));
  // The recovery protocol can now commit it.
  ASSERT_TRUE(store_.Commit(1).ok());
  EXPECT_EQ(store_.GetCommitted("a"), std::optional<std::string>("1"));
}

TEST_F(KvStoreTest, RecoveryAbortsUnpreparedTransactions) {
  ASSERT_TRUE(store_.Begin(1).ok());
  ASSERT_TRUE(store_.Put(1, "a", "1").ok());
  store_.CrashVolatile();
  auto in_doubt = store_.RecoverFromWal();
  ASSERT_TRUE(in_doubt.ok());
  EXPECT_TRUE(in_doubt->empty());
  EXPECT_FALSE(store_.IsActive(1));
  EXPECT_FALSE(store_.GetCommitted("a").has_value());
}

TEST_F(KvStoreTest, RecoveryOrderingAcrossTransactions) {
  // Two committed transactions writing the same key: recovery must replay
  // in log order.
  ASSERT_TRUE(store_.Begin(1).ok());
  ASSERT_TRUE(store_.Put(1, "k", "first").ok());
  ASSERT_TRUE(store_.Prepare(1).ok());
  ASSERT_TRUE(store_.Commit(1).ok());
  ASSERT_TRUE(store_.Begin(2).ok());
  ASSERT_TRUE(store_.Put(2, "k", "second").ok());
  ASSERT_TRUE(store_.Prepare(2).ok());
  ASSERT_TRUE(store_.Commit(2).ok());

  store_.CrashVolatile();
  ASSERT_TRUE(store_.RecoverFromWal().ok());
  EXPECT_EQ(store_.GetCommitted("k"), std::optional<std::string>("second"));
}

TEST_F(KvStoreTest, CorruptWalDetected) {
  wal_.Append(WalRecord{WalRecordType::kCommit, 1, "", "", false, "", false});
  wal_.Append(WalRecord{WalRecordType::kAbort, 1, "", "", false, "", false});
  EXPECT_TRUE(store_.RecoverFromWal().status().IsCorruption());
}

TEST_F(KvStoreTest, WalTruncate) {
  wal_.Append(WalRecord{WalRecordType::kBegin, 1, "", "", false, "", false});
  wal_.Append(WalRecord{WalRecordType::kCommit, 1, "", "", false, "", false});
  wal_.Truncate(1);
  ASSERT_EQ(wal_.size(), 1u);
  EXPECT_EQ(wal_.records()[0].type, WalRecordType::kCommit);
  wal_.Truncate(100);
  EXPECT_EQ(wal_.size(), 0u);
}

TEST(WalTest, RecordTypeNames) {
  EXPECT_EQ(ToString(WalRecordType::kPrepare), "PREPARE");
  EXPECT_EQ(ToString(WalRecordType::kWrite), "WRITE");
}

// --- WAL checkpoints -------------------------------------------------------

/// Drives a KvStore through a seeded random history of Begin / Put / Delete
/// / Prepare / Commit / Abort, with crashes, recoveries and truncations at
/// the checkpoint at random points. Conflicting writes are serialized as
/// strict two-phase locking would: a key staged by an unresolved
/// transaction is left alone by the others.
class CheckpointHistory {
 public:
  explicit CheckpointHistory(uint64_t seed) : rng_(seed), store_(&wal_) {}

  /// Runs `steps` random operations, checking every recovery against a
  /// full replay.
  void Run(size_t steps) {
    for (size_t i = 0; i < steps; ++i) {
      Step();
      Mirror();
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  size_t recoveries() const { return recoveries_; }
  size_t truncations() const { return truncations_; }

 private:
  struct Txn {
    bool prepared = false;
    std::set<std::string> keys;
  };

  static constexpr int kKeys = 6;
  static std::string Key(uint64_t i) { return "k" + std::to_string(i); }

  TransactionId Pick(bool prepared) {
    std::vector<TransactionId> candidates;
    for (const auto& [txn, state] : active_) {
      if (state.prepared == prepared) candidates.push_back(txn);
    }
    if (candidates.empty()) return kNoTransaction;
    return candidates[rng_.Uniform(0, candidates.size() - 1)];
  }

  void Resolve(TransactionId txn) {
    for (const std::string& key : active_[txn].keys) owner_.erase(key);
    active_.erase(txn);
  }

  void Step() {
    switch (rng_.Uniform(0, 9)) {
      case 0:
      case 1: {
        if (active_.size() >= 4) break;
        TransactionId txn = next_txn_++;
        ASSERT_TRUE(store_.Begin(txn).ok());
        active_[txn];
        break;
      }
      case 2:
      case 3:
      case 4: {
        TransactionId txn = Pick(/*prepared=*/false);
        std::string key = Key(rng_.Uniform(0, kKeys - 1));
        if (txn == kNoTransaction) break;
        auto owner = owner_.find(key);
        if (owner != owner_.end() && owner->second != txn) break;
        owner_[key] = txn;
        active_[txn].keys.insert(key);
        if (rng_.Bernoulli(0.25)) {
          ASSERT_TRUE(store_.Delete(txn, key).ok());
        } else {
          ASSERT_TRUE(
              store_.Put(txn, key, "v" + std::to_string(next_value_++)).ok());
        }
        break;
      }
      case 5: {
        TransactionId txn = Pick(/*prepared=*/false);
        if (txn == kNoTransaction) break;
        ASSERT_TRUE(store_.Prepare(txn).ok());
        active_[txn].prepared = true;
        break;
      }
      case 6: {
        TransactionId txn = Pick(/*prepared=*/true);
        if (txn == kNoTransaction) break;
        ASSERT_TRUE(store_.Commit(txn).ok());
        Resolve(txn);
        break;
      }
      case 7: {
        TransactionId txn = Pick(rng_.Bernoulli(0.5));
        if (txn == kNoTransaction) break;
        ASSERT_TRUE(store_.Abort(txn).ok());
        Resolve(txn);
        break;
      }
      case 8:
        CrashAndRecover();
        break;
      case 9:
        if (rng_.Bernoulli(0.3)) {
          Mirror();
          wal_.Truncate(wal_.checkpoint().lsn);
          mirrored_ = wal_.size();
          EXPECT_EQ(wal_.checkpoint().lsn, 0u);
          ++truncations_;
        }
        break;
    }
  }

  /// Copies the records appended since the last call into the full history.
  void Mirror() {
    for (size_t i = mirrored_; i < wal_.size(); ++i) {
      full_.push_back(wal_.records()[i]);
    }
    mirrored_ = wal_.size();
  }

  void CrashAndRecover() {
    store_.CrashVolatile();
    auto in_doubt = store_.RecoverFromWal();
    ASSERT_TRUE(in_doubt.ok()) << in_doubt.status().ToString();
    Mirror();
    ++recoveries_;
    // Recovery aborts what was never prepared.
    std::vector<TransactionId> unprepared;
    for (const auto& [txn, state] : active_) {
      if (!state.prepared) unprepared.push_back(txn);
    }
    for (TransactionId txn : unprepared) Resolve(txn);

    // Reference: a fresh store replaying a checkpoint-free copy of the
    // whole history.
    WriteAheadLog reference_wal;
    for (const WalRecord& r : full_) reference_wal.Append(r);
    KvStore reference(&reference_wal);
    auto reference_in_doubt = reference.RecoverFromWal();
    ASSERT_TRUE(reference_in_doubt.ok());
    EXPECT_EQ(reference_wal.size(), full_.size()) << "nothing left to abort";

    ASSERT_EQ(*in_doubt, *reference_in_doubt) << "recovery " << recoveries_;
    EXPECT_EQ(in_doubt->size(), active_.size());
    EXPECT_EQ(store_.num_committed_keys(), reference.num_committed_keys());
    for (uint64_t k = 0; k < kKeys; ++k) {
      EXPECT_EQ(store_.GetCommitted(Key(k)), reference.GetCommitted(Key(k)))
          << "key " << Key(k) << ", recovery " << recoveries_;
    }
    for (TransactionId txn : *in_doubt) {
      EXPECT_TRUE(store_.IsPrepared(txn));
      EXPECT_TRUE(reference.IsPrepared(txn));
      for (uint64_t k = 0; k < kKeys; ++k) {
        auto staged = store_.Get(txn, Key(k));
        auto expected = reference.Get(txn, Key(k));
        ASSERT_EQ(staged.ok(), expected.ok()) << "txn " << txn;
        if (staged.ok()) {
          EXPECT_EQ(*staged, *expected) << "txn " << txn;
        }
      }
    }
  }

  Rng rng_;
  WriteAheadLog wal_;
  KvStore store_;
  std::vector<WalRecord> full_;  ///< Every record ever appended, in order.
  size_t mirrored_ = 0;          ///< Prefix of wal_ already in full_.
  std::map<TransactionId, Txn> active_;
  std::map<std::string, TransactionId> owner_;
  TransactionId next_txn_ = 1;
  uint64_t next_value_ = 0;
  size_t recoveries_ = 0;
  size_t truncations_ = 0;
};

TEST(WalCheckpointTest, RecoveryMatchesFullReplay) {
  size_t recoveries = 0;
  size_t truncations = 0;
  for (uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    CheckpointHistory history(seed);
    history.Run(400);
    if (HasFatalFailure()) return;
    recoveries += history.recoveries();
    truncations += history.truncations();
  }
  EXPECT_GT(recoveries, 100u);
  EXPECT_GT(truncations, 10u);
}

TEST_F(KvStoreTest, RecoveryWritesCheckpoint) {
  ASSERT_TRUE(store_.Begin(1).ok());
  ASSERT_TRUE(store_.Put(1, "a", "1").ok());
  ASSERT_TRUE(store_.Prepare(1).ok());
  ASSERT_TRUE(store_.Commit(1).ok());
  ASSERT_TRUE(store_.Begin(2).ok());
  ASSERT_TRUE(store_.Put(2, "b", "2").ok());
  ASSERT_TRUE(store_.Prepare(2).ok());
  ASSERT_TRUE(store_.Begin(3).ok());  // Unprepared: aborted on recovery.

  store_.CrashVolatile();
  ASSERT_TRUE(store_.RecoverFromWal().ok());
  const WalCheckpoint& checkpoint = wal_.checkpoint();
  EXPECT_EQ(checkpoint.lsn, wal_.size());
  EXPECT_EQ(checkpoint.image,
            (std::map<std::string, std::string>{{"a", "1"}}));
  // Only the in-doubt transaction's records are carried.
  ASSERT_EQ(checkpoint.carried.size(), 3u);
  for (const WalRecord& r : checkpoint.carried) EXPECT_EQ(r.txn, 2u);
}

TEST_F(KvStoreTest, TruncateAtCheckpointLosesNothing) {
  ASSERT_TRUE(store_.Begin(1).ok());
  ASSERT_TRUE(store_.Put(1, "a", "1").ok());
  ASSERT_TRUE(store_.Prepare(1).ok());
  ASSERT_TRUE(store_.Commit(1).ok());
  ASSERT_TRUE(store_.Begin(2).ok());
  ASSERT_TRUE(store_.Put(2, "b", "2").ok());
  ASSERT_TRUE(store_.Prepare(2).ok());
  store_.CrashVolatile();
  ASSERT_TRUE(store_.RecoverFromWal().ok());

  // Records after the checkpoint keep their place across truncation.
  ASSERT_TRUE(store_.Commit(2).ok());
  const size_t lsn = wal_.checkpoint().lsn;
  wal_.Truncate(lsn);
  EXPECT_EQ(wal_.checkpoint().lsn, 0u);
  ASSERT_EQ(wal_.size(), 1u);
  EXPECT_EQ(wal_.records()[0].type, WalRecordType::kCommit);

  store_.CrashVolatile();
  auto in_doubt = store_.RecoverFromWal();
  ASSERT_TRUE(in_doubt.ok());
  EXPECT_TRUE(in_doubt->empty());
  EXPECT_EQ(store_.GetCommitted("a"), std::optional<std::string>("1"));
  EXPECT_EQ(store_.GetCommitted("b"), std::optional<std::string>("2"));
}

TEST_F(KvStoreTest, TruncatePastCheckpointRebasesIt) {
  ASSERT_TRUE(store_.Begin(1).ok());
  store_.CrashVolatile();
  ASSERT_TRUE(store_.RecoverFromWal().ok());  // Checkpoint after the abort.
  ASSERT_EQ(wal_.checkpoint().lsn, 2u);
  ASSERT_TRUE(store_.Begin(2).ok());
  wal_.Truncate(wal_.size());
  EXPECT_EQ(wal_.checkpoint().lsn, 0u);
  EXPECT_EQ(wal_.size(), 0u);
  store_.CrashVolatile();
  EXPECT_TRUE(store_.RecoverFromWal().ok());
}

// --- LockManager ----------------------------------------------------------

TEST(LockManagerTest, SharedLocksCoexist) {
  LockManager lm;
  EXPECT_TRUE(lm.TryAcquire(1, "k", LockMode::kShared).ok());
  EXPECT_TRUE(lm.TryAcquire(2, "k", LockMode::kShared).ok());
  EXPECT_TRUE(lm.Holds(1, "k", LockMode::kShared));
  EXPECT_TRUE(lm.Holds(2, "k", LockMode::kShared));
}

TEST(LockManagerTest, ExclusiveConflicts) {
  LockManager lm;
  EXPECT_TRUE(lm.TryAcquire(1, "k", LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.TryAcquire(2, "k", LockMode::kShared).IsAborted());
  EXPECT_TRUE(lm.TryAcquire(2, "k", LockMode::kExclusive).IsAborted());
  EXPECT_FALSE(lm.Holds(2, "k", LockMode::kShared));
}

TEST(LockManagerTest, ReentrantAndUpgrade) {
  LockManager lm;
  EXPECT_TRUE(lm.TryAcquire(1, "k", LockMode::kShared).ok());
  EXPECT_TRUE(lm.TryAcquire(1, "k", LockMode::kShared).ok());
  // Upgrade with no other sharers succeeds.
  EXPECT_TRUE(lm.TryAcquire(1, "k", LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Holds(1, "k", LockMode::kExclusive));
  // Exclusive holder may re-request shared.
  EXPECT_TRUE(lm.TryAcquire(1, "k", LockMode::kShared).ok());
  EXPECT_TRUE(lm.Holds(1, "k", LockMode::kExclusive));
}

TEST(LockManagerTest, UpgradeBlockedByOtherSharer) {
  LockManager lm;
  EXPECT_TRUE(lm.TryAcquire(1, "k", LockMode::kShared).ok());
  EXPECT_TRUE(lm.TryAcquire(2, "k", LockMode::kShared).ok());
  EXPECT_TRUE(lm.TryAcquire(1, "k", LockMode::kExclusive).IsAborted());
}

TEST(LockManagerTest, ReleaseFreesLocks) {
  LockManager lm;
  EXPECT_TRUE(lm.TryAcquire(1, "k", LockMode::kExclusive).ok());
  lm.Release(1);
  EXPECT_FALSE(lm.Holds(1, "k", LockMode::kShared));
  EXPECT_TRUE(lm.TryAcquire(2, "k", LockMode::kExclusive).ok());
}

TEST(LockManagerTest, AsyncGrantsImmediatelyWhenFree) {
  LockManager lm;
  Status result = Status::Internal("not called");
  lm.AcquireAsync(1, "k", LockMode::kExclusive,
                  [&](Status s) { result = s; });
  EXPECT_TRUE(result.ok());
}

TEST(LockManagerTest, AsyncQueuesAndGrantsOnRelease) {
  LockManager lm;
  ASSERT_TRUE(lm.TryAcquire(1, "k", LockMode::kExclusive).ok());
  bool granted = false;
  lm.AcquireAsync(2, "k", LockMode::kExclusive, [&](Status s) {
    EXPECT_TRUE(s.ok());
    granted = true;
  });
  EXPECT_FALSE(granted);
  EXPECT_EQ(lm.num_waiters(), 1u);
  lm.Release(1);
  EXPECT_TRUE(granted);
  EXPECT_TRUE(lm.Holds(2, "k", LockMode::kExclusive));
}

TEST(LockManagerTest, DeadlockCycleAbortsRequester) {
  LockManager lm;
  ASSERT_TRUE(lm.TryAcquire(1, "a", LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.TryAcquire(2, "b", LockMode::kExclusive).ok());
  // txn 2 waits for a (held by 1).
  bool t2_outcome_seen = false;
  lm.AcquireAsync(2, "a", LockMode::kExclusive,
                  [&](Status s) { t2_outcome_seen = s.ok(); });
  // txn 1 requesting b would close the cycle 1 -> 2 -> 1: victim.
  Status t1_result = Status::OK();
  lm.AcquireAsync(1, "b", LockMode::kExclusive,
                  [&](Status s) { t1_result = s; });
  EXPECT_TRUE(t1_result.IsAborted());
  // Releasing the victim's locks lets txn 2 proceed.
  lm.Release(1);
  EXPECT_TRUE(t2_outcome_seen);
}

TEST(LockManagerTest, WaitsForEdgesReported) {
  LockManager lm;
  ASSERT_TRUE(lm.TryAcquire(1, "k", LockMode::kExclusive).ok());
  lm.AcquireAsync(2, "k", LockMode::kExclusive, [](Status) {});
  auto edges = lm.WaitsForEdges();
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].first, 2u);
  EXPECT_EQ(edges[0].second, 1u);
}

TEST(LockManagerTest, ReleaseCancelsWaiters) {
  LockManager lm;
  ASSERT_TRUE(lm.TryAcquire(1, "k", LockMode::kExclusive).ok());
  lm.AcquireAsync(2, "k", LockMode::kExclusive, [](Status) {});
  lm.Release(2);  // Cancel txn 2's waiting request.
  EXPECT_EQ(lm.num_waiters(), 0u);
  lm.Release(1);
  EXPECT_FALSE(lm.Holds(2, "k", LockMode::kShared));
}

TEST(LockManagerTest, FifoQueueOrder) {
  LockManager lm;
  ASSERT_TRUE(lm.TryAcquire(1, "k", LockMode::kExclusive).ok());
  std::vector<int> grants;
  lm.AcquireAsync(2, "k", LockMode::kExclusive,
                  [&](Status) { grants.push_back(2); });
  lm.AcquireAsync(3, "k", LockMode::kExclusive,
                  [&](Status) { grants.push_back(3); });
  lm.Release(1);
  ASSERT_EQ(grants, (std::vector<int>{2}));  // 3 still queued behind 2.
  lm.Release(2);
  EXPECT_EQ(grants, (std::vector<int>{2, 3}));
}

// --- LocalTransaction -------------------------------------------------

class LocalTransactionTest : public ::testing::Test {
 protected:
  LocalTransactionTest() : store_(&wal_) {}
  WriteAheadLog wal_;
  KvStore store_;
  LockManager locks_;
};

TEST_F(LocalTransactionTest, ExecutePrepareCommit) {
  LocalTransaction txn(1, &store_, &locks_);
  std::vector<KvOp> ops = {
      KvOp{1, KvOp::Kind::kPut, "x", "10"},
      KvOp{1, KvOp::Kind::kPut, "y", "20"},
  };
  ASSERT_TRUE(txn.Execute(ops).ok());
  EXPECT_TRUE(locks_.Holds(1, "x", LockMode::kExclusive));
  ASSERT_TRUE(txn.Prepare().ok());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(store_.GetCommitted("x"), std::optional<std::string>("10"));
  EXPECT_FALSE(locks_.Holds(1, "x", LockMode::kShared));
}

TEST_F(LocalTransactionTest, LockConflictAbortsExecution) {
  // The unilateral-abort motivation: concurrency control can force a no
  // vote.
  ASSERT_TRUE(locks_.TryAcquire(99, "x", LockMode::kExclusive).ok());
  LocalTransaction txn(1, &store_, &locks_);
  Status s = txn.Execute({KvOp{1, KvOp::Kind::kPut, "x", "10"}});
  EXPECT_TRUE(s.IsAborted());
  EXPECT_FALSE(store_.IsActive(1));
  EXPECT_FALSE(txn.executed());
}

TEST_F(LocalTransactionTest, ReadTakesSharedLock) {
  LocalTransaction txn(1, &store_, &locks_);
  ASSERT_TRUE(txn.Execute({KvOp{1, KvOp::Kind::kGet, "x", ""}}).ok());
  EXPECT_TRUE(locks_.Holds(1, "x", LockMode::kShared));
  EXPECT_FALSE(locks_.Holds(1, "x", LockMode::kExclusive));
}

TEST_F(LocalTransactionTest, PrepareWithoutExecuteFails) {
  LocalTransaction txn(1, &store_, &locks_);
  EXPECT_TRUE(txn.Prepare().IsFailedPrecondition());
}

TEST_F(LocalTransactionTest, AbortReleasesEverything) {
  LocalTransaction txn(1, &store_, &locks_);
  ASSERT_TRUE(txn.Execute({KvOp{1, KvOp::Kind::kPut, "x", "10"}}).ok());
  ASSERT_TRUE(txn.Abort().ok());
  EXPECT_FALSE(store_.IsActive(1));
  EXPECT_FALSE(locks_.Holds(1, "x", LockMode::kShared));
  EXPECT_FALSE(store_.GetCommitted("x").has_value());
}

}  // namespace
}  // namespace nbcp
