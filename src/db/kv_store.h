#ifndef NBCP_DB_KV_STORE_H_
#define NBCP_DB_KV_STORE_H_

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "db/wal.h"

namespace nbcp {

/// Per-site transactional key-value store with WAL-based local atomicity.
///
/// This realizes the paper's assumption that "each site has a local recovery
/// strategy that provides atomicity at the local level": a transaction's
/// writes are staged, made durable at Prepare() (undo/redo records), and
/// atomically applied at Commit() or discarded at Abort(). The committed map
/// is volatile; after a crash, RecoverFromWal() reconstructs it from the
/// log's latest checkpoint and the records after it, and reports in-doubt
/// transactions (prepared but undecided) for the distributed recovery
/// protocol to resolve.
class KvStore {
 public:
  /// `wal` must outlive the store.
  explicit KvStore(WriteAheadLog* wal) : wal_(wal) {}

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  /// Starts staging for `txn`. AlreadyExists if active.
  Status Begin(TransactionId txn);

  /// Reads through the transaction's own staged writes, then the committed
  /// state. NotFound if the key does not exist.
  Result<std::string> Get(TransactionId txn, const std::string& key) const;

  /// Stages a write. The transaction must be active and not yet prepared.
  Status Put(TransactionId txn, const std::string& key, std::string value);

  /// Stages a deletion.
  Status Delete(TransactionId txn, const std::string& key);

  /// Forces the staged writes to the log (undo/redo) and marks the
  /// transaction prepared: after this, the site may vote yes — commit is
  /// guaranteed locally executable even across a crash.
  Status Prepare(TransactionId txn);

  /// Applies the staged writes and logs the commit. The transaction must be
  /// prepared (commit is an unconditional guarantee; only prepared
  /// transactions may be committed).
  Status Commit(TransactionId txn);

  /// Discards staged writes and logs the abort. Valid in any active state.
  Status Abort(TransactionId txn);

  /// True if `txn` is active (begun, not yet committed/aborted).
  bool IsActive(TransactionId txn) const;

  /// True if `txn` is active and prepared.
  bool IsPrepared(TransactionId txn) const;

  /// The keys `txn` has staged writes (or deletions) to, ascending; empty
  /// if it is not active. After RecoverFromWal these are the keys a
  /// re-staged transaction must hold exclusively until its outcome.
  std::vector<std::string> WriteKeys(TransactionId txn) const;

  /// Committed value of `key` (outside any transaction).
  std::optional<std::string> GetCommitted(const std::string& key) const;

  size_t num_committed_keys() const { return committed_.size(); }

  /// Simulates a crash: all volatile state (committed map, staged
  /// transactions) is lost; the WAL survives.
  void CrashVolatile();

  /// Rebuilds the committed state from the WAL. Prepared-but-undecided
  /// transactions are re-staged in prepared state and returned, in log
  /// order, so the distributed recovery protocol can resolve them.
  ///
  /// Replay starts from the WAL's checkpoint, so it costs the records
  /// written since the previous recovery plus those of the transactions
  /// still in doubt, not the whole log. It ends by writing a new checkpoint.
  /// The result equals a replay of the whole log as long as no two
  /// unresolved transactions stage writes to the same key (strict
  /// two-phase locking).
  Result<std::vector<TransactionId>> RecoverFromWal();

 private:
  struct StagedWrite {
    std::string value;
    bool is_delete = false;
  };
  struct ActiveTxn {
    std::map<std::string, StagedWrite> writes;
    bool prepared = false;
  };

  /// Applies one staged write set to the committed map.
  void ApplyWrites(const std::map<std::string, StagedWrite>& writes);

  WriteAheadLog* wal_;
  std::map<std::string, std::string> committed_;
  std::unordered_map<TransactionId, ActiveTxn> active_;
};

}  // namespace nbcp

#endif  // NBCP_DB_KV_STORE_H_
