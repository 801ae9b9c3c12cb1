#ifndef NBCP_DB_WAL_H_
#define NBCP_DB_WAL_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"

namespace nbcp {

/// Type of a write-ahead-log record.
enum class WalRecordType : uint8_t {
  kBegin = 0,   ///< Transaction started at this site.
  kWrite,       ///< Staged write (key, old value, new value).
  kPrepare,     ///< All writes staged and durable; site can vote yes.
  kCommit,      ///< Local commit decision.
  kAbort,       ///< Local abort decision.
};

std::string ToString(WalRecordType type);

/// One durable log record.
struct WalRecord {
  WalRecordType type = WalRecordType::kBegin;
  TransactionId txn = kNoTransaction;
  std::string key;
  std::string old_value;
  bool old_existed = false;  ///< False when the key did not exist before.
  std::string new_value;
  bool is_delete = false;    ///< True when the write removes the key.
};

/// A durable summary of a log prefix, written by recovery. Replaying
/// `carried` and then the records from `lsn` on, starting from `image`,
/// rebuilds the same store as replaying the whole log.
struct WalCheckpoint {
  /// Log sequence number: the log's length when the checkpoint was taken.
  /// Records [0, lsn) are summarized by `image` and `carried`.
  size_t lsn = 0;
  /// Committed key/value state as of `lsn`.
  std::map<std::string, std::string> image;
  /// Records of the transactions still unresolved at `lsn`, in log order.
  std::vector<WalRecord> carried;
};

/// Per-site write-ahead log.
///
/// The log models the site's stable storage: it survives simulated crashes
/// (the owning site clears its volatile structures but keeps the log).
/// Records are appended strictly in order. Recovery replays only the
/// records after the latest checkpoint, plus the records the checkpoint
/// carries for transactions that were still unresolved when it was taken.
class WriteAheadLog {
 public:
  WriteAheadLog() = default;

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  void Append(WalRecord record) { records_.push_back(std::move(record)); }

  const std::vector<WalRecord>& records() const { return records_; }
  size_t size() const { return records_.size(); }

  const WalCheckpoint& checkpoint() const { return checkpoint_; }

  /// Replaces the checkpoint. Its lsn must not exceed size().
  void SetCheckpoint(WalCheckpoint checkpoint) {
    checkpoint_ = std::move(checkpoint);
  }

  /// Discards the prefix [0, upto). The checkpoint's lsn moves with the
  /// records it points at, so truncating up to the checkpoint loses nothing
  /// recovery needs; records past it that are discarded are lost to
  /// recovery, as they are without a checkpoint.
  void Truncate(size_t upto);

 private:
  std::vector<WalRecord> records_;
  WalCheckpoint checkpoint_;
};

}  // namespace nbcp

#endif  // NBCP_DB_WAL_H_
