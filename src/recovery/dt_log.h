#ifndef NBCP_RECOVERY_DT_LOG_H_
#define NBCP_RECOVERY_DT_LOG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace nbcp {

/// Events recorded in the distributed-transaction log.
enum class DtLogEvent : uint8_t {
  kStart = 0,   ///< Site learned of the transaction.
  kVoteYes,     ///< Site voted yes (written *before* the vote is sent).
  kVoteNo,      ///< Site voted no.
  kPrepared,    ///< Site entered the buffer ("prepare to commit") state.
  kCommit,      ///< Final commit.
  kAbort,       ///< Final abort.
};

std::string ToString(DtLogEvent event);

/// One DT-log record.
struct DtLogRecord {
  TransactionId txn = kNoTransaction;
  DtLogEvent event = DtLogEvent::kStart;
};

/// Per-site durable log of commit-protocol progress, consulted by the
/// recovery protocol. Survives simulated crashes (it models stable
/// storage); all volatile protocol state is reconstructed from it.
class DtLog {
 public:
  DtLog() = default;
  DtLog(const DtLog&) = delete;
  DtLog& operator=(const DtLog&) = delete;

  void Append(TransactionId txn, DtLogEvent event);

  const std::vector<DtLogRecord>& records() const { return records_; }

  /// Final outcome of `txn` if logged.
  std::optional<Outcome> OutcomeOf(TransactionId txn) const;

  /// True if a yes vote (or prepared marker) was logged for `txn`.
  bool VotedYes(TransactionId txn) const;

  /// True if a kPrepared record (buffer-state entry) was logged for `txn`.
  bool WasPrepared(TransactionId txn) const;

  /// True if any record mentions `txn`.
  bool Knows(TransactionId txn) const;

  /// Transactions with a yes vote but no final outcome: the site cannot
  /// decide them unilaterally on recovery. First-seen order.
  std::vector<TransactionId> InDoubt() const;

  /// Transactions known but never voted on: aborted unilaterally on
  /// recovery ("failure before the commit point"). First-seen order.
  std::vector<TransactionId> UnvotedUndecided() const;

 private:
  struct TxnSummary {
    bool voted_yes = false;
    bool voted_no = false;
    bool prepared = false;
    std::optional<Outcome> outcome;
  };

  /// Transactions of `unresolved_` whose summary satisfies `keep`.
  template <typename Pred>
  std::vector<TransactionId> Unresolved(Pred keep) const;

  std::vector<DtLogRecord> records_;
  std::unordered_map<TransactionId, TxnSummary> summary_;
  /// Transactions that may still lack an outcome, in first-seen order.
  /// Decided ones are dropped whenever the list doubles, so InDoubt() and
  /// UnvotedUndecided() cost the unresolved transactions plus those seen
  /// since the last drop, not the log's history.
  std::vector<TransactionId> unresolved_;
  size_t compact_at_ = 0;
};

}  // namespace nbcp

#endif  // NBCP_RECOVERY_DT_LOG_H_
