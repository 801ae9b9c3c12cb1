#include "recovery/dt_log.h"

#include <algorithm>

namespace nbcp {

std::string ToString(DtLogEvent event) {
  switch (event) {
    case DtLogEvent::kStart:
      return "START";
    case DtLogEvent::kVoteYes:
      return "VOTE-YES";
    case DtLogEvent::kVoteNo:
      return "VOTE-NO";
    case DtLogEvent::kPrepared:
      return "PREPARED";
    case DtLogEvent::kCommit:
      return "COMMIT";
    case DtLogEvent::kAbort:
      return "ABORT";
  }
  return "UNKNOWN";
}

void DtLog::Append(TransactionId txn, DtLogEvent event) {
  records_.push_back(DtLogRecord{txn, event});
  auto [it, inserted] = summary_.try_emplace(txn);
  if (inserted) {
    if (unresolved_.size() >= compact_at_) {
      std::erase_if(unresolved_, [this](TransactionId t) {
        return summary_.at(t).outcome.has_value();
      });
      compact_at_ = std::max<size_t>(64, 2 * unresolved_.size());
    }
    unresolved_.push_back(txn);
  }
  switch (event) {
    case DtLogEvent::kStart:
      break;
    case DtLogEvent::kVoteYes:
      it->second.voted_yes = true;
      break;
    case DtLogEvent::kPrepared:
      it->second.voted_yes = true;
      it->second.prepared = true;
      break;
    case DtLogEvent::kVoteNo:
      it->second.voted_no = true;
      break;
    case DtLogEvent::kCommit:
      it->second.outcome = Outcome::kCommitted;
      break;
    case DtLogEvent::kAbort:
      it->second.outcome = Outcome::kAborted;
      break;
  }
}

std::optional<Outcome> DtLog::OutcomeOf(TransactionId txn) const {
  auto it = summary_.find(txn);
  if (it == summary_.end()) return std::nullopt;
  return it->second.outcome;
}

bool DtLog::VotedYes(TransactionId txn) const {
  auto it = summary_.find(txn);
  return it != summary_.end() && it->second.voted_yes;
}

bool DtLog::WasPrepared(TransactionId txn) const {
  auto it = summary_.find(txn);
  return it != summary_.end() && it->second.prepared;
}

bool DtLog::Knows(TransactionId txn) const {
  return summary_.count(txn) != 0;
}

template <typename Pred>
std::vector<TransactionId> DtLog::Unresolved(Pred keep) const {
  std::vector<TransactionId> out;
  for (TransactionId txn : unresolved_) {
    const TxnSummary& s = summary_.at(txn);
    if (!s.outcome.has_value() && keep(s)) out.push_back(txn);
  }
  return out;
}

std::vector<TransactionId> DtLog::InDoubt() const {
  return Unresolved([](const TxnSummary& s) { return s.voted_yes; });
}

std::vector<TransactionId> DtLog::UnvotedUndecided() const {
  return Unresolved(
      [](const TxnSummary& s) { return !s.voted_yes && !s.voted_no; });
}

}  // namespace nbcp
