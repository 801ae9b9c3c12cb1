#include "db/kv_store.h"

#include <optional>
#include <utility>

namespace nbcp {

Status KvStore::Begin(TransactionId txn) {
  auto [it, inserted] = active_.try_emplace(txn);
  if (!inserted) return Status::AlreadyExists("transaction already active");
  wal_->Append(WalRecord{WalRecordType::kBegin, txn, "", "", false, "", false});
  return Status::OK();
}

Result<std::string> KvStore::Get(TransactionId txn,
                                 const std::string& key) const {
  auto it = active_.find(txn);
  if (it == active_.end()) return Status::FailedPrecondition("txn not active");
  auto w = it->second.writes.find(key);
  if (w != it->second.writes.end()) {
    if (w->second.is_delete) return Status::NotFound("key deleted by txn");
    return w->second.value;
  }
  auto c = committed_.find(key);
  if (c == committed_.end()) return Status::NotFound("no such key");
  return c->second;
}

Status KvStore::Put(TransactionId txn, const std::string& key,
                    std::string value) {
  auto it = active_.find(txn);
  if (it == active_.end()) return Status::FailedPrecondition("txn not active");
  if (it->second.prepared) {
    return Status::FailedPrecondition("txn already prepared");
  }
  it->second.writes[key] = StagedWrite{std::move(value), false};
  return Status::OK();
}

Status KvStore::Delete(TransactionId txn, const std::string& key) {
  auto it = active_.find(txn);
  if (it == active_.end()) return Status::FailedPrecondition("txn not active");
  if (it->second.prepared) {
    return Status::FailedPrecondition("txn already prepared");
  }
  it->second.writes[key] = StagedWrite{"", true};
  return Status::OK();
}

Status KvStore::Prepare(TransactionId txn) {
  auto it = active_.find(txn);
  if (it == active_.end()) return Status::FailedPrecondition("txn not active");
  if (it->second.prepared) return Status::OK();  // Idempotent.
  for (const auto& [key, write] : it->second.writes) {
    WalRecord record;
    record.type = WalRecordType::kWrite;
    record.txn = txn;
    record.key = key;
    auto old = committed_.find(key);
    record.old_existed = old != committed_.end();
    if (record.old_existed) record.old_value = old->second;
    record.new_value = write.value;
    record.is_delete = write.is_delete;
    wal_->Append(std::move(record));
  }
  wal_->Append(
      WalRecord{WalRecordType::kPrepare, txn, "", "", false, "", false});
  it->second.prepared = true;
  return Status::OK();
}

void KvStore::ApplyWrites(const std::map<std::string, StagedWrite>& writes) {
  for (const auto& [key, write] : writes) {
    if (write.is_delete) {
      committed_.erase(key);
    } else {
      committed_[key] = write.value;
    }
  }
}

Status KvStore::Commit(TransactionId txn) {
  auto it = active_.find(txn);
  if (it == active_.end()) return Status::FailedPrecondition("txn not active");
  if (!it->second.prepared) {
    return Status::FailedPrecondition(
        "commit requires a prepared transaction");
  }
  wal_->Append(
      WalRecord{WalRecordType::kCommit, txn, "", "", false, "", false});
  ApplyWrites(it->second.writes);
  active_.erase(it);
  return Status::OK();
}

Status KvStore::Abort(TransactionId txn) {
  auto it = active_.find(txn);
  if (it == active_.end()) return Status::FailedPrecondition("txn not active");
  wal_->Append(
      WalRecord{WalRecordType::kAbort, txn, "", "", false, "", false});
  active_.erase(it);
  return Status::OK();
}

bool KvStore::IsActive(TransactionId txn) const {
  return active_.count(txn) != 0;
}

bool KvStore::IsPrepared(TransactionId txn) const {
  auto it = active_.find(txn);
  return it != active_.end() && it->second.prepared;
}

std::vector<std::string> KvStore::WriteKeys(TransactionId txn) const {
  std::vector<std::string> keys;
  auto it = active_.find(txn);
  if (it == active_.end()) return keys;
  keys.reserve(it->second.writes.size());
  for (const auto& [key, write] : it->second.writes) keys.push_back(key);
  return keys;
}

std::optional<std::string> KvStore::GetCommitted(
    const std::string& key) const {
  auto it = committed_.find(key);
  if (it == committed_.end()) return std::nullopt;
  return it->second;
}

void KvStore::CrashVolatile() {
  committed_.clear();
  active_.clear();
}

Result<std::vector<TransactionId>> KvStore::RecoverFromWal() {
  // Replay starts at the latest checkpoint: the records it carries for
  // then-unresolved transactions, followed by the log's tail. Both are in
  // log order, so their concatenation is the whole log minus the records of
  // transactions the checkpoint's image already settles.
  const WalCheckpoint& checkpoint = wal_->checkpoint();
  const std::vector<WalRecord>& log = wal_->records();
  std::vector<const WalRecord*> replay;
  replay.reserve(checkpoint.carried.size() + log.size() - checkpoint.lsn);
  for (const WalRecord& r : checkpoint.carried) replay.push_back(&r);
  for (size_t i = checkpoint.lsn; i < log.size(); ++i) {
    replay.push_back(&log[i]);
  }

  // Pass 1: final outcome of each replayed transaction.
  std::unordered_map<TransactionId, WalRecordType> outcomes;
  for (const WalRecord* r : replay) {
    if (r->type != WalRecordType::kCommit && r->type != WalRecordType::kAbort) {
      continue;
    }
    auto [it, inserted] = outcomes.try_emplace(r->txn, r->type);
    if (!inserted && it->second != r->type) {
      return Status::Corruption("txn both committed and aborted in WAL");
    }
  }
  auto outcome_of = [&outcomes](TransactionId txn) {
    auto it = outcomes.find(txn);
    return it == outcomes.end() ? std::optional<WalRecordType>()
                                : std::optional(it->second);
  };

  // Pass 2: redo committed writes in log order; re-stage prepared-undecided
  // ("in-doubt") transactions for the distributed recovery protocol.
  committed_ = checkpoint.image;
  active_.clear();
  std::vector<TransactionId> in_doubt;
  for (const WalRecord* r : replay) {
    std::optional<WalRecordType> outcome = outcome_of(r->txn);
    switch (r->type) {
      case WalRecordType::kWrite: {
        if (outcome == WalRecordType::kCommit) {
          if (r->is_delete) {
            committed_.erase(r->key);
          } else {
            committed_[r->key] = r->new_value;
          }
        } else if (!outcome.has_value()) {
          active_[r->txn].writes[r->key] =
              StagedWrite{r->new_value, r->is_delete};
        }
        break;
      }
      case WalRecordType::kPrepare: {
        if (!outcome.has_value()) {
          active_[r->txn].prepared = true;
          in_doubt.push_back(r->txn);
        }
        break;
      }
      case WalRecordType::kBegin: {
        if (!outcome.has_value()) active_.try_emplace(r->txn);
        break;
      }
      case WalRecordType::kCommit:
      case WalRecordType::kAbort:
        break;
    }
  }

  // The image was just rebuilt: checkpoint it, carrying the records of the
  // in-doubt transactions, so the next recovery starts here. The carried
  // records are copied before the aborts below append to the log.
  WalCheckpoint next;
  for (const WalRecord* r : replay) {
    auto it = active_.find(r->txn);
    if (it != active_.end() && it->second.prepared) next.carried.push_back(*r);
  }

  // Transactions begun but never prepared are aborted immediately on
  // recovery ("when a failure occurs before the commit point is reached,
  // the site will abort the transaction immediately upon recovering").
  std::vector<TransactionId> to_abort;
  for (const auto& [txn, state] : active_) {
    if (!state.prepared) to_abort.push_back(txn);
  }
  for (TransactionId txn : to_abort) {
    wal_->Append(
        WalRecord{WalRecordType::kAbort, txn, "", "", false, "", false});
    active_.erase(txn);
  }

  next.lsn = wal_->size();
  next.image = committed_;
  wal_->SetCheckpoint(std::move(next));
  return in_doubt;
}

}  // namespace nbcp
