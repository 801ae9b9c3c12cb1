#include "db/wal.h"

#include <algorithm>

namespace nbcp {

std::string ToString(WalRecordType type) {
  switch (type) {
    case WalRecordType::kBegin:
      return "BEGIN";
    case WalRecordType::kWrite:
      return "WRITE";
    case WalRecordType::kPrepare:
      return "PREPARE";
    case WalRecordType::kCommit:
      return "COMMIT";
    case WalRecordType::kAbort:
      return "ABORT";
  }
  return "UNKNOWN";
}

void WriteAheadLog::Truncate(size_t upto) {
  checkpoint_.lsn -= std::min(checkpoint_.lsn, upto);
  if (upto >= records_.size()) {
    records_.clear();
    return;
  }
  records_.erase(records_.begin(), records_.begin() + upto);
}

}  // namespace nbcp
