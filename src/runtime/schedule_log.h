#ifndef NBCP_RUNTIME_SCHEDULE_LOG_H_
#define NBCP_RUNTIME_SCHEDULE_LOG_H_

#include <algorithm>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/causal_clock.h"
#include "common/types.h"

namespace nbcp {

/// One scheduling choice observed during a threaded run, in the vocabulary
/// nbcp-explore speaks: a protocol start at a site, or a delivery of a
/// message type at a site from a sender. `stamp` is the receiver's
/// post-tick causal stamp, so the log carries its own happens-before
/// evidence.
struct ScheduleRecord {
  char kind = 'd';  ///< 's' = protocol start, 'd' = delivery.
  SiteId site = kNoSite;
  SiteId from = kNoSite;  ///< Sender (deliveries only).
  std::string msg_type;   ///< Message type (deliveries only).
  size_t dup = 0;         ///< Occurrence index among identical channels.
  ClockStamp stamp;
};

/// Append-only, mutex-guarded log of the scheduling choices a threaded run
/// actually made. Per-site workers append deliveries as they pop them, in
/// parallel, and the start of a protocol is appended from inside the task
/// that starts it; so the append order need not be causal.
class ScheduleLog {
 public:
  void Append(ScheduleRecord record) {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(std::move(record));
  }

  /// The records stably ordered by (Lamport value, site): a causal
  /// linearization of the run. A delivery's post-merge stamp exceeds its
  /// send's, and the send's exceeds the stamp of the start or delivery
  /// that caused it, so every cause sorts before its effect — and
  /// replaying the result through nbcp-explore reproduces the execution
  /// on the virtual-time backend.
  std::vector<ScheduleRecord> Snapshot() const {
    std::vector<ScheduleRecord> records;
    {
      std::lock_guard<std::mutex> lock(mu_);
      records = records_;
    }
    std::stable_sort(records.begin(), records.end(),
                     [](const ScheduleRecord& a, const ScheduleRecord& b) {
                       if (a.stamp.lamport != b.stamp.lamport) {
                         return a.stamp.lamport < b.stamp.lamport;
                       }
                       return a.site < b.site;
                     });
    return records;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_.size();
  }

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    records_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::vector<ScheduleRecord> records_;
};

}  // namespace nbcp

#endif  // NBCP_RUNTIME_SCHEDULE_LOG_H_
