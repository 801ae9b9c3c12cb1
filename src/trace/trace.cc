#include "trace/trace.h"

#include <algorithm>
#include <sstream>

namespace nbcp {

std::string ToString(TraceEventType type) {
  switch (type) {
    case TraceEventType::kProtocolStart:
      return "start";
    case TraceEventType::kStateChange:
      return "state";
    case TraceEventType::kVoteCast:
      return "vote";
    case TraceEventType::kDecision:
      return "decision";
    case TraceEventType::kMessageSent:
      return "send";
    case TraceEventType::kMessageDelivered:
      return "recv";
    case TraceEventType::kMessageDropped:
      return "drop";
    case TraceEventType::kCrash:
      return "CRASH";
    case TraceEventType::kRecover:
      return "RECOVER";
    case TraceEventType::kTerminationStart:
      return "term-start";
    case TraceEventType::kTerminationDecide:
      return "term-decide";
    case TraceEventType::kBlocked:
      return "BLOCKED";
    case TraceEventType::kElectionWon:
      return "elected";
    case TraceEventType::kLinkCut:
      return "link-cut";
    case TraceEventType::kLinkRestored:
      return "link-restore";
    case TraceEventType::kGlobalState:
      return "global-state";
    case TraceEventType::kInvariantViolation:
      return "violation";
  }
  return "?";
}

bool TraceEventTypeFromString(const std::string& name, TraceEventType* out) {
  for (uint8_t raw = 0;
       raw <= static_cast<uint8_t>(TraceEventType::kInvariantViolation);
       ++raw) {
    TraceEventType type = static_cast<TraceEventType>(raw);
    if (ToString(type) == name) {
      *out = type;
      return true;
    }
  }
  return false;
}

namespace {

/// The recorder whose FlushBuffers runs on this thread, if any: what that
/// flush's sink records goes to the recorder's spill, not to a buffer.
thread_local const TraceRecorder* t_flushing = nullptr;

bool OpensBlock(TraceEventType type) {
  return type == TraceEventType::kMessageDelivered ||
         type == TraceEventType::kMessageDropped ||
         type == TraceEventType::kProtocolStart;
}

}  // namespace

void TraceRecorder::Record(SimTime at, SiteId site, TransactionId txn,
                           TraceEventType type, std::string detail,
                           uint64_t seq) {
  TraceEvent event{at, site, txn, type, std::move(detail), seq};
  if (clocks_ != nullptr && site != kNoSite) {
    event.stamp = clocks_->Current(site);
  }
  if (!buffers_.empty()) {
    if (t_flushing == this) {
      spill_.push_back(std::move(event));
      return;
    }
    SiteBuffer& buffer =
        *buffers_[site < buffers_.size() ? site : kNoSite];
    MutexLock lock(&buffer.mu);
    buffer.events.push_back(std::move(event));
    return;
  }
  if (store_) {
    MutexLock lock(&mu_);
    Store(event);
  }
  // Store first, then notify — with the lock released, so a sink that
  // records in response (observer chains) re-enters without deadlocking;
  // its events appear after their trigger, the order replay reconstructs.
  if (sink_) sink_(event);
}

void TraceRecorder::Store(TraceEvent event) {
  if (capacity_ != 0 && events_.size() >= capacity_) {
    events_.pop_front();
    ++dropped_;
  }
  events_.push_back(std::move(event));
}

void TraceRecorder::BufferPerSite(size_t num_sites) {
  buffers_.clear();
  for (size_t i = 0; i <= num_sites; ++i) {
    buffers_.push_back(std::make_unique<SiteBuffer>());
  }
  flushed_.assign(num_sites + 1, {});
}

void TraceRecorder::FlushBuffers() {
  for (size_t i = 0; i < buffers_.size(); ++i) {
    MutexLock lock(&buffers_[i]->mu);
    buffers_[i]->events.swap(flushed_[i]);
  }
  std::vector<TraceEvent> batch = MergeSiteBuffers(&flushed_);
  for (std::vector<TraceEvent>& events : flushed_) events.clear();

  if (sink_) {
    t_flushing = this;
    size_t fed = 0;
    while (fed < batch.size()) {
      for (const size_t end = batch.size(); fed < end; ++fed) {
        sink_(batch[fed]);
      }
      for (TraceEvent& e : spill_) batch.push_back(std::move(e));
      spill_.clear();
    }
    t_flushing = nullptr;
  }
  if (store_) {
    MutexLock lock(&mu_);
    for (TraceEvent& e : batch) Store(std::move(e));
  }
}

std::vector<TraceEvent> MergeSiteBuffers(
    std::vector<std::vector<TraceEvent>>* site_buffers) {
  std::vector<std::vector<TraceEvent>>& buffers = *site_buffers;
  std::vector<TraceEvent> out;
  if (buffers.empty()) return out;
  size_t total = 0;
  for (const std::vector<TraceEvent>& events : buffers) total += events.size();
  out.reserve(total);
  for (TraceEvent& e : buffers[0]) out.push_back(std::move(e));

  // The sends of this batch, by seq, and whether each is emitted yet.
  std::vector<uint64_t> sends;
  for (size_t site = 1; site < buffers.size(); ++site) {
    for (const TraceEvent& e : buffers[site]) {
      if (e.type == TraceEventType::kMessageSent && e.seq != 0) {
        sends.push_back(e.seq);
      }
    }
  }
  std::sort(sends.begin(), sends.end());
  std::vector<bool> emitted(sends.size(), false);
  auto send_index = [&sends](uint64_t seq) -> size_t {
    auto it = std::lower_bound(sends.begin(), sends.end(), seq);
    return it != sends.end() && *it == seq ? it - sends.begin()
                                           : sends.size();
  };

  std::vector<size_t> head(buffers.size(), 0);
  while (true) {
    size_t best = 0;
    for (size_t site = 1; site < buffers.size(); ++site) {
      if (head[site] == buffers[site].size()) continue;
      const TraceEvent& first = buffers[site][head[site]];
      if (first.type == TraceEventType::kMessageDelivered ||
          first.type == TraceEventType::kMessageDropped) {
        const size_t send = send_index(first.seq);
        if (send != sends.size() && !emitted[send]) continue;
      }
      if (best == 0 || first.stamp.lamport <
                           buffers[best][head[best]].stamp.lamport) {
        best = site;
      }
    }
    if (best == 0) break;
    std::vector<TraceEvent>& events = buffers[best];
    size_t i = head[best];
    do {
      if (events[i].type == TraceEventType::kMessageSent) {
        const size_t send = send_index(events[i].seq);
        if (send != sends.size()) emitted[send] = true;
      }
      out.push_back(std::move(events[i]));
      ++i;
    } while (i < events.size() && !OpensBlock(events[i].type));
    head[best] = i;
  }
  // Every head left waits on a send that is never emitted: impossible in a
  // recorded run (a send is recorded before its message can be popped), so
  // this only keeps malformed input from losing events.
  for (size_t site = 1; site < buffers.size(); ++site) {
    for (size_t i = head[site]; i < buffers[site].size(); ++i) {
      out.push_back(std::move(buffers[site][i]));
    }
  }
  return out;
}

void TraceRecorder::set_capacity(size_t capacity) {
  MutexLock lock(&mu_);
  capacity_ = capacity;
  while (capacity_ != 0 && events_.size() > capacity_) {
    events_.pop_front();
    ++dropped_;
  }
}

std::vector<TraceEvent> TraceRecorder::ForTransaction(
    TransactionId txn) const {
  MutexLock lock(&mu_);
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events_) {
    if (e.txn == txn) out.push_back(e);
  }
  return out;
}

std::string TraceRecorder::Render(TransactionId txn) const {
  MutexLock lock(&mu_);
  std::ostringstream out;
  for (const TraceEvent& e : events_) {
    if (txn != kNoTransaction && e.txn != txn) continue;
    out << "t=" << e.at << "us";
    for (size_t pad = std::to_string(e.at).size(); pad < 9; ++pad) out << ' ';
    if (e.site != kNoSite) {
      out << "site " << e.site;
    } else {
      out << "system";
    }
    out << "  [" << ToString(e.type) << "]";
    if (!e.detail.empty()) out << "  " << e.detail;
    out << "\n";
  }
  return out.str();
}

std::string TraceRecorder::RenderLanes(TransactionId txn, size_t n) const {
  MutexLock lock(&mu_);
  std::ostringstream out;
  const int kWidth = 16;
  out << "time      ";
  for (SiteId s = 1; s <= n; ++s) {
    std::string head = "site " + std::to_string(s);
    out << head;
    for (size_t pad = head.size(); pad < kWidth; ++pad) out << ' ';
  }
  out << "\n";
  for (const TraceEvent& e : events_) {
    if (e.txn != txn && e.txn != kNoTransaction) continue;
    if (e.site == kNoSite || e.site > n) continue;
    // Skip message-level noise in the lane view.
    if (e.type == TraceEventType::kMessageSent ||
        e.type == TraceEventType::kMessageDelivered ||
        e.type == TraceEventType::kMessageDropped) {
      continue;
    }
    std::string ts = std::to_string(e.at);
    out << ts;
    for (size_t pad = ts.size(); pad < 10; ++pad) out << ' ';
    for (SiteId s = 1; s <= n; ++s) {
      std::string cell;
      if (s == e.site) {
        cell = ToString(e.type);
        if (!e.detail.empty()) cell += ":" + e.detail;
        if (cell.size() > kWidth - 1) cell.resize(kWidth - 1);
      }
      out << cell;
      for (size_t pad = cell.size(); pad < kWidth; ++pad) out << ' ';
    }
    out << "\n";
  }
  return out.str();
}

size_t TraceRecorder::Count(TraceEventType type, TransactionId txn) const {
  MutexLock lock(&mu_);
  size_t count = 0;
  for (const TraceEvent& e : events_) {
    if (e.type != type) continue;
    if (txn != kNoTransaction && e.txn != txn) continue;
    ++count;
  }
  return count;
}

}  // namespace nbcp
