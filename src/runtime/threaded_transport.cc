#include "runtime/threaded_transport.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics_registry.h"

namespace nbcp {

ThreadedTransport::ThreadedTransport(Clock* clock, Options options)
    : clock_(clock), inbox_capacity_(options.inbox_capacity) {}

ThreadedTransport::~ThreadedTransport() { Shutdown(); }

Status ThreadedTransport::RegisterSite(SiteId site, Handler handler) {
  if (site == kNoSite) {
    return Status::InvalidArgument("site id 0 is reserved");
  }
  if (!handler) {
    return Status::InvalidArgument("null handler");
  }
  SiteState* state = nullptr;
  bool fresh = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return Status::Unavailable("transport is shut down");
    }
    auto [it, inserted] = sites_.try_emplace(site, nullptr);
    if (inserted) {
      it->second = std::make_unique<SiteState>(site);
      fresh = true;
    }
    state = it->second.get();
    down_sites_.erase(site);
  }
  {
    std::lock_guard<std::mutex> lock(state->m);
    state->handler = std::move(handler);
  }
  if (fresh) {
    state->worker = std::thread([this, state] { WorkerLoop(state); });
  }
  return Status::OK();
}

ThreadedTransport::SiteState* ThreadedTransport::FindSite(SiteId site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? nullptr : it->second.get();
}

Status ThreadedTransport::Send(Message msg) {
  SiteState* receiver = nullptr;
  uint64_t inflight_msgs = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto sender = sites_.find(msg.from);
    if (sender == sites_.end()) {
      return Status::InvalidArgument("unregistered sender site");
    }
    if (down_sites_.count(msg.from) != 0) {
      return Status::Unavailable("sender site is down");
    }
    msg.sent_at = clock_->now();
    msg.seq = ++next_seq_;
    ++stats_.messages_sent;
    stats_.bytes_sent += msg.payload.size();
    inflight_msgs = stats_.messages_sent - stats_.messages_delivered -
                    stats_.messages_dropped;
    auto rcv = sites_.find(msg.to);
    if (rcv != sites_.end()) receiver = rcv->second.get();
  }
  if (clocks_ != nullptr) msg.stamp = clocks_->OnSend(msg.from);
  if (metrics_ != nullptr) {
    metrics_->counter("net/sent").Inc();
    metrics_->series("net/inflight").Record(clock_->now(), inflight_msgs);
  }
  if (observer_) observer_(msg, 's');

  if (receiver == nullptr) {
    // Unknown receiver: nothing will ever pop this, so resolve the drop
    // at send time (the simulated Network resolves it at delivery time;
    // the observable outcome is the same 'x').
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.messages_dropped;
    }
    if (metrics_ != nullptr) metrics_->counter("net/dropped").Inc();
    if (observer_) observer_(msg, 'x');
    return Status::OK();
  }

  if (inflight_ != nullptr) inflight_->Add(1);
  Item item;
  item.msg = std::move(msg);
  if (!Enqueue(receiver, std::move(item), /*bounded=*/true)) {
    // Shutdown raced the send; the run is over, account it as dropped.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.messages_dropped;
  }
  return Status::OK();
}

bool ThreadedTransport::Enqueue(SiteState* state, Item item, bool bounded) {
  size_t depth = 0;
  {
    std::unique_lock<std::mutex> lock(state->m);
    if (bounded && std::this_thread::get_id() != state->worker_id) {
      // Backpressure: block until the receiver drains (self-sends bypass
      // the bound — blocking on your own full inbox is a self-deadlock).
      state->not_full.wait(lock, [&] {
        return state->inbox.size() < inbox_capacity_ || state->stop;
      });
    }
    if (state->stop) {
      lock.unlock();
      if (inflight_ != nullptr) inflight_->Done();
      return false;
    }
    state->inbox.push_back(std::move(item));
    depth = state->inbox.size();
    state->not_empty.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    max_inbox_depth_ = std::max(max_inbox_depth_, depth);
  }
  return true;
}

void ThreadedTransport::WorkerLoop(SiteState* state) {
  {
    std::lock_guard<std::mutex> lock(state->m);
    state->worker_id = std::this_thread::get_id();
  }
  while (true) {
    std::deque<Item> local;
    {
      std::unique_lock<std::mutex> lock(state->m);
      state->not_empty.wait(
          lock, [&] { return state->stop || !state->inbox.empty(); });
      if (state->stop) break;  // Leftovers are balanced by Shutdown.
      // Drain eagerly: the whole inbox frees in one go, so a sender
      // blocked on backpressure resumes while this worker runs the batch.
      local.swap(state->inbox);
      state->not_full.notify_all();
    }
    for (Item& item : local) {
      if (item.is_task) {
        item.task();
      } else {
        Deliver(state, std::move(item.msg));
      }
      if (inflight_ != nullptr) inflight_->Done();
    }
  }
}

void ThreadedTransport::Deliver(SiteState* state, Message msg) {
  // Resolve the message's fate when it is popped, mirroring the simulated
  // Network's delivery-time check: a crash or link cut that happened while
  // the message sat in the inbox still drops it.
  bool drop = false;
  bool receiver_down = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cut_links_.count({msg.from, msg.to}) != 0) {
      ++stats_.messages_dropped;
      drop = true;
    } else if (down_sites_.count(msg.to) != 0) {
      ++stats_.messages_dropped;
      drop = true;
      receiver_down = true;
    } else {
      ++stats_.messages_delivered;
    }
  }
  if (drop) {
    if (receiver_down) {
      NBCP_LOG_AT(kDebug, msg.to)
          << "dropped " << msg.ToString() << " (receiver down)";
    }
    if (metrics_ != nullptr) metrics_->counter("net/dropped").Inc();
    if (observer_) observer_(msg, 'x');
    return;
  }
  Handler handler;
  {
    std::lock_guard<std::mutex> lock(state->m);
    handler = state->handler;
  }
  // Only the schedule log reads the post-delivery stamp.
  ClockStamp stamp;
  if (clocks_ != nullptr && schedule_log_ != nullptr) {
    stamp = clocks_->OnDeliver(msg.to, msg.stamp);
  } else if (clocks_ != nullptr) {
    clocks_->MergeDelivery(msg.to, msg.stamp);
  }
  if (metrics_ != nullptr) {
    metrics_->counter("net/delivered").Inc();
    // LatencyHistogram is thread-compatible, not thread-safe; workers
    // deliver concurrently, so serialize this one recording site.
    std::lock_guard<std::mutex> lock(metrics_mu_);
    metrics_->histogram("net/delay_us").Record(clock_->now() - msg.sent_at);
  }
  if (observer_) observer_(msg, 'd');
  if (schedule_log_ != nullptr) {
    ScheduleRecord record;
    record.kind = 'd';
    record.site = msg.to;
    record.from = msg.from;
    record.msg_type = msg.type;
    record.stamp = stamp;
    schedule_log_->Append(std::move(record));
  }
  handler(msg);
}

void ThreadedTransport::Post(SiteId site, std::function<void()> fn) {
  SiteState* state = FindSite(site);
  if (state == nullptr) {
    fn();  // No worker to defer to; run in the caller's context.
    return;
  }
  if (inflight_ != nullptr) inflight_->Add(1);
  Item item;
  item.is_task = true;
  item.task = std::move(fn);
  Enqueue(state, std::move(item), /*bounded=*/false);
}

void ThreadedTransport::PostSync(SiteId site, std::function<void()> fn) {
  SiteState* state = FindSite(site);
  if (state == nullptr) {
    fn();
    return;
  }
  std::thread::id worker_id;
  {
    std::lock_guard<std::mutex> lock(state->m);
    worker_id = state->worker_id;
  }
  if (worker_id == std::this_thread::get_id()) {
    fn();  // Already on the site's worker; inline keeps us deadlock-free.
    return;
  }
  std::mutex done_m;
  std::condition_variable done_cv;
  bool done = false;
  if (inflight_ != nullptr) inflight_->Add(1);
  Item item;
  item.is_task = true;
  item.task = [&fn, &done_m, &done_cv, &done] {
    fn();
    // Notify while holding the lock: these are the caller's stack
    // variables, and an unlocked notify could still be touching the
    // condition variable after the woken caller has destroyed it.
    std::lock_guard<std::mutex> lock(done_m);
    done = true;
    done_cv.notify_one();
  };
  if (!Enqueue(state, std::move(item), /*bounded=*/false)) {
    fn();  // Worker already stopped; the caller's context is quiescent.
    return;
  }
  std::unique_lock<std::mutex> lock(done_m);
  done_cv.wait(lock, [&done] { return done; });
}

void ThreadedTransport::SetSiteDown(SiteId site) {
  std::lock_guard<std::mutex> lock(mu_);
  if (sites_.count(site) != 0) down_sites_.insert(site);
}

void ThreadedTransport::SetSiteUp(SiteId site) {
  std::lock_guard<std::mutex> lock(mu_);
  down_sites_.erase(site);
}

bool ThreadedTransport::IsSiteUp(SiteId site) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sites_.count(site) != 0 && down_sites_.count(site) == 0;
}

void ThreadedTransport::CutLink(SiteId a, SiteId b) {
  bool cut = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cut = cut_links_.insert({a, b}).second;
  }
  if (cut && link_observer_) link_observer_(a, b, /*cut=*/true);
}

void ThreadedTransport::RestoreLink(SiteId a, SiteId b) {
  bool restored = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    restored = cut_links_.erase({a, b}) != 0;
  }
  if (restored && link_observer_) link_observer_(a, b, /*cut=*/false);
}

std::vector<SiteId> ThreadedTransport::Sites() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SiteId> out;
  out.reserve(sites_.size());
  for (const auto& [id, state] : sites_) out.push_back(id);
  return out;  // std::map iterates ascending.
}

std::vector<SiteId> ThreadedTransport::OperationalSites() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SiteId> out;
  for (const auto& [id, state] : sites_) {
    if (down_sites_.count(id) == 0) out.push_back(id);
  }
  return out;
}

NetworkStats ThreadedTransport::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ThreadedTransport::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = NetworkStats{};
}

size_t ThreadedTransport::max_inbox_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_inbox_depth_;
}

void ThreadedTransport::Shutdown() {
  std::vector<SiteState*> states;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    states.reserve(sites_.size());
    for (auto& [id, state] : sites_) states.push_back(state.get());
  }
  for (SiteState* state : states) {
    {
      std::lock_guard<std::mutex> lock(state->m);
      state->stop = true;
    }
    state->not_empty.notify_all();
    state->not_full.notify_all();
  }
  for (SiteState* state : states) {
    if (state->worker.joinable()) state->worker.join();
  }
  size_t leftovers = 0;
  for (SiteState* state : states) {
    std::lock_guard<std::mutex> lock(state->m);
    leftovers += state->inbox.size();
    state->inbox.clear();
  }
  if (inflight_ != nullptr) {
    for (size_t i = 0; i < leftovers; ++i) inflight_->Done();
  }
}

}  // namespace nbcp
