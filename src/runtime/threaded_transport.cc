#include "runtime/threaded_transport.h"

#include <algorithm>
#include <memory>

namespace nbcp {

ThreadedTransport::ThreadedTransport(Clock* clock, Options options)
    : SiteTransport(clock), inbox_capacity_(options.inbox_capacity) {}

ThreadedTransport::~ThreadedTransport() { Shutdown(); }

Status ThreadedTransport::RegisterSite(SiteId site, Handler handler) {
  std::lock_guard<std::mutex> lock(register_mu_);
  if (shutdown_) {
    return Status::Unavailable("transport is shut down");
  }
  auto fresh = std::make_unique<Inbox>();
  Inbox* made = fresh.get();
  Result<Endpoint*> inbox =
      AddSite(site, std::move(handler), std::move(fresh));
  if (!inbox.ok()) return inbox.status();
  if (*inbox == made) {
    made->worker = std::thread([this, made] { WorkerLoop(made); });
  }
  return Status::OK();
}

Status ThreadedTransport::Send(Message msg) {
  Endpoint* receiver = nullptr;
  Status accepted = Accept(msg, &receiver);
  if (!accepted.ok()) return accepted;
  if (receiver == nullptr) {
    Drop(msg);  // Unknown receiver: no inbox will ever pop this.
    return Status::OK();
  }
  if (inflight_ != nullptr) inflight_->Add(1);
  Item item;
  item.msg = std::move(msg);
  if (!Enqueue(static_cast<Inbox*>(receiver), std::move(item),
               /*bounded=*/true)) {
    // Shutdown raced the send; the run is over, account it as dropped.
    Drop(item.msg);
  }
  return Status::OK();
}

bool ThreadedTransport::Enqueue(Inbox* inbox, Item&& item, bool bounded) {
  std::unique_lock<std::mutex> lock(inbox->m);
  if (bounded && std::this_thread::get_id() != inbox->worker_id) {
    // Backpressure: block until the receiver drains (self-sends bypass
    // the bound — blocking on your own full inbox is a self-deadlock).
    inbox->not_full.wait(lock, [&] {
      return inbox->items.size() < inbox_capacity_ || inbox->stop;
    });
  }
  if (inbox->stop) {
    lock.unlock();
    if (inflight_ != nullptr) inflight_->Done();
    return false;
  }
  inbox->items.push_back(std::move(item));
  inbox->max_depth = std::max(inbox->max_depth, inbox->items.size());
  inbox->not_empty.notify_one();
  return true;
}

void ThreadedTransport::WorkerLoop(Inbox* inbox) {
  {
    std::lock_guard<std::mutex> lock(inbox->m);
    inbox->worker_id = std::this_thread::get_id();
  }
  while (true) {
    std::deque<Item> local;
    {
      std::unique_lock<std::mutex> lock(inbox->m);
      inbox->not_empty.wait(
          lock, [&] { return inbox->stop || !inbox->items.empty(); });
      if (inbox->stop) break;  // Leftovers are balanced by Shutdown.
      // Drain eagerly: the whole inbox frees in one go, so a sender
      // blocked on backpressure resumes while this worker runs the batch.
      local.swap(inbox->items);
      inbox->not_full.notify_all();
    }
    for (Item& item : local) {
      if (item.is_task) {
        item.task();
      } else if (schedule_log_ == nullptr) {
        Deliver(item.msg);
      } else {
        // Only the schedule log reads the post-delivery stamp.
        ScheduleRecord record;
        if (Deliver(item.msg, &record.stamp)) {
          record.kind = 'd';
          record.site = item.msg.to;
          record.from = item.msg.from;
          record.msg_type = item.msg.type;
          schedule_log_->Append(std::move(record));
        }
      }
      if (inflight_ != nullptr) inflight_->Done();
    }
  }
}

void ThreadedTransport::Post(SiteId site, std::function<void()> fn) {
  Inbox* inbox = FindInbox(site);
  if (inbox == nullptr) {
    fn();  // No worker to defer to; run in the caller's context.
    return;
  }
  if (inflight_ != nullptr) inflight_->Add(1);
  Item item;
  item.is_task = true;
  item.task = std::move(fn);
  Enqueue(inbox, std::move(item), /*bounded=*/false);
}

void ThreadedTransport::PostSync(SiteId site, std::function<void()> fn) {
  Inbox* inbox = FindInbox(site);
  if (inbox == nullptr) {
    fn();
    return;
  }
  std::thread::id worker_id;
  {
    std::lock_guard<std::mutex> lock(inbox->m);
    worker_id = inbox->worker_id;
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
  if (!Enqueue(inbox, std::move(item), /*bounded=*/false)) {
    fn();  // Worker already stopped; the caller's context is quiescent.
    return;
  }
  std::unique_lock<std::mutex> lock(done_m);
  done_cv.wait(lock, [&done] { return done; });
}

size_t ThreadedTransport::max_inbox_depth() const {
  size_t depth = 0;
  for (Endpoint* endpoint : Endpoints()) {
    auto* inbox = static_cast<Inbox*>(endpoint);
    std::lock_guard<std::mutex> lock(inbox->m);
    depth = std::max(depth, inbox->max_depth);
  }
  return depth;
}

void ThreadedTransport::Shutdown() {
  std::vector<Inbox*> inboxes;
  {
    std::lock_guard<std::mutex> lock(register_mu_);
    if (shutdown_) return;
    shutdown_ = true;
    for (Endpoint* endpoint : Endpoints()) {
      inboxes.push_back(static_cast<Inbox*>(endpoint));
    }
  }
  for (Inbox* inbox : inboxes) {
    {
      std::lock_guard<std::mutex> lock(inbox->m);
      inbox->stop = true;
    }
    inbox->not_empty.notify_all();
    inbox->not_full.notify_all();
  }
  for (Inbox* inbox : inboxes) {
    if (inbox->worker.joinable()) inbox->worker.join();
  }
  size_t leftovers = 0;
  for (Inbox* inbox : inboxes) {
    std::lock_guard<std::mutex> lock(inbox->m);
    leftovers += inbox->items.size();
    inbox->items.clear();
  }
  if (inflight_ != nullptr) {
    for (size_t i = 0; i < leftovers; ++i) inflight_->Done();
  }
}

}  // namespace nbcp
