#include "net/network.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics_registry.h"

namespace nbcp {

Status Network::RegisterSite(SiteId site, Handler handler) {
  if (site == kNoSite) {
    return Status::InvalidArgument("site id 0 is reserved");
  }
  if (!handler) {
    return Status::InvalidArgument("null handler");
  }
  MutexLock lock(&mu_);
  auto [it, inserted] = sites_.try_emplace(site);
  it->second.handler = std::move(handler);
  it->second.up = true;
  return Status::OK();
}

SimTime Network::SampleDelay() {
  DelayModel model;
  {
    MutexLock lock(&mu_);
    model = delay_;
  }
  SimTime d = model.base_delay;
  if (model.jitter > 0) {
    d += clock_sim_->rng().Uniform(0, model.jitter);
  }
  return d;
}

Status Network::Send(Message msg) {
  uint64_t inflight = 0;
  {
    MutexLock lock(&mu_);
    auto sender = sites_.find(msg.from);
    if (sender == sites_.end()) {
      return Status::InvalidArgument("unregistered sender site");
    }
    if (!sender->second.up) {
      return Status::Unavailable("sender site is down");
    }
    msg.sent_at = clock_sim_->now();
    msg.seq = ++next_seq_;
    ++stats_.messages_sent;
    stats_.bytes_sent += msg.payload.size();
    inflight = stats_.messages_sent - stats_.messages_delivered -
               stats_.messages_dropped;
  }
  if (clocks_ != nullptr) msg.stamp = clocks_->OnSend(msg.from);
  if (metrics_ != nullptr) {
    metrics_->counter("net/sent").Inc();
    // In-flight messages over virtual time: sends minus completions so
    // far. Windowed mean/p95 of this series show queueing pressure.
    metrics_->series("net/inflight").Record(clock_sim_->now(), inflight);
  }
  if (observer_) observer_(msg, 's');

  SimTime delay = SampleDelay();
  EventLabel label;
  label.cls = EventClass::kDelivery;
  label.site = msg.to;
  label.from = msg.from;
  label.txn = msg.txn;
  label.msg_type = msg.type;
  label.seq = msg.seq;
  clock_sim_->ScheduleLabeled(
      delay, std::move(label), [this, msg = std::move(msg)]() {
        // Resolve the message's fate and copy the handler under the lock;
        // everything observable (metrics, observers, the handler itself —
        // which may Send) runs with the lock released.
        bool delivered = false;
        bool receiver_down = false;
        Handler handler;
        {
          MutexLock lock(&mu_);
          if (cut_links_.count({msg.from, msg.to}) != 0) {
            ++stats_.messages_dropped;
          } else {
            auto receiver = sites_.find(msg.to);
            if (receiver == sites_.end() || !receiver->second.up) {
              ++stats_.messages_dropped;
              receiver_down = true;
            } else {
              ++stats_.messages_delivered;
              delivered = true;
              handler = receiver->second.handler;
            }
          }
        }
        if (!delivered) {
          if (receiver_down) {
            NBCP_LOG_AT(kDebug, msg.to)
                << "dropped " << msg.ToString() << " (receiver down)";
          }
          if (metrics_ != nullptr) metrics_->counter("net/dropped").Inc();
          if (observer_) observer_(msg, 'x');
          return;
        }
        if (clocks_ != nullptr) clocks_->MergeDelivery(msg.to, msg.stamp);
        if (metrics_ != nullptr) {
          metrics_->counter("net/delivered").Inc();
          metrics_->histogram("net/delay_us")
              .Record(clock_sim_->now() - msg.sent_at);
        }
        if (observer_) observer_(msg, 'd');
        handler(msg);
      });
  return Status::OK();
}

void Network::SetSiteDown(SiteId site) {
  MutexLock lock(&mu_);
  auto it = sites_.find(site);
  if (it != sites_.end()) it->second.up = false;
}

void Network::SetSiteUp(SiteId site) {
  MutexLock lock(&mu_);
  auto it = sites_.find(site);
  if (it != sites_.end()) it->second.up = true;
}

bool Network::IsSiteUp(SiteId site) const {
  MutexLock lock(&mu_);
  auto it = sites_.find(site);
  return it != sites_.end() && it->second.up;
}

void Network::CutLink(SiteId a, SiteId b) {
  bool cut = false;
  {
    MutexLock lock(&mu_);
    cut = cut_links_.insert({a, b}).second;
  }
  if (cut && link_observer_) link_observer_(a, b, /*cut=*/true);
}

void Network::RestoreLink(SiteId a, SiteId b) {
  bool restored = false;
  {
    MutexLock lock(&mu_);
    restored = cut_links_.erase({a, b}) != 0;
  }
  if (restored && link_observer_) link_observer_(a, b, /*cut=*/false);
}

std::vector<SiteId> Network::Sites() const {
  MutexLock lock(&mu_);
  std::vector<SiteId> out;
  out.reserve(sites_.size());
  for (const auto& [id, info] : sites_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<SiteId> Network::OperationalSites() const {
  MutexLock lock(&mu_);
  std::vector<SiteId> out;
  for (const auto& [id, info] : sites_) {
    if (info.up) out.push_back(id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace nbcp
