#include "runtime/site_transport.h"

#include "common/logging.h"
#include "obs/metrics_registry.h"

namespace nbcp {

Status SiteTransport::RegisterSite(SiteId site, Handler handler) {
  return AddSite(site, std::move(handler), nullptr).status();
}

Result<SiteTransport::Endpoint*> SiteTransport::AddSite(
    SiteId site, Handler handler, std::unique_ptr<Endpoint> endpoint) {
  if (site == kNoSite) {
    return Status::InvalidArgument("site id 0 is reserved");
  }
  if (!handler) {
    return Status::InvalidArgument("null handler");
  }
  MutexLock lock(&mu_);
  Site& entry = sites_[site];
  entry.handler = std::move(handler);
  entry.up = true;
  if (entry.endpoint == nullptr) entry.endpoint = std::move(endpoint);
  return entry.endpoint.get();
}

SiteTransport::Endpoint* SiteTransport::EndpointOf(SiteId site) const {
  MutexLock lock(&mu_);
  auto it = sites_.find(site);
  return it == sites_.end() ? nullptr : it->second.endpoint.get();
}

std::vector<SiteTransport::Endpoint*> SiteTransport::Endpoints() const {
  MutexLock lock(&mu_);
  std::vector<Endpoint*> out;
  for (const auto& [id, entry] : sites_) {
    if (entry.endpoint != nullptr) out.push_back(entry.endpoint.get());
  }
  return out;
}

void SiteTransport::set_metrics(MetricsRegistry* metrics) {
  sent_ = metrics ? &metrics->counter("net/sent") : nullptr;
  delivered_ = metrics ? &metrics->counter("net/delivered") : nullptr;
  dropped_ = metrics ? &metrics->counter("net/dropped") : nullptr;
  // In-flight messages over time: sends minus completions so far.
  // Windowed mean/p95 of this series show queueing pressure.
  inflight_ = metrics ? &metrics->series("net/inflight") : nullptr;
  delay_us_ = metrics ? &metrics->histogram("net/delay_us") : nullptr;
}

Status SiteTransport::Accept(Message& msg, Endpoint** receiver) {
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
    msg.sent_at = clock_->now();
    msg.seq = ++next_seq_;
    ++stats_.messages_sent;
    stats_.bytes_sent += msg.payload.size();
    inflight = stats_.messages_sent - stats_.messages_delivered -
               stats_.messages_dropped;
    if (receiver != nullptr) {
      auto it = sites_.find(msg.to);
      *receiver = it == sites_.end() ? nullptr : it->second.endpoint.get();
    }
  }
  if (clocks_ != nullptr) msg.stamp = clocks_->OnSend(msg.from);
  if (sent_ != nullptr) {
    sent_->Inc();
    inflight_->Record(msg.sent_at, inflight);
  }
  if (observer_) observer_(msg, 's');
  return Status::OK();
}

bool SiteTransport::Deliver(const Message& msg, ClockStamp* stamp) {
  // Decide the fate and copy the handler under the lock; everything
  // observable (observers, the handler itself, which may Send) runs with
  // the lock released.
  Handler handler;
  {
    MutexLock lock(&mu_);
    auto receiver = sites_.find(msg.to);
    if (receiver != sites_.end() && receiver->second.up &&
        cut_links_.count({msg.from, msg.to}) == 0) {
      ++stats_.messages_delivered;
      if (delay_us_ != nullptr) delay_us_->Record(clock_->now() - msg.sent_at);
      handler = receiver->second.handler;
    }
  }
  if (!handler) {
    Drop(msg);
    return false;
  }
  if (clocks_ != nullptr && stamp != nullptr) {
    *stamp = clocks_->OnDeliver(msg.to, msg.stamp);
  } else if (clocks_ != nullptr) {
    clocks_->MergeDelivery(msg.to, msg.stamp);
  }
  if (delivered_ != nullptr) delivered_->Inc();
  if (observer_) observer_(msg, 'd');
  handler(msg);
  return true;
}

void SiteTransport::Drop(const Message& msg) {
  {
    MutexLock lock(&mu_);
    ++stats_.messages_dropped;
  }
  NBCP_LOG_AT(kDebug, msg.to) << "dropped " << msg.ToString();
  if (dropped_ != nullptr) dropped_->Inc();
  if (observer_) observer_(msg, 'x');
}

void SiteTransport::SetSiteDown(SiteId site) {
  MutexLock lock(&mu_);
  auto it = sites_.find(site);
  if (it != sites_.end()) it->second.up = false;
}

void SiteTransport::SetSiteUp(SiteId site) {
  MutexLock lock(&mu_);
  auto it = sites_.find(site);
  if (it != sites_.end()) it->second.up = true;
}

bool SiteTransport::IsSiteUp(SiteId site) const {
  MutexLock lock(&mu_);
  auto it = sites_.find(site);
  return it != sites_.end() && it->second.up;
}

void SiteTransport::CutLink(SiteId a, SiteId b) {
  bool cut = false;
  {
    MutexLock lock(&mu_);
    cut = cut_links_.insert({a, b}).second;
  }
  if (cut && link_observer_) link_observer_(a, b, /*cut=*/true);
}

void SiteTransport::RestoreLink(SiteId a, SiteId b) {
  bool restored = false;
  {
    MutexLock lock(&mu_);
    restored = cut_links_.erase({a, b}) != 0;
  }
  if (restored && link_observer_) link_observer_(a, b, /*cut=*/false);
}

std::vector<SiteId> SiteTransport::Sites() const {
  MutexLock lock(&mu_);
  std::vector<SiteId> out;
  out.reserve(sites_.size());
  for (const auto& [id, entry] : sites_) out.push_back(id);
  return out;  // std::map iterates ascending.
}

std::vector<SiteId> SiteTransport::OperationalSites() const {
  MutexLock lock(&mu_);
  std::vector<SiteId> out;
  for (const auto& [id, entry] : sites_) {
    if (entry.up) out.push_back(id);
  }
  return out;
}

NetworkStats SiteTransport::StatsSnapshot() const {
  MutexLock lock(&mu_);
  return stats_;
}

void SiteTransport::ResetStats() {
  MutexLock lock(&mu_);
  stats_ = NetworkStats{};
}

}  // namespace nbcp
