#ifndef NBCP_RUNTIME_SITE_TRANSPORT_H_
#define NBCP_RUNTIME_SITE_TRANSPORT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/causal_clock.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/message.h"
#include "runtime/clock.h"
#include "runtime/transport.h"

namespace nbcp {

class Counter;
class LatencyHistogram;
class WindowedSeries;

/// The paper's fault model, written once for both execution backends:
///   * a site must be registered to send or receive, and a down site
///     cannot send;
///   * channels between operational sites are reliable: a message is
///     delivered unless, when it arrives, its receiver is down or unknown
///     or its directed link is cut, in which case it is silently dropped
///     (a crashed site is not listening);
///   * delivery merges the message's causal stamp into the receiver
///     before the handler runs; a drop merges nothing.
///
/// A backend adds only how a delivery is scheduled. It calls Accept at the
/// start of Send and Deliver when the message arrives: the simulated
/// Network after a sampled channel delay on the virtual clock, the
/// ThreadedTransport when the receiver's worker pops the message from its
/// inbox. Either way the message's fate is decided by Deliver, at arrival,
/// so a crash or link cut while the message is in flight still drops it.
///
/// Thread safety: the site registry, the cut links, the traffic counters
/// and the send sequence are guarded by mu_, so concurrent senders and
/// delivering workers are safe. Handlers and the traffic/link observers
/// run with no lock held (a handler may Send). The wiring setters
/// (set_observer, set_link_observer, set_metrics, set_clocks) are
/// setup-time only: call them before traffic starts. set_metrics resolves
/// the metric handles once; the registry must outlive the transport.
class SiteTransport : public Transport {
 public:
  SiteTransport(const SiteTransport&) = delete;
  SiteTransport& operator=(const SiteTransport&) = delete;

  /// Validates and registers `site`, marking it operational; re-registering
  /// swaps the handler.
  Status RegisterSite(SiteId site, Handler handler) override;

  void SetSiteDown(SiteId site) override NBCP_EXCLUDES(mu_);
  void SetSiteUp(SiteId site) override NBCP_EXCLUDES(mu_);
  bool IsSiteUp(SiteId site) const override NBCP_EXCLUDES(mu_);
  void CutLink(SiteId a, SiteId b) override NBCP_EXCLUDES(mu_);
  void RestoreLink(SiteId a, SiteId b) override NBCP_EXCLUDES(mu_);

  std::vector<SiteId> Sites() const override NBCP_EXCLUDES(mu_);
  std::vector<SiteId> OperationalSites() const override NBCP_EXCLUDES(mu_);

  NetworkStats StatsSnapshot() const override NBCP_EXCLUDES(mu_);
  void ResetStats() override NBCP_EXCLUDES(mu_);

  void set_observer(Observer observer) override {
    observer_ = std::move(observer);
  }
  void set_link_observer(LinkObserver observer) override {
    link_observer_ = std::move(observer);
  }
  void set_metrics(MetricsRegistry* metrics) override;
  void set_clocks(CausalClockDomain* clocks) override { clocks_ = clocks; }

 protected:
  /// Backend state attached to a site at its first registration (the
  /// threaded backend's inbox and worker). Owned by the registry, so its
  /// address is stable for the transport's lifetime.
  class Endpoint {
   public:
    Endpoint() = default;
    Endpoint(const Endpoint&) = delete;
    Endpoint& operator=(const Endpoint&) = delete;
    virtual ~Endpoint() = default;
  };

  explicit SiteTransport(Clock* clock) : clock_(clock) {}

  /// RegisterSite that attaches `endpoint` on the site's first
  /// registration (it is discarded on later ones). Returns the site's
  /// endpoint.
  Result<Endpoint*> AddSite(SiteId site, Handler handler,
                            std::unique_ptr<Endpoint> endpoint)
      NBCP_EXCLUDES(mu_);

  /// The endpoint attached to `site`, or nullptr.
  Endpoint* EndpointOf(SiteId site) const NBCP_EXCLUDES(mu_);

  /// Every attached endpoint, in site order.
  std::vector<Endpoint*> Endpoints() const NBCP_EXCLUDES(mu_);

  /// The accept step of Send: fails for an unregistered or down sender;
  /// otherwise sets `msg.seq` and `msg.sent_at`, counts the send, stamps
  /// the message with the sender's causal clock and reports observer 's'.
  /// `*receiver` (when given) gets the receiver's endpoint, or nullptr for
  /// an unknown receiver.
  Status Accept(Message& msg, Endpoint** receiver = nullptr)
      NBCP_EXCLUDES(mu_);

  /// The delivery step, run when `msg` arrives: drops it (see Drop) when
  /// its link is cut or its receiver is down or unknown; otherwise merges
  /// its stamp into the receiver (the post-merge stamp goes to `*stamp`,
  /// when given), counts the delivery and its delay, reports observer 'd'
  /// and runs the receiver's handler. Returns true if it was delivered.
  bool Deliver(const Message& msg, ClockStamp* stamp = nullptr)
      NBCP_EXCLUDES(mu_);

  /// Counts `msg` as dropped and reports observer 'x'; for a backend that
  /// has nowhere to deliver an accepted message.
  void Drop(const Message& msg) NBCP_EXCLUDES(mu_);

  Clock* clock() const { return clock_; }

 private:
  struct Site {
    Handler handler;
    bool up = true;
    std::unique_ptr<Endpoint> endpoint;
  };

  Clock* const clock_;

  mutable Mutex mu_;
  std::map<SiteId, Site> sites_ NBCP_GUARDED_BY(mu_);
  std::set<std::pair<SiteId, SiteId>> cut_links_ NBCP_GUARDED_BY(mu_);
  NetworkStats stats_ NBCP_GUARDED_BY(mu_);
  uint64_t next_seq_ NBCP_GUARDED_BY(mu_) = 0;
  /// Send-to-delivery delay; recorded under mu_, which the delivery step
  /// holds anyway, because a histogram is not thread-safe.
  LatencyHistogram* delay_us_ NBCP_PT_GUARDED_BY(mu_) = nullptr;

  // Setup-time wiring; unguarded (see class comment).
  Observer observer_;
  LinkObserver link_observer_;
  CausalClockDomain* clocks_ = nullptr;
  Counter* sent_ = nullptr;  ///< Null when no registry is attached.
  Counter* delivered_ = nullptr;
  Counter* dropped_ = nullptr;
  WindowedSeries* inflight_ = nullptr;
};

}  // namespace nbcp

#endif  // NBCP_RUNTIME_SITE_TRANSPORT_H_
