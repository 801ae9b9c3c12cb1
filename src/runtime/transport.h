#ifndef NBCP_RUNTIME_TRANSPORT_H_
#define NBCP_RUNTIME_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/causal_clock.h"
#include "common/status.h"
#include "common/types.h"
#include "net/message.h"

namespace nbcp {

class MetricsRegistry;

/// Counters describing all traffic seen by a transport.
struct NetworkStats {
  uint64_t messages_sent = 0;       ///< Send() calls accepted.
  uint64_t messages_delivered = 0;  ///< Handed to a live receiver.
  uint64_t messages_dropped = 0;    ///< Receiver down or link cut.
  uint64_t bytes_sent = 0;          ///< Sum of payload sizes.
};

/// Messaging seam between the protocol machinery and an execution backend.
///
/// The protocol engine, participants, election, termination, recovery and
/// the failure injector all speak to this interface; two implementations
/// exist:
///   * Network (src/net/network.h) — the discrete-event simulation, where
///     delivery is an event scheduled after a sampled channel delay;
///   * ThreadedTransport (src/runtime/threaded_transport.h) — one worker
///     thread per site draining a bounded MPSC inbox, with real
///     backpressure on senders.
///
/// Both derive from SiteTransport (src/runtime/site_transport.h), the one
/// implementation of the paper's failure semantics: sends from a down site
/// fail, messages to a down/unknown receiver or across a cut link are
/// silently dropped at delivery time, and delivery merges the message's
/// causal stamp into the receiver before the handler runs. They differ
/// only in how a delivery is scheduled.
class Transport {
 public:
  using Handler = std::function<void(const Message&)>;

  /// Optional traffic observer: phase is 's' (accepted for sending),
  /// 'd' (delivered to the receiver) or 'x' (dropped: receiver down or
  /// link cut). Used by the trace recorder.
  using Observer = std::function<void(const Message&, char phase)>;

  /// Optional link-topology observer: invoked on CutLink (cut = true) and
  /// RestoreLink (cut = false).
  using LinkObserver = std::function<void(SiteId a, SiteId b, bool cut)>;

  virtual ~Transport() = default;

  /// Registers `site` with a delivery handler. A site must be registered
  /// before it can send or receive. Registering marks the site operational.
  virtual Status RegisterSite(SiteId site, Handler handler) = 0;

  /// Sends `msg`. Fails if the sender is not registered or is down. A
  /// down/unknown *receiver* does not fail the send — the message is
  /// silently dropped at delivery time, as a real network cannot refuse a
  /// send to a crashed host.
  virtual Status Send(Message msg) = 0;

  /// Sends copies of `msg` to every site in `targets` (msg.to overwritten).
  virtual Status Broadcast(const Message& msg,
                           const std::vector<SiteId>& targets) {
    for (SiteId target : targets) {
      Message copy = msg;
      copy.to = target;
      Status s = Send(std::move(copy));
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  /// Marks a site crashed: its pending inbound messages are dropped at
  /// delivery time and future sends to it are dropped.
  virtual void SetSiteDown(SiteId site) = 0;

  /// Marks a site operational again (after recovery).
  virtual void SetSiteUp(SiteId site) = 0;

  virtual bool IsSiteUp(SiteId site) const = 0;

  /// Severs the directed link a->b (extension studies only).
  virtual void CutLink(SiteId a, SiteId b) = 0;

  /// Restores the directed link a->b.
  virtual void RestoreLink(SiteId a, SiteId b) = 0;

  /// All registered sites, ascending.
  virtual std::vector<SiteId> Sites() const = 0;

  /// All registered sites currently operational, ascending.
  virtual std::vector<SiteId> OperationalSites() const = 0;

  /// By-value snapshot of the traffic counters, safe under concurrency.
  virtual NetworkStats StatsSnapshot() const = 0;

  virtual void ResetStats() = 0;

  /// Runs `fn` in `site`'s execution context without waiting for it. On
  /// the simulator backend the execution context IS the caller, so this
  /// runs `fn` inline; on the threaded backend it enqueues `fn` on the
  /// site's worker thread (tasks run even while the site is marked down —
  /// being "down" silences the protocol, not the machinery around it).
  virtual void Post(SiteId site, std::function<void()> fn) = 0;

  /// Runs `fn` in `site`'s execution context and waits for completion.
  /// Inline on the simulator; on the threaded backend it enqueues and
  /// blocks (running inline when already on the site's own worker, so a
  /// site may PostSync to itself). This is how the driver touches per-site
  /// protocol state — StartProtocol, SetVote, Crash — without racing the
  /// site's worker.
  virtual void PostSync(SiteId site, std::function<void()> fn) = 0;

  // Setup-time wiring (call before traffic starts; not owned, nullptr
  // detaches where applicable).
  virtual void set_observer(Observer observer) = 0;
  virtual void set_link_observer(LinkObserver observer) = 0;

  /// Attaches a metrics registry: traffic counters ("net/sent",
  /// "net/delivered", "net/dropped"), the in-flight series
  /// ("net/inflight") and the send-to-delivery delay histogram
  /// ("net/delay_us").
  virtual void set_metrics(MetricsRegistry* metrics) = 0;

  /// Attaches the run's causal clocks. When set, Send ticks the sender and
  /// stamps the message, and delivery merges the message's stamp into the
  /// receiver before the handler runs — so every handler (and everything
  /// it records) observes post-merge clocks. Dropped messages merge
  /// nothing: a crashed receiver learned nothing.
  virtual void set_clocks(CausalClockDomain* clocks) = 0;
};

}  // namespace nbcp

#endif  // NBCP_RUNTIME_TRANSPORT_H_
