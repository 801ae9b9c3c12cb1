#ifndef NBCP_NET_NETWORK_H_
#define NBCP_NET_NETWORK_H_

#include <functional>
#include <utility>

#include "common/status.h"
#include "net/message.h"
#include "runtime/site_transport.h"
#include "sim/simulator.h"

namespace nbcp {

/// Per-channel delivery delay model.
struct DelayModel {
  SimTime base_delay = 100;    ///< Fixed component, microseconds.
  SimTime jitter = 0;          ///< Uniform extra delay in [0, jitter].
};

/// Simulated network realizing the paper's assumptions:
///   * point-to-point communication that never fails (no loss, no
///     duplication, no corruption) between operational sites;
///   * messages to a crashed site are dropped (the site is not listening);
///   * per-channel FIFO is NOT guaranteed when jitter > 0, matching the
///     paper's asynchronous model.
///
/// Partition support (CutLink) exists for extension studies only; the
/// reproduction experiments never cut links, per the paper's assumptions.
///
/// This is the virtual-time implementation of the Transport seam. The
/// fault model is SiteTransport's; this class adds only the scheduling:
/// delivery is a typed event on the Simulator after a channel delay
/// sampled from the delay model fixed at construction (the event holds
/// the message itself, so a send builds no closure and no label), and
/// Post/PostSync run inline because the single sim thread IS every site's
/// execution context.
///
/// Thread safety: as SiteTransport's. The delay model is immutable, and
/// the delay is drawn from the Simulator's rng, which only the sim thread
/// uses.
class Network : public SiteTransport {
 public:
  explicit Network(Simulator* sim, DelayModel delay = DelayModel{})
      : SiteTransport(sim), sim_(sim), delay_(delay) {}

  /// Sends `msg`; delivery is scheduled after the channel delay.
  Status Send(Message msg) override;

  /// Inline: the sim thread is every site's execution context.
  void Post(SiteId site, std::function<void()> fn) override {
    (void)site;
    fn();
  }
  void PostSync(SiteId site, std::function<void()> fn) override {
    (void)site;
    fn();
  }

 private:
  /// Samples the delivery delay for one message.
  SimTime SampleDelay();

  /// The delivery event's action (a DeliverFn): `self` is the Network.
  static void DeliverEvent(void* self, const Message& msg) {
    static_cast<Network*>(self)->Deliver(msg);
  }

  Simulator* const sim_;
  const DelayModel delay_;
};

}  // namespace nbcp

#endif  // NBCP_NET_NETWORK_H_
