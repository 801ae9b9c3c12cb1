#ifndef NBCP_COMMON_CAUSAL_CLOCK_H_
#define NBCP_COMMON_CAUSAL_CLOCK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"

namespace nbcp {

/// A causal timestamp: a Lamport scalar plus a vector clock, taken at one
/// site. `vc[i]` counts the ticked events site i+1 has (transitively) heard
/// of. An empty vector marks an unstamped value (clocks not wired, a
/// domain kept without vectors, or a trace recorded before clocks
/// existed); its Lamport value may still be set.
struct ClockStamp {
  uint64_t lamport = 0;
  std::vector<uint64_t> vc;

  bool stamped() const { return !vc.empty(); }

  /// "L7<2,4,1>" (Lamport value, then the vector). "L0<>" when unstamped.
  std::string ToString() const;
};

bool operator==(const ClockStamp& a, const ClockStamp& b);
inline bool operator!=(const ClockStamp& a, const ClockStamp& b) {
  return !(a == b);
}

/// Componentwise a.vc <= b.vc; indices absent from the shorter vector count
/// as 0 (a shorter vector is a stamp from a smaller population).
bool VectorLeq(const ClockStamp& a, const ClockStamp& b);

/// Strict vector-clock order: a -> b iff a.vc <= b.vc componentwise and
/// a.vc != b.vc. False when either side is unstamped (order unknown).
bool HappensBefore(const ClockStamp& a, const ClockStamp& b);

/// Neither a -> b nor b -> a (both stamped).
bool ConcurrentWith(const ClockStamp& a, const ClockStamp& b);

/// Per-site Lamport + vector clocks for an n-site run, ticked by the
/// transports (network send/deliver) and the clocks (timer firings).
///
/// The Lamport scalar always ticks. The vector part is kept only when the
/// domain is built with `vectors` (its default): a domain without vectors
/// hands out Lamport-only stamps (`stamped()` is false), which neither
/// allocate nor order events by happens-before. CommitSystem keeps vectors
/// only when something reads them (a trace recorder or a schedule log).
/// Transport-agnostic: each site's clock sits behind a lock of its own, so
/// the discrete-event runtime and the threaded runtime tick the same domain
/// and sites never contend with each other. Only a site's own events tick
/// its clock, so its lock is contended only by readers of Current().
/// Consumers only ever see ClockStamp values (returned by value, taken
/// under the site's lock).
///
/// Tick rules (the classic ones):
///   * local event / timer / send:  lamport += 1,  vc[self] += 1;
///   * deliver(m): lamport = max(lamport, m.lamport) + 1,
///                 vc = max(vc, m.vc) componentwise, then vc[self] += 1.
/// Clock state models network-level metadata and survives site crashes (a
/// recovered site resumes from its pre-crash clock, which keeps stamps
/// monotone per site and cannot mask a real causality violation).
class CausalClockDomain {
 public:
  explicit CausalClockDomain(size_t num_sites, bool vectors = true);

  CausalClockDomain(const CausalClockDomain&) = delete;
  CausalClockDomain& operator=(const CausalClockDomain&) = delete;

  size_t num_sites() const { return n_; }

  /// Ticks `site` for a local event (timer firing, protocol start).
  /// Returns the post-tick stamp. No-op ({} returned) for out-of-range ids.
  ClockStamp OnLocal(SiteId site);

  /// OnLocal for a caller that does not read the resulting stamp: the
  /// same tick, without building (and allocating) a stamp.
  void Tick(SiteId site);

  /// Ticks `site` for a message send; the returned stamp travels with the
  /// message.
  ClockStamp OnSend(SiteId site) { return OnLocal(site); }

  /// Merges a received message's stamp into `site`, then ticks. Unstamped
  /// message stamps merge nothing (plain local tick). Returns the
  /// post-delivery stamp.
  ClockStamp OnDeliver(SiteId site, const ClockStamp& msg);

  /// OnDeliver for a caller that does not read the resulting stamp: the
  /// same tick, without building (and allocating) a stamp.
  void MergeDelivery(SiteId site, const ClockStamp& msg);

  /// The current stamp of `site`, without ticking.
  ClockStamp Current(SiteId site) const;

  /// Back to all-zero clocks.
  void Reset();

 private:
  /// One site's clock. Cache-line aligned so that sites ticking on
  /// different threads do not share a line.
  struct alignas(64) SiteClock {
    Mutex mu;
    uint64_t lamport NBCP_GUARDED_BY(mu) = 0;
    std::vector<uint64_t> vc NBCP_GUARDED_BY(mu);
  };

  /// The clock of `site`, or nullptr for an out-of-range id.
  SiteClock* ClockOf(SiteId site) const {
    return site >= 1 && site <= n_ ? &sites_[site - 1] : nullptr;
  }
  /// Applies the local tick rule to `clock` (site index `i`).
  static void Advance(SiteClock* clock, size_t i) NBCP_REQUIRES(clock->mu);
  /// Applies the delivery tick rule to `clock` (site index `i`).
  static void Merge(SiteClock* clock, size_t i, const ClockStamp& msg)
      NBCP_REQUIRES(clock->mu);

  size_t n_;
  std::unique_ptr<SiteClock[]> sites_;
};

}  // namespace nbcp

#endif  // NBCP_COMMON_CAUSAL_CLOCK_H_
