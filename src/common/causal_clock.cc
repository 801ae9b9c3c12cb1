#include "common/causal_clock.h"

#include <algorithm>
#include <sstream>

namespace nbcp {

std::string ClockStamp::ToString() const {
  std::ostringstream out;
  out << "L" << lamport << "<";
  for (size_t i = 0; i < vc.size(); ++i) {
    if (i > 0) out << ",";
    out << vc[i];
  }
  out << ">";
  return out.str();
}

bool operator==(const ClockStamp& a, const ClockStamp& b) {
  return a.lamport == b.lamport && a.vc == b.vc;
}

bool VectorLeq(const ClockStamp& a, const ClockStamp& b) {
  size_t common = std::min(a.vc.size(), b.vc.size());
  for (size_t i = 0; i < common; ++i) {
    if (a.vc[i] > b.vc[i]) return false;
  }
  // Components past the shorter vector count as 0.
  for (size_t i = common; i < a.vc.size(); ++i) {
    if (a.vc[i] > 0) return false;
  }
  return true;
}

bool HappensBefore(const ClockStamp& a, const ClockStamp& b) {
  if (!a.stamped() || !b.stamped()) return false;
  return VectorLeq(a, b) && !VectorLeq(b, a);
}

bool ConcurrentWith(const ClockStamp& a, const ClockStamp& b) {
  if (!a.stamped() || !b.stamped()) return false;
  return !VectorLeq(a, b) && !VectorLeq(b, a);
}

CausalClockDomain::CausalClockDomain(size_t num_sites, bool vectors)
    : n_(num_sites), sites_(new SiteClock[num_sites]) {
  if (!vectors) return;
  for (size_t i = 0; i < n_; ++i) {
    SiteClock* clock = &sites_[i];
    MutexLock lock(&clock->mu);
    clock->vc.assign(n_, 0);
  }
}

void CausalClockDomain::Advance(SiteClock* clock, size_t i) {
  ++clock->lamport;
  if (!clock->vc.empty()) ++clock->vc[i];
}

ClockStamp CausalClockDomain::OnLocal(SiteId site) {
  SiteClock* clock = ClockOf(site);
  if (clock == nullptr) return {};
  MutexLock lock(&clock->mu);
  Advance(clock, site - 1);
  return ClockStamp{clock->lamport, clock->vc};
}

void CausalClockDomain::Tick(SiteId site) {
  SiteClock* clock = ClockOf(site);
  if (clock == nullptr) return;
  MutexLock lock(&clock->mu);
  Advance(clock, site - 1);
}

void CausalClockDomain::Merge(SiteClock* clock, size_t i,
                              const ClockStamp& msg) {
  clock->lamport = std::max(clock->lamport, msg.lamport) + 1;
  std::vector<uint64_t>& mine = clock->vc;
  if (mine.empty()) return;  // Lamport only.
  size_t common = std::min(mine.size(), msg.vc.size());
  for (size_t j = 0; j < common; ++j) {
    mine[j] = std::max(mine[j], msg.vc[j]);
  }
  ++mine[i];
}

ClockStamp CausalClockDomain::OnDeliver(SiteId site, const ClockStamp& msg) {
  SiteClock* clock = ClockOf(site);
  if (clock == nullptr) return {};
  MutexLock lock(&clock->mu);
  Merge(clock, site - 1, msg);
  return ClockStamp{clock->lamport, clock->vc};
}

void CausalClockDomain::MergeDelivery(SiteId site, const ClockStamp& msg) {
  SiteClock* clock = ClockOf(site);
  if (clock == nullptr) return;
  MutexLock lock(&clock->mu);
  Merge(clock, site - 1, msg);
}

ClockStamp CausalClockDomain::Current(SiteId site) const {
  SiteClock* clock = ClockOf(site);
  if (clock == nullptr) return {};
  MutexLock lock(&clock->mu);
  return ClockStamp{clock->lamport, clock->vc};
}

void CausalClockDomain::Reset() {
  for (size_t i = 0; i < n_; ++i) {
    SiteClock* clock = &sites_[i];
    MutexLock lock(&clock->mu);
    clock->lamport = 0;
    std::fill(clock->vc.begin(), clock->vc.end(), 0);
  }
}

}  // namespace nbcp
