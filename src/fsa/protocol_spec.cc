#include "fsa/protocol_spec.h"

#include <algorithm>

namespace nbcp {

std::string ToString(Paradigm paradigm) {
  switch (paradigm) {
    case Paradigm::kCentralSite:
      return "central-site";
    case Paradigm::kDecentralized:
      return "decentralized";
    case Paradigm::kLinear:
      return "linear";
  }
  return "unknown";
}

RoleIndex ProtocolSpec::AddRole(std::string role_name, Automaton automaton) {
  roles_.push_back(Role{std::move(role_name), std::move(automaton)});
  return static_cast<RoleIndex>(roles_.size()) - 1;
}

RoleIndex ProtocolSpec::RoleForSite(SiteId site, size_t n) const {
  switch (paradigm_) {
    case Paradigm::kDecentralized:
      return 0;
    case Paradigm::kCentralSite:
      return site == 1 ? 0 : 1;
    case Paradigm::kLinear:
      if (site == 1) return 0;
      return site == n ? 2 : 1;
  }
  return 0;
}

std::vector<SiteId> ProtocolSpec::ResolveGroup(Group group, SiteId self,
                                               size_t n) const {
  SiteRun run = GroupRun(group, self, n);
  std::vector<SiteId> out(run.count);
  for (size_t i = 0; i < run.count; ++i) {
    out[i] = run.first + static_cast<SiteId>(i);
  }
  return out;
}

ProtocolSpec::SiteRun ProtocolSpec::GroupRun(Group group, SiteId self,
                                             size_t n) {
  switch (group) {
    case Group::kNone:
      break;
    case Group::kCoordinator:
      return {1, 1};
    case Group::kSlaves:
      return {2, n >= 2 ? n - 1 : 0};
    case Group::kAllPeers:
      return {1, n};
    case Group::kNextPeer:
      if (self < n) return {self + 1, 1};
      break;
    case Group::kPrevPeer:
      if (self > 1) return {self - 1, 1};
      break;
  }
  return {};
}

Status ProtocolSpec::Validate() const {
  if (paradigm_ == Paradigm::kCentralSite && roles_.size() != 2) {
    return Status::InvalidArgument(
        "central-site protocol needs coordinator and slave roles");
  }
  if (paradigm_ == Paradigm::kDecentralized && roles_.size() != 1) {
    return Status::InvalidArgument(
        "decentralized protocol needs exactly one peer role");
  }
  if (paradigm_ == Paradigm::kLinear && roles_.size() != 3) {
    return Status::InvalidArgument(
        "linear protocol needs head, middle and tail roles");
  }
  for (const Role& role : roles_) {
    Status s = role.automaton.Validate();
    if (!s.ok()) {
      return Status::InvalidArgument("role '" + role.name +
                                     "' invalid: " + s.message());
    }
  }
  return Status::OK();
}

int ProtocolSpec::NumPhases() const {
  int phases = 0;
  for (const Role& role : roles_) {
    phases = std::max(phases, role.automaton.LongestPathLength());
  }
  return phases;
}

}  // namespace nbcp
