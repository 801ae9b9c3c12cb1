#ifndef NBCP_FSA_PROTOCOL_SPEC_H_
#define NBCP_FSA_PROTOCOL_SPEC_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "fsa/automaton.h"

namespace nbcp {

/// The two generic classes of commit protocols considered by the paper.
enum class Paradigm : uint8_t {
  kCentralSite = 0,   ///< One coordinator (site 1) directs slaves (2..n).
  kDecentralized = 1, ///< All sites execute the same peer protocol.
  kLinear = 2,        ///< Chained: head (site 1), middle, tail (site n).
};

std::string ToString(Paradigm paradigm);

/// Index of a role within a ProtocolSpec.
using RoleIndex = int;

/// A complete commit-protocol specification: one automaton per role plus
/// the paradigm that maps sites to roles.
///
/// Central-site specs have two roles, coordinator (index 0, executed by
/// site 1) and slave (index 1, sites 2..n). Decentralized specs have one
/// peer role executed by every site. The same spec object drives both the
/// analysis engine (reachable-state-graph construction, nonblocking
/// checking) and the runtime engine, so the protocol that is *proved*
/// nonblocking is the protocol that *runs*.
class ProtocolSpec {
 public:
  ProtocolSpec(std::string name, Paradigm paradigm)
      : name_(std::move(name)), paradigm_(paradigm) {}

  /// Adds a role automaton; returns its index. Central-site specs must add
  /// the coordinator first, then the slave.
  RoleIndex AddRole(std::string role_name, Automaton automaton);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  Paradigm paradigm() const { return paradigm_; }

  size_t num_roles() const { return roles_.size(); }
  const Automaton& role(RoleIndex r) const { return roles_[r].automaton; }
  Automaton& mutable_role(RoleIndex r) { return roles_[r].automaton; }
  const std::string& role_name(RoleIndex r) const { return roles_[r].name; }

  /// The role executed by `site` in an n-site population.
  RoleIndex RoleForSite(SiteId site, size_t n) const;

  /// Sites addressed by `group` when `self` sends, in an n-site population
  /// with sites numbered 1..n. kAllPeers includes `self` (the paper has
  /// decentralized sites send messages to themselves).
  std::vector<SiteId> ResolveGroup(Group group, SiteId self, size_t n) const;

  /// ResolveGroup's sites, which always form one ascending run of ids:
  /// first, first + 1, ..., first + count - 1.
  struct SiteRun {
    SiteId first = 1;
    size_t count = 0;
  };
  static SiteRun GroupRun(Group group, SiteId self, size_t n);

  /// Validates each role automaton and the paradigm/role-count pairing.
  Status Validate() const;

  /// Number of phases: the maximum over roles of the longest path from
  /// initial to final state.
  int NumPhases() const;

 private:
  struct Role {
    std::string name;
    Automaton automaton;
  };

  std::string name_;
  Paradigm paradigm_;
  std::vector<Role> roles_;
};

}  // namespace nbcp

#endif  // NBCP_FSA_PROTOCOL_SPEC_H_
