#include "analysis/conformance.h"

#include <algorithm>
#include <map>
#include <sstream>

namespace nbcp {

std::optional<PredictedFiring> PredictNextFiring(
    const CompiledRole& role, StateIndex state, std::span<const uint32_t> inbox,
    std::optional<bool> vote, bool vote_cast) {
  // The engine consults the vote lazily but the preset never changes, so
  // a constant vote is equivalent (the default is yes).
  bool v = vote.value_or(true);
  return role.NextFiring(state, inbox, vote_cast, [v] { return v; });
}

std::string ToString(ConformanceIssueKind kind) {
  switch (kind) {
    case ConformanceIssueKind::kUnknownState:
      return "unknown-state";
    case ConformanceIssueKind::kUnexplainedTransition:
      return "unexplained-transition";
    case ConformanceIssueKind::kTransitionMismatch:
      return "transition-mismatch";
    case ConformanceIssueKind::kSendMismatch:
      return "send-mismatch";
    case ConformanceIssueKind::kVoteMismatch:
      return "vote-mismatch";
    case ConformanceIssueKind::kDecisionMismatch:
      return "decision-mismatch";
    case ConformanceIssueKind::kAtomicityViolation:
      return "atomicity-violation";
    case ConformanceIssueKind::kCommitWithoutYes:
      return "commit-without-yes";
    case ConformanceIssueKind::kUndecidedTerminal:
      return "undecided-terminal";
  }
  return "unknown";
}

std::string ConformanceIssue::ToString() const {
  std::ostringstream out;
  out << nbcp::ToString(kind) << " @t=" << at;
  if (site != kNoSite) out << " site " << site;
  out << ": " << detail;
  return out.str();
}

ConformanceChecker::ConformanceChecker(const ProtocolSpec* spec, size_t n,
                                       const ReachableStateGraph* graph,
                                       TransactionId txn,
                                       std::vector<bool> votes)
    : spec_(spec),
      n_(n),
      graph_(graph),
      txn_(txn),
      votes_(std::move(votes)),
      mirror_(MakeInitialGlobalState(*spec, n)),
      sites_(n) {
  roles_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    roles_.emplace_back(*spec, static_cast<SiteId>(i + 1), n);
    sites_[i].inbox.assign(roles_[i].inbox_size(), 0);
  }
  node_index_.reserve(graph_->num_nodes());
  for (size_t i = 0; i < graph_->num_nodes(); ++i) {
    node_index_.emplace(graph_->node(i).Key(), i);
  }
  auto it = node_index_.find(mirror_.Key());
  if (it != node_index_.end()) visited_.insert(it->second);
}

void ConformanceChecker::Degrade(const char* why) {
  (void)why;
  degraded_ = true;
}

void ConformanceChecker::AddDivergence(ConformanceIssueKind kind,
                                       const TraceEvent& e,
                                       std::string detail) {
  divergences_.push_back(
      ConformanceIssue{kind, e.at, e.site, std::move(detail)});
}

void ConformanceChecker::AddViolation(ConformanceIssueKind kind, SimTime at,
                                      SiteId site, std::string detail) {
  for (const ConformanceIssue& v : violations_) {
    if (v.kind == kind) return;  // Report each invariant class once.
  }
  violations_.push_back(ConformanceIssue{kind, at, site, std::move(detail)});
}

void ConformanceChecker::OnEvent(const TraceEvent& e) {
  if (e.txn != kNoTransaction && e.txn != txn_) return;
  switch (e.type) {
    case TraceEventType::kProtocolStart: {
      if (degraded_) return;
      size_t slot =
          roles_[e.site - 1].Slot(CompiledRole::kRequestType, kNoSite);
      sites_[e.site - 1].inbox[slot] += 1;
      return;
    }
    case TraceEventType::kMessageDelivered: {
      if (degraded_) return;
      size_t sep = e.detail.find("<-");
      if (sep == std::string::npos) return;
      const CompiledRole& role = roles_[e.site - 1];
      CompiledRole::TypeId type =
          role.Intern(std::string_view(e.detail).substr(0, sep));
      SiteId from =
          static_cast<SiteId>(std::stoul(e.detail.substr(sep + 2)));
      // Like the engine, buffer only what some trigger could consume.
      if (type == CompiledRole::kNoType || !role.ValidSender(from)) return;
      sites_[e.site - 1].inbox[role.Slot(type, from)] += 1;
      return;
    }
    case TraceEventType::kMessageSent: {
      if (degraded_) return;
      size_t sep = e.detail.find("->");
      if (sep == std::string::npos) return;
      std::string type = e.detail.substr(0, sep);
      SiteId to = static_cast<SiteId>(std::stoul(e.detail.substr(sep + 2)));
      sites_[e.site - 1].observed_sends.emplace_back(std::move(type), to);
      return;
    }
    case TraceEventType::kVoteCast: {
      if (degraded_) return;
      sites_[e.site - 1].observed_vote = (e.detail == "yes");
      return;
    }
    case TraceEventType::kStateChange:
      OnStateChange(e);
      return;
    case TraceEventType::kDecision:
    case TraceEventType::kTerminationDecide: {
      Outcome outcome = e.detail == "committed" ? Outcome::kCommitted
                                                : Outcome::kAborted;
      sites_[e.site - 1].observed_outcome = outcome;
      if (degraded_ || e.type == TraceEventType::kTerminationDecide) return;
      size_t i = e.site - 1;
      StateKind kind = RoleOf(e.site).state(mirror_.local[i]).kind;
      bool matches = (outcome == Outcome::kCommitted &&
                      kind == StateKind::kCommit) ||
                     (outcome == Outcome::kAborted &&
                      kind == StateKind::kAbort);
      if (!matches) {
        AddDivergence(ConformanceIssueKind::kDecisionMismatch, e,
                      "decision '" + e.detail + "' but local state is '" +
                          RoleOf(e.site).state(mirror_.local[i]).name + "'");
      }
      return;
    }
    case TraceEventType::kMessageDropped:
      Degrade("message dropped");
      return;
    case TraceEventType::kCrash:
      Degrade("crash");
      return;
    case TraceEventType::kRecover:
      Degrade("recovery");
      return;
    case TraceEventType::kTerminationStart:
      Degrade("termination engaged");
      return;
    case TraceEventType::kBlocked:
      Degrade("blocked verdict");
      return;
    case TraceEventType::kElectionWon:
      Degrade("election");
      return;
    case TraceEventType::kLinkCut:
    case TraceEventType::kLinkRestored:
      Degrade("link topology change");
      return;
    case TraceEventType::kGlobalState:
    case TraceEventType::kInvariantViolation:
      return;  // Observer chatter; not part of the execution itself.
  }
}

void ConformanceChecker::OnStateChange(const TraceEvent& e) {
  if (degraded_) return;
  size_t i = e.site - 1;
  SiteMirror& sm = sites_[i];

  const CompiledRole& role = roles_[i];
  auto predicted = PredictNextFiring(role, mirror_.local[i], sm.inbox,
                                     votes_[i], sm.vote_cast);
  if (!predicted.has_value()) {
    AddDivergence(ConformanceIssueKind::kUnexplainedTransition, e,
                  "no enabled transition of the spec explains moving to '" +
                      e.detail + "'");
    Degrade("mirror lost");
    return;
  }
  const Automaton& a = role.automaton();
  const CompiledRole::Step& step = role.step(predicted->step);
  const Transition& t = a.transitions()[step.transition];
  std::span<const CompiledRole::Send> sends = role.SendsOf(step);
  if (a.state(t.to).name != e.detail) {
    AddDivergence(ConformanceIssueKind::kTransitionMismatch, e,
                  "spec fires '" + t.Label() + "' into '" + a.state(t.to).name +
                      "' but the implementation entered '" + e.detail + "'");
    Degrade("mirror lost");
    return;
  }

  // Vote check. The runtime traces only the site's first cast (later
  // re-affirmations are suppressed), so a vote event is expected exactly
  // when this transition casts and none was cast before.
  bool casts_vote = predicted->self_vote ||
                    t.trigger.kind != TriggerKind::kAnyFrom;
  bool votes_now = casts_vote && (t.votes_yes || t.votes_no);
  if (votes_now && !sm.vote_cast) {
    if (!sm.observed_vote.has_value() ||
        *sm.observed_vote != t.votes_yes) {
      AddDivergence(
          ConformanceIssueKind::kVoteMismatch, e,
          std::string("transition casts '") + (t.votes_yes ? "yes" : "no") +
              "' but the implementation " +
              (sm.observed_vote.has_value()
                   ? std::string("cast '") +
                         (*sm.observed_vote ? "yes" : "no") + "'"
                   : std::string("cast no vote")));
    }
  } else if (sm.observed_vote.has_value()) {
    AddDivergence(ConformanceIssueKind::kVoteMismatch, e,
                  "implementation cast a vote on a non-voting transition");
  }

  // Send check: the spec's non-self sends (self-delivery bypasses the
  // network and produces no events) against what the network observed
  // since the last state change, as multisets.
  std::vector<std::pair<std::string, SiteId>> expected_sends;
  for (const CompiledRole::Send& send : sends) {
    for (SiteId target : role.Sites(send.to)) {
      if (target != e.site) {
        expected_sends.emplace_back(*send.type_name, target);
      }
    }
  }
  std::vector<std::pair<std::string, SiteId>> observed = sm.observed_sends;
  std::sort(expected_sends.begin(), expected_sends.end());
  std::sort(observed.begin(), observed.end());
  if (expected_sends != observed) {
    std::ostringstream detail;
    detail << "transition '" << t.Label() << "' sends [";
    for (const auto& [type, to] : expected_sends) {
      detail << ' ' << type << "->" << to;
    }
    detail << " ] but the implementation sent [";
    for (const auto& [type, to] : observed) {
      detail << ' ' << type << "->" << to;
    }
    detail << " ]";
    AddDivergence(ConformanceIssueKind::kSendMismatch, e, detail.str());
  }
  sm.observed_vote.reset();
  sm.observed_sends.clear();

  // Apply the firing to the mirror, exactly as the model's ApplyFiring:
  // consume, advance, record the vote, add every send (self included) to
  // the outstanding multiset.
  role.Consume(*predicted, sm.inbox);
  const std::string& type = role.TypeName(predicted->type);
  for (SiteId from : predicted->consumed) {
    MsgInstance inst{type, from, e.site};
    auto mit = mirror_.messages.find(inst);
    if (mit == mirror_.messages.end()) {
      AddDivergence(ConformanceIssueKind::kUnexplainedTransition, e,
                    "consumed message " + type + " not outstanding");
      Degrade("mirror lost");
      return;
    }
    if (--mit->second == 0) mirror_.messages.erase(mit);
  }
  mirror_.local[i] = t.to;
  ++mirror_.steps[i];
  bool apply_votes = predicted->self_vote ||
                     t.trigger.kind != TriggerKind::kAnyFrom;
  if (apply_votes && (t.votes_yes || t.votes_no)) {
    mirror_.votes[i] = t.votes_yes ? Vote::kYes : Vote::kNo;
    sm.vote_cast = true;
  }
  for (const CompiledRole::Send& send : sends) {
    for (SiteId target : role.Sites(send.to)) {
      ++mirror_.messages[MsgInstance{*send.type_name, e.site, target}];
      if (target == e.site && send.type != CompiledRole::kNoType) {
        sm.inbox[role.Slot(send.type, e.site)] += 1;
      }
    }
  }
  if (IsFinal(a.state(t.to).kind) && !sm.decided) {
    sm.decided = true;
    // The engine discards buffered input on decision.
    std::fill(sm.inbox.begin(), sm.inbox.end(), 0);
  }
  ++firings_;
  CheckMirror(e);
}

void ConformanceChecker::CheckMirror(const TraceEvent& e) {
  auto it = node_index_.find(mirror_.Key());
  if (it == node_index_.end()) {
    AddDivergence(ConformanceIssueKind::kUnknownState, e,
                  "reached global state " + mirror_.ToString(*spec_) +
                      " which is not in the reachable-state graph");
  } else {
    visited_.insert(it->second);
  }

  if (mirror_.IsInconsistent(*spec_)) {
    AddViolation(ConformanceIssueKind::kAtomicityViolation, e.at, e.site,
                 "commit and abort coexist in " + mirror_.ToString(*spec_));
  }
  bool commit_occupied = false;
  for (size_t j = 0; j < n_; ++j) {
    SiteId site = static_cast<SiteId>(j + 1);
    if (RoleOf(site).state(mirror_.local[j]).kind == StateKind::kCommit) {
      commit_occupied = true;
      break;
    }
  }
  if (commit_occupied) {
    for (size_t j = 0; j < n_; ++j) {
      SiteId site = static_cast<SiteId>(j + 1);
      if (!RoleOf(site).CanVote()) continue;  // Implicit assent (e.g. 1PC).
      if (mirror_.votes[j] != Vote::kYes) {
        AddViolation(ConformanceIssueKind::kCommitWithoutYes, e.at, site,
                     "commit state occupied while site " +
                         std::to_string(site) + " has not voted yes");
        break;
      }
    }
  }
}

void ConformanceChecker::Finish(bool expect_decided) {
  if (finished_) return;
  finished_ = true;
  if (degraded_) {
    // The failure-free mirror is gone, but atomicity of the observed
    // outcomes must hold under failures too.
    bool committed = false;
    bool aborted = false;
    for (const SiteMirror& sm : sites_) {
      if (sm.observed_outcome == Outcome::kCommitted) committed = true;
      if (sm.observed_outcome == Outcome::kAborted) aborted = true;
    }
    if (committed && aborted) {
      AddViolation(ConformanceIssueKind::kAtomicityViolation, 0, kNoSite,
                   "sites decided both commit and abort");
    }
    return;
  }
  if (expect_decided) {
    for (size_t i = 0; i < n_; ++i) {
      SiteId site = static_cast<SiteId>(i + 1);
      if (!IsFinal(RoleOf(site).state(mirror_.local[i]).kind)) {
        AddViolation(ConformanceIssueKind::kUndecidedTerminal, 0, site,
                     "run went quiescent with site " + std::to_string(site) +
                         " undecided in " + mirror_.ToString(*spec_));
        break;
      }
    }
  }
}

std::string OrbitKey(const SiteSymmetry& symmetry, const GlobalState& g) {
  size_t n = symmetry.n;
  // Group permutable sites by class.
  std::map<int, std::vector<SiteId>> classes;
  for (size_t i = 0; i < n; ++i) {
    classes[symmetry.classes[i]].push_back(static_cast<SiteId>(i + 1));
  }
  // Odometer over per-class permutations. Each class's member list is
  // permuted independently; the product of all per-class arrangements is
  // the full class-preserving permutation group.
  std::vector<std::vector<SiteId>> originals;
  std::vector<std::vector<SiteId>> current;
  for (auto& [cls, members] : classes) {
    (void)cls;
    originals.push_back(members);
    current.push_back(members);
  }
  std::string best;
  while (true) {
    SitePermutation perm(n);
    for (size_t c = 0; c < originals.size(); ++c) {
      for (size_t k = 0; k < originals[c].size(); ++k) {
        perm[originals[c][k] - 1] = current[c][k];
      }
    }
    std::string key = PermuteGlobalState(g, perm).Key();
    if (best.empty() || key < best) best = key;
    // Advance the odometer.
    size_t c = 0;
    for (; c < current.size(); ++c) {
      if (std::next_permutation(current[c].begin(), current[c].end())) break;
      // Wrapped to sorted order; carry into the next class.
    }
    if (c == current.size()) break;
  }
  return best;
}

}  // namespace nbcp
