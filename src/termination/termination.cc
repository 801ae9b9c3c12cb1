#include "termination/termination.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics_registry.h"
#include "termination/backup_coordinator.h"

namespace nbcp {
namespace {
const char kStateReq[] = "term:state-req";
const char kStateRep[] = "term:state";
const char kMove[] = "term:move";
const char kMoved[] = "term:moved";
const char kDecide[] = "term:decide";
const char kDecideReq[] = "term:decide-req";
const char kBlockedMsg[] = "term:blocked";
}  // namespace

TerminationProtocol::TerminationProtocol(
    SiteId self, Clock* clock, Transport* network, Election* election,
    const ConcurrencyAnalysis* analysis, TerminationHooks hooks,
    TerminationConfig config)
    : self_(self),
      clock_(clock),
      network_(network),
      election_(election),
      analysis_(analysis),
      hooks_(std::move(hooks)),
      config_(config) {}

bool TerminationProtocol::OwnsMessage(const std::string& type) {
  return type.rfind("term:", 0) == 0;
}

TerminationProtocol::Session& TerminationProtocol::GetSession(
    TransactionId txn) {
  return sessions_[txn];
}

void TerminationProtocol::Send(SiteId to, const std::string& type,
                               TransactionId txn, std::string payload) {
  Message m;
  m.type = type;
  m.from = self_;
  m.to = to;
  m.txn = txn;
  m.payload = std::move(payload);
  (void)network_->Send(std::move(m));
}

void TerminationProtocol::Broadcast(const std::string& type,
                                    TransactionId txn, std::string payload) {
  for (SiteId site : hooks_.alive_sites()) {
    if (site != self_) Send(site, type, txn, payload);
  }
}

void TerminationProtocol::Initiate(TransactionId txn) {
  if (hooks_.is_decided(txn)) return;
  Session& session = GetSession(txn);
  if (session.phase != Phase::kIdle && session.phase != Phase::kBlocked) {
    return;
  }
  if (session.phase == Phase::kBlocked) {
    // Re-initiation (e.g. a site recovered): run a fresh election round.
    election_->Reset(txn);
  }
  session.phase = Phase::kElecting;
  session.backup = kNoSite;
  if (metrics_ != nullptr) metrics_->counter("termination/sessions").Inc();
  NBCP_LOG_AT(kDebug, self_) << "initiating termination of txn " << txn;
  if (hooks_.freeze) hooks_.freeze(txn);
  election_->StartElection(txn);
}

void TerminationProtocol::InitiateAsBackup(TransactionId txn) {
  if (hooks_.is_decided(txn)) return;
  Session& session = GetSession(txn);
  if (session.phase != Phase::kIdle && session.phase != Phase::kBlocked &&
      session.phase != Phase::kElecting) {
    return;
  }
  if (hooks_.freeze) hooks_.freeze(txn);
  session.backup = self_;
  BeginCollect(txn);
}

void TerminationProtocol::OnElected(TransactionId txn, SiteId leader) {
  Session& session = GetSession(txn);
  if (session.phase == Phase::kDone) {
    // A straggler (e.g. from across a healed partition) elected us after
    // this session already finished: re-broadcast the decision so it can
    // adopt the outcome. Idempotent for everyone else.
    if (leader == self_ && session.decision != Outcome::kUndecided) {
      Broadcast(kDecide, txn,
                session.decision == Outcome::kCommitted ? "commit"
                                                        : "abort");
    }
    return;
  }
  session.backup = leader;
  if (leader != self_) {
    // Wait for the backup's directives; also ask explicitly, in case the
    // backup finished this termination long ago (we may be a straggler
    // from across a healed partition, and its session will not re-run).
    session.phase = Phase::kElecting;
    Send(leader, kDecideReq, txn);
    return;
  }
  BeginCollect(txn);
}

void TerminationProtocol::BeginCollect(TransactionId txn) {
  Session& session = GetSession(txn);
  session.phase = Phase::kCollecting;
  session.survivor_states.clear();
  session.survivor_states[self_] = hooks_.current_state(txn);
  Broadcast(kStateReq, txn);
  if (session.deadline != 0) clock_->Cancel(session.deadline);
  session.deadline = clock_->ScheduleTimer(
      config_.collect_timeout, self_,
      [this, txn, token = std::weak_ptr<char>(alive_token_)]() {
        if (token.expired()) return;
        Session& s = GetSession(txn);
        if (s.phase == Phase::kCollecting) DecideAndDirect(txn);
      });
  // A lone survivor decides immediately.
  if (hooks_.alive_sites().size() <= 1) DecideAndDirect(txn);
}

void TerminationProtocol::DeclareBlocked(TransactionId txn,
                                         const std::string& why) {
  Session& session = GetSession(txn);
  NBCP_LOG_AT(kDebug, self_) << "txn " << txn << " termination blocked: "
                             << why;
  session.phase = Phase::kBlocked;
  if (metrics_ != nullptr) metrics_->counter("termination/blocked").Inc();
  Broadcast(kBlockedMsg, txn);
  if (hooks_.on_blocked) hooks_.on_blocked(txn);
}

void TerminationProtocol::BeginMove(TransactionId txn, StateKind target,
                                    size_t required_acks) {
  Session& session = GetSession(txn);
  session.phase = Phase::kMoving;
  session.required_acks = required_acks;
  session.move_acks.clear();
  (void)hooks_.force_kind(txn, target);  // The backup moves itself too.
  session.move_acks.insert(self_);
  Broadcast(kMove, txn, std::to_string(static_cast<int>(target)));
  session.deadline = clock_->ScheduleTimer(
      config_.collect_timeout, self_,
      [this, txn, token = std::weak_ptr<char>(alive_token_)]() {
        if (token.expired()) return;
        Session& s = GetSession(txn);
        if (s.phase != Phase::kMoving) return;
        if (s.required_acks != 0 && s.move_acks.size() < s.required_acks) {
          // Quorum not assembled: do NOT decide — this is what keeps two
          // partition sides from diverging.
          DeclareBlocked(txn, "move quorum not reached before deadline");
          return;
        }
        BroadcastDecision(txn, s.decision);
      });
}

void TerminationProtocol::DecideAndDirect(TransactionId txn) {
  Session& session = GetSession(txn);
  if (session.phase != Phase::kCollecting) return;
  if (session.deadline != 0) {
    clock_->Cancel(session.deadline);
    session.deadline = 0;
  }
  if (config_.quorum_mode) {
    QuorumDecideAndDirect(txn);
    return;
  }

  StateIndex own_state = hooks_.current_state(txn);
  SiteId self_rep = hooks_.analysis_site ? hooks_.analysis_site(self_) : self_;
  std::vector<std::pair<SiteId, StateIndex>> survivors;
  survivors.reserve(session.survivor_states.size());
  for (const auto& [site, state] : session.survivor_states) {
    SiteId rep = hooks_.analysis_site ? hooks_.analysis_site(site) : site;
    survivors.emplace_back(rep, state);
  }
  // A report from every site in the population is a complete view: after
  // a total failure, once everyone has recovered, the assembled durable
  // states leave no room for an unseen decision.
  bool complete_view = config_.num_sites != 0 &&
                       session.survivor_states.size() == config_.num_sites;
  Result<Outcome> decision = CooperativeTerminationDecision(
      *analysis_, self_rep, own_state, survivors, complete_view);

  if (!decision.ok()) {
    DeclareBlocked(txn, decision.status().ToString());
    return;
  }
  session.decision = *decision;

  // Phase 1 can be omitted when the backup is already in a final state.
  StateKind own_kind = analysis_->graph().KindOf(self_rep, own_state);
  if (IsFinal(own_kind)) {
    BroadcastDecision(txn, session.decision);
    return;
  }
  BeginMove(txn, own_kind, /*required_acks=*/0);
}

void TerminationProtocol::QuorumDecideAndDirect(TransactionId txn) {
  Session& session = GetSession(txn);
  size_t n = config_.num_sites;
  size_t commit_quorum =
      config_.commit_quorum != 0 ? config_.commit_quorum : n / 2 + 1;
  size_t abort_quorum =
      config_.abort_quorum != 0 ? config_.abort_quorum : n / 2 + 1;

  // Classify the reachable sites' states.
  size_t prepared_commit = 0;
  bool any_commit = false;
  bool any_abort = false;
  for (const auto& [site, state] : session.survivor_states) {
    SiteId rep = hooks_.analysis_site ? hooks_.analysis_site(site) : site;
    switch (analysis_->graph().KindOf(rep, state)) {
      case StateKind::kCommit:
        any_commit = true;
        break;
      case StateKind::kAbort:
        any_abort = true;
        break;
      case StateKind::kBuffer:
        ++prepared_commit;
        break;
      default:
        break;
    }
  }
  size_t reachable = session.survivor_states.size();

  // Rule 1/2: a final state among the reachable sites decides.
  if (any_commit) {
    session.decision = Outcome::kCommitted;
    BroadcastDecision(txn, session.decision);
    return;
  }
  if (any_abort) {
    session.decision = Outcome::kAborted;
    BroadcastDecision(txn, session.decision);
    return;
  }
  // Rule 3: some site is prepared-to-commit and a commit quorum is
  // reachable: move everyone to p, decide commit once Vc sites acked.
  if (prepared_commit > 0 && reachable >= commit_quorum) {
    session.decision = Outcome::kCommitted;
    BeginMove(txn, StateKind::kBuffer, commit_quorum);
    return;
  }
  // Rule 4: nobody prepared-to-commit and an abort quorum is reachable:
  // move everyone to pa, decide abort once Va sites acked.
  if (prepared_commit == 0 && reachable >= abort_quorum) {
    session.decision = Outcome::kAborted;
    BeginMove(txn, StateKind::kAbortBuffer, abort_quorum);
    return;
  }
  // Rule 5: no quorum reachable — wait for the partition to heal or sites
  // to recover (re-initiated by the owner on up-reports).
  DeclareBlocked(txn, "no quorum reachable (" + std::to_string(reachable) +
                          " sites, need " + std::to_string(commit_quorum) +
                          "/" + std::to_string(abort_quorum) + ")");
}

void TerminationProtocol::BroadcastDecision(TransactionId txn,
                                            Outcome outcome) {
  Session& session = GetSession(txn);
  if (session.deadline != 0) {
    clock_->Cancel(session.deadline);
    session.deadline = 0;
  }
  Broadcast(kDecide, txn,
            outcome == Outcome::kCommitted ? "commit" : "abort");
  ApplyDecision(txn, outcome);
}

void TerminationProtocol::ApplyDecision(TransactionId txn, Outcome outcome) {
  Session& session = GetSession(txn);
  session.phase = Phase::kDone;
  session.decision = outcome;
  if (metrics_ != nullptr) metrics_->counter("termination/decides").Inc();
  Status s = hooks_.force_outcome(txn, outcome);
  NBCP_LOG_IF(kWarn, !s.ok())
      << "site " << self_ << " txn " << txn << " termination decision "
      << ToString(outcome) << " conflicts: " << s.ToString();
  if (hooks_.on_terminated) hooks_.on_terminated(txn, outcome);
}

void TerminationProtocol::OnMessage(const Message& message) {
  TransactionId txn = message.txn;
  Session& session = GetSession(txn);

  if (message.type == kStateReq) {
    if (hooks_.freeze) hooks_.freeze(txn);
    Send(message.from, kStateRep, txn,
         std::to_string(hooks_.current_state(txn)));
    return;
  }
  if (message.type == kStateRep) {
    if (session.phase != Phase::kCollecting) return;
    session.survivor_states[message.from] =
        static_cast<StateIndex>(std::stoi(message.payload));
    // All operational sites reported?
    bool all_in = true;
    for (SiteId site : hooks_.alive_sites()) {
      if (session.survivor_states.count(site) == 0) {
        all_in = false;
        break;
      }
    }
    if (all_in) DecideAndDirect(txn);
    return;
  }
  if (message.type == kMove) {
    if (hooks_.freeze) hooks_.freeze(txn);
    auto kind = static_cast<StateKind>(std::stoi(message.payload));
    (void)hooks_.force_kind(txn, kind);  // Final states stay put.
    Send(message.from, kMoved, txn);
    return;
  }
  if (message.type == kMoved) {
    if (session.phase != Phase::kMoving) return;
    session.move_acks.insert(message.from);
    if (session.required_acks != 0) {
      // Quorum mode: decide as soon as the quorum of sites moved.
      if (session.move_acks.size() >= session.required_acks) {
        BroadcastDecision(txn, session.decision);
      }
      return;
    }
    bool all_in = true;
    for (SiteId site : hooks_.alive_sites()) {
      if (session.move_acks.count(site) == 0) {
        all_in = false;
        break;
      }
    }
    if (all_in) BroadcastDecision(txn, session.decision);
    return;
  }
  if (message.type == kDecide) {
    Outcome outcome = message.payload == "commit" ? Outcome::kCommitted
                                                  : Outcome::kAborted;
    ApplyDecision(txn, outcome);
    return;
  }
  if (message.type == kDecideReq) {
    // A straggler asks for an already-made decision. Answer only if this
    // session concluded; an in-flight session will direct it normally.
    if (session.phase == Phase::kDone &&
        session.decision != Outcome::kUndecided) {
      Send(message.from, kDecide, txn,
           session.decision == Outcome::kCommitted ? "commit" : "abort");
    }
    return;
  }
  if (message.type == kBlockedMsg) {
    session.phase = Phase::kBlocked;
    if (hooks_.on_blocked) hooks_.on_blocked(txn);
    return;
  }
}

void TerminationProtocol::OnSiteFailure(SiteId failed) {
  // Restart any session whose backup died mid-protocol; also let sessions
  // previously blocked re-evaluate (the failure may have removed the last
  // uncertainty? it cannot — failures only lose information — but the
  // restart is harmless and keeps the logic uniform).
  std::vector<TransactionId> to_restart;
  for (auto& [txn, session] : sessions_) {
    if (session.phase == Phase::kDone) continue;
    if (session.backup == failed) to_restart.push_back(txn);
  }
  for (TransactionId txn : to_restart) {
    Session& session = sessions_[txn];
    session.phase = Phase::kIdle;
    session.backup = kNoSite;
    election_->Reset(txn);
    Initiate(txn);
  }
}

bool TerminationProtocol::IsBlocked(TransactionId txn) const {
  auto it = sessions_.find(txn);
  return it != sessions_.end() && it->second.phase == Phase::kBlocked;
}

SiteId TerminationProtocol::Backup(TransactionId txn) const {
  auto it = sessions_.find(txn);
  return it == sessions_.end() ? kNoSite : it->second.backup;
}

void TerminationProtocol::Clear() { sessions_.clear(); }

}  // namespace nbcp
