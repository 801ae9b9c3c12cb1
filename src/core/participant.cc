#include "core/participant.h"

#include <utility>

#include "common/logging.h"
#include "election/bully.h"
#include "election/ring.h"
#include "obs/metrics_registry.h"
#include "obs/span.h"

namespace nbcp {

Participant::Participant(SiteId site, const ProtocolSpec* spec, size_t n,
                         Clock* clock, Transport* network,
                         FailureDetector* detector,
                         const ConcurrencyAnalysis* analysis,
                         std::function<SiteId(SiteId)> analysis_site_map,
                         ParticipantConfig config)
    : site_(site),
      spec_(spec),
      n_(n),
      clock_(clock),
      network_(network),
      detector_(detector),
      analysis_(analysis),
      analysis_site_map_(std::move(analysis_site_map)),
      config_(config) {
  if (!analysis_site_map_) {
    analysis_site_map_ = [](SiteId s) { return s; };
  }
  // Build the volatile components.
  Recover();
  crashed_ = false;
}

std::vector<SiteId> Participant::AliveSites() const {
  std::vector<SiteId> out;
  for (SiteId s = 1; s <= n_; ++s) {
    if (!detector_->IsSuspectedBy(site_, s)) out.push_back(s);
  }
  return out;
}

Status Participant::Attach() {
  Status s = network_->RegisterSite(
      site_, [this](const Message& m) { OnNetMessage(m); });
  if (!s.ok()) return s;
  detector_->Subscribe(
      site_, [this](SiteId subject, bool up) { OnSiteStatus(subject, up); });
  return Status::OK();
}

void Participant::SetVote(TransactionId txn, bool vote) {
  Record(txn).preset_vote = vote;
}

Status Participant::SubmitLocalOps(TransactionId txn,
                                   const std::vector<KvOp>& ops) {
  if (crashed_) return Status::Unavailable("site is down");
  auto [it, inserted] = locals_.try_emplace(txn);
  if (!inserted) return Status::AlreadyExists("ops already submitted");
  it->second =
      std::make_unique<LocalTransaction>(txn, kv_.get(), locks_.get());
  Status s = it->second->Execute(ops);
  if (!s.ok()) {
    // Execution failed (e.g. lock conflict): the site will vote no.
    Record(txn).preset_vote = false;
    locals_.erase(it);
  }
  return s;
}

void Participant::set_obs(MetricsRegistry* metrics, SpanCollector* spans) {
  metrics_ = metrics;
  spans_ = spans;
  if (election_) election_->set_metrics(metrics_);
  if (termination_) termination_->set_metrics(metrics_);
}

Status Participant::StartProtocol(TransactionId txn) {
  if (crashed_) return Status::Unavailable("site is down");
  Trace(txn, TraceEventType::kProtocolStart);
  if (spans_ != nullptr) {
    spans_->Begin(txn, site_, CommitPhase::kVoteRequest, clock_->now());
  }
  Status started = engine_->StartTransaction(txn);
  if (!started.ok()) return started;

  // A transaction launched while some participant is already known to be
  // down cannot complete normally (every site takes part in every
  // transaction); hand it to the termination protocol right away, which
  // aborts it from the initial states. HandleFailure only covers
  // transactions that existed when the failure was reported.
  for (SiteId s = 1; s <= n_; ++s) {
    if (s == site_ || !detector_->IsSuspectedBy(site_, s)) continue;
    if (spec_->paradigm() == Paradigm::kDecentralized) {
      termination_->Initiate(txn);
    } else if (site_ == 1) {
      termination_->InitiateAsBackup(txn);
    }
    break;
  }
  return Status::OK();
}

void Participant::Trace(TransactionId txn, TraceEventType type,
                        std::string detail) const {
  if (trace_ != nullptr) {
    trace_->Record(clock_->now(), site_, txn, type, std::move(detail));
  }
}

bool Participant::VoteFor(TransactionId txn) {
  auto local = locals_.find(txn);
  if (local != locals_.end()) {
    if (!local->second->executed()) return false;
    // Voting yes is an unconditional promise: force the staged writes to
    // stable storage first.
    return local->second->Prepare().ok();
  }
  return Record(txn).preset_vote.value_or(true);
}

void Participant::OnVoteCast(TransactionId txn, bool yes) {
  TxnRecord& record = Record(txn);
  if (!record.start_logged) {
    dt_log_.Append(txn, DtLogEvent::kStart);
    record.start_logged = true;
  }
  if (!record.vote_logged) {
    dt_log_.Append(txn, yes ? DtLogEvent::kVoteYes : DtLogEvent::kVoteNo);
    record.vote_logged = true;
    Trace(txn, TraceEventType::kVoteCast, yes ? "yes" : "no");
    if (spans_ != nullptr) {
      spans_->Begin(txn, site_, CommitPhase::kVote, clock_->now());
    }
  }
}

void Participant::OnStateChange(TransactionId txn, const LocalState& state) {
  TxnRecord& record = Record(txn);
  if (!record.start_logged) {
    dt_log_.Append(txn, DtLogEvent::kStart);
    record.start_logged = true;
  }
  if (state.kind == StateKind::kBuffer && !dt_log_.WasPrepared(txn)) {
    dt_log_.Append(txn, DtLogEvent::kPrepared);
  }
  if (spans_ != nullptr && (state.kind == StateKind::kBuffer ||
                            state.kind == StateKind::kAbortBuffer)) {
    spans_->Begin(txn, site_, CommitPhase::kPrecommit, clock_->now());
  }
  Trace(txn, TraceEventType::kStateChange, state.name);
}

void Participant::OnDecision(TransactionId txn, Outcome outcome) {
  TxnRecord& record = Record(txn);
  record.outcome = outcome;
  record.decision_time = clock_->now();
  record.blocked = false;
  if (!dt_log_.OutcomeOf(txn).has_value()) {
    dt_log_.Append(txn, outcome == Outcome::kCommitted ? DtLogEvent::kCommit
                                                       : DtLogEvent::kAbort);
  }
  Trace(txn, TraceEventType::kDecision, ToString(outcome));
  if (spans_ != nullptr) spans_->MarkDecision(txn, site_, clock_->now());
  ApplyOutcomeToDb(txn, outcome);
}

void Participant::ApplyOutcomeToDb(TransactionId txn, Outcome outcome) {
  auto local = locals_.find(txn);
  if (local != locals_.end()) {
    if (outcome == Outcome::kCommitted) {
      // 1PC-style flows may decide commit without a vote phase; the staged
      // writes must still be made durable before applying.
      Status prep = local->second->Prepare();
      if (!prep.ok()) {
        NBCP_LOG(kWarn) << "site " << site_ << " txn " << txn
                        << " prepare-at-commit failed: " << prep.ToString();
      }
      (void)local->second->Commit();
    } else {
      (void)local->second->Abort();
    }
    locals_.erase(local);
    return;
  }
  if (kv_->IsActive(txn)) {
    // Re-staged after recovery (no LocalTransaction object survives).
    if (outcome == Outcome::kCommitted) {
      (void)kv_->Commit(txn);
    } else {
      (void)kv_->Abort(txn);
    }
    locks_->Release(txn);
  }
}

void Participant::ArmSendTrap(TransactionId txn, std::string msg_type,
                              size_t allow, std::function<void()> on_trip) {
  send_traps_[txn] =
      SendTrap{std::move(msg_type), allow, 0, std::move(on_trip), false};
}

void Participant::OnNetMessage(const Message& message) {
  if (crashed_) return;
  const std::string& type = message.type;
  if (BullyElection::OwnsMessage(type) || RingElection::OwnsMessage(type)) {
    election_->OnMessage(message);
    return;
  }
  if (TerminationProtocol::OwnsMessage(type)) {
    termination_->OnMessage(message);
    return;
  }
  if (RecoveryManager::OwnsMessage(type)) {
    recovery_->OnMessage(message);
    return;
  }
  if (spans_ != nullptr && message.txn != kNoTransaction &&
      !engine_->HasTransaction(message.txn)) {
    // First protocol message about this transaction: the site's
    // vote-request phase starts when the request reaches it.
    spans_->Begin(message.txn, site_, CommitPhase::kVoteRequest, clock_->now());
  }
  engine_->OnMessage(message);
}

void Participant::HandleFailure(SiteId failed) {
  termination_->OnSiteFailure(failed);
  for (TransactionId txn : engine_->UndecidedTransactions()) {
    if (spec_->paradigm() == Paradigm::kCentralSite) {
      if (failed == 1) {
        // The coordinator died: the slaves terminate via election.
        termination_->Initiate(txn);
      } else if (site_ == 1) {
        // A slave died while we (the coordinator) direct the protocol: we
        // are the natural backup, no election needed.
        termination_->InitiateAsBackup(txn);
      }
    } else {
      termination_->Initiate(txn);
    }
  }
}

void Participant::HandleRecoveryOf(SiteId recovered) {
  (void)recovered;
  // A site came back: it may know (or have unilaterally resolved) the
  // outcome of transactions we are blocked on — rerun termination.
  for (TransactionId txn : engine_->UndecidedTransactions()) {
    if (IsBlocked(txn)) termination_->Initiate(txn);
  }
}

void Participant::OnSiteStatus(SiteId subject, bool up) {
  if (crashed_) return;
  if (up) {
    HandleRecoveryOf(subject);
  } else {
    HandleFailure(subject);
  }
}

Outcome Participant::OutcomeOf(TransactionId txn) const {
  auto it = records_.find(txn);
  if (it != records_.end() && it->second.outcome.has_value()) {
    return *it->second.outcome;
  }
  auto logged = dt_log_.OutcomeOf(txn);
  if (logged.has_value()) return *logged;
  if (engine_) return engine_->OutcomeOf(txn);
  return Outcome::kUndecided;
}

bool Participant::KnowsTransaction(TransactionId txn) const {
  if (dt_log_.Knows(txn)) return true;
  if (engine_ && engine_->HasTransaction(txn)) return true;
  auto it = records_.find(txn);
  return it != records_.end() && it->second.outcome.has_value();
}

bool Participant::IsBlocked(TransactionId txn) const {
  if (OutcomeOf(txn) != Outcome::kUndecided) return false;
  auto it = records_.find(txn);
  if (it != records_.end() && it->second.blocked) return true;
  return termination_ && termination_->IsBlocked(txn);
}

bool Participant::UsedTermination(TransactionId txn) const {
  auto it = records_.find(txn);
  return it != records_.end() && it->second.via_termination;
}

std::optional<SimTime> Participant::DecisionTime(TransactionId txn) const {
  auto it = records_.find(txn);
  if (it == records_.end() || !it->second.outcome.has_value()) {
    return std::nullopt;
  }
  return it->second.decision_time;
}

StateKind Participant::CurrentKind(TransactionId txn) const {
  if (crashed_ || !engine_) return StateKind::kInitial;
  return engine_->CurrentKind(txn);
}

void Participant::Crash() {
  Trace(kNoTransaction, TraceEventType::kCrash);
  crashed_ = true;
  engine_.reset();
  kv_.reset();
  locks_.reset();
  election_.reset();
  termination_.reset();
  recovery_.reset();
  send_traps_.clear();
  locals_.clear();  // They point into the destroyed store and locks.
}

void Participant::Recover() {
  if (crashed_) Trace(kNoTransaction, TraceEventType::kRecover);
  crashed_ = false;

  kv_ = std::make_unique<KvStore>(&wal_);
  locks_ = std::make_unique<LockManager>();
  engine_ = std::make_unique<ProtocolEngine>(site_, spec_, n_, network_);

  EngineHooks hooks;
  hooks.vote = [this](TransactionId txn) { return VoteFor(txn); };
  hooks.on_vote_cast = [this](TransactionId txn, bool yes) {
    OnVoteCast(txn, yes);
  };
  hooks.on_state_change = [this](TransactionId txn, const LocalState& s) {
    OnStateChange(txn, s);
  };
  hooks.on_decision = [this](TransactionId txn, Outcome outcome) {
    OnDecision(txn, outcome);
  };
  // Transactions with a logged outcome are final without being re-decided:
  // their decision time, trace events and spans stay as first recorded.
  hooks.durable_outcome = [this](TransactionId txn) {
    return dt_log_.OutcomeOf(txn);
  };
  hooks.send_filter = [this](TransactionId txn, const Message& m,
                             size_t index, size_t total) {
    (void)index;
    (void)total;
    auto it = send_traps_.find(txn);
    if (it == send_traps_.end() || it->second.tripped) return true;
    SendTrap& trap = it->second;
    if (m.type != trap.msg_type) return true;
    if (trap.sent < trap.allow) {
      ++trap.sent;
      return true;
    }
    trap.tripped = true;
    if (trap.on_trip) clock_->ScheduleTimer(0, site_, trap.on_trip);
    return false;
  };
  engine_->set_hooks(std::move(hooks));

  auto alive = [this]() { return AliveSites(); };
  auto on_elected = [this](TransactionId tag, SiteId leader) {
    Trace(tag, TraceEventType::kElectionWon, std::to_string(leader));
    if (termination_) termination_->OnElected(tag, leader);
  };
  if (config_.use_ring_election) {
    election_ = std::make_unique<RingElection>(site_, clock_, network_, alive,
                                               on_elected, config_.election);
  } else {
    election_ = std::make_unique<BullyElection>(site_, clock_, network_, alive,
                                                on_elected, config_.election);
  }

  TerminationHooks term_hooks;
  term_hooks.current_state = [this](TransactionId txn) {
    auto state = engine_->CurrentState(txn);
    return state.ok() ? engine_->automaton().FindState(state->name)
                      : engine_->automaton().initial_state();
  };
  term_hooks.analysis_site = analysis_site_map_;
  term_hooks.freeze = [this](TransactionId txn) {
    if (!engine_->IsFrozen(txn)) {
      Trace(txn, TraceEventType::kTerminationStart);
    }
    TxnRecord& record = Record(txn);
    if (!record.termination_start.has_value()) {
      record.termination_start = clock_->now();
      if (spans_ != nullptr) {
        spans_->BeginTermination(txn, site_, clock_->now());
      }
    }
    engine_->Freeze(txn);
  };
  term_hooks.force_kind = [this](TransactionId txn, StateKind kind) {
    return engine_->ForceToKind(txn, kind);
  };
  term_hooks.force_outcome = [this](TransactionId txn, Outcome outcome) {
    return engine_->ForceOutcome(txn, outcome);
  };
  term_hooks.is_decided = [this](TransactionId txn) {
    return engine_->OutcomeOf(txn) != Outcome::kUndecided;
  };
  term_hooks.alive_sites = alive;
  term_hooks.on_terminated = [this](TransactionId txn, Outcome outcome) {
    TxnRecord& record = Record(txn);
    record.via_termination = true;
    record.blocked = false;
    Trace(txn, TraceEventType::kTerminationDecide, ToString(outcome));
    if (spans_ != nullptr) spans_->EndTermination(txn, site_, clock_->now());
  };
  term_hooks.on_blocked = [this](TransactionId txn) {
    Record(txn).blocked = true;
    Trace(txn, TraceEventType::kBlocked);
  };
  TerminationConfig term_config = config_.termination;
  term_config.num_sites = n_;
  // A protocol with a "prepare to abort" buffer state is a quorum protocol:
  // its termination must be quorum-gated to deliver the partition safety
  // the extra state pays for.
  for (const LocalState& s : spec_->role(spec_->RoleForSite(site_, n_)).states()) {
    if (s.kind == StateKind::kAbortBuffer) term_config.quorum_mode = true;
  }
  termination_ = std::make_unique<TerminationProtocol>(
      site_, clock_, network_, election_.get(), analysis_,
      std::move(term_hooks), term_config);

  RecoveryHooks rec_hooks;
  rec_hooks.alive_sites = alive;
  rec_hooks.apply_outcome = [this](TransactionId txn, Outcome outcome) {
    Status s = engine_->ForceOutcome(txn, outcome);
    if (!s.ok()) {
      NBCP_LOG(kWarn) << "site " << site_ << " recovery of txn " << txn
                      << ": " << s.ToString();
    }
  };
  rec_hooks.lookup_outcome =
      [this](TransactionId txn) -> std::optional<Outcome> {
    // The engine reads logged outcomes through its durable_outcome hook.
    Outcome outcome = engine_->OutcomeOf(txn);
    if (outcome == Outcome::kUndecided) return std::nullopt;
    return outcome;
  };
  rec_hooks.on_unresolved = [this](TransactionId txn) {
    Record(txn).blocked = true;
    // Nobody answered the outcome queries. Fall back to the termination
    // protocol: if every site has recovered by now (total failure), the
    // backup's complete view of the durable states resolves the
    // transaction; otherwise the session blocks until more sites return.
    termination_->Initiate(txn);
  };
  recovery_ = std::make_unique<RecoveryManager>(
      site_, clock_, network_, &dt_log_, std::move(rec_hooks),
      config_.recovery);

  // Rebuild database state from the WAL: committed transactions reapplied,
  // in-doubt ones re-staged prepared. A transaction re-staged although the
  // DT log holds its outcome gets that outcome applied now. One still in
  // doubt re-takes the exclusive locks on its writes (strict two-phase
  // locking); ApplyOutcomeToDb releases them once its outcome is known.
  auto in_doubt_kv = kv_->RecoverFromWal();
  if (!in_doubt_kv.ok()) {
    NBCP_LOG(kError) << "site " << site_
                     << " WAL recovery failed: "
                     << in_doubt_kv.status().ToString();
  } else {
    for (TransactionId txn : *in_doubt_kv) {
      std::optional<Outcome> outcome = dt_log_.OutcomeOf(txn);
      if (outcome.has_value()) {
        ApplyOutcomeToDb(txn, *outcome);
        continue;
      }
      for (const std::string& key : kv_->WriteKeys(txn)) {
        Status s = locks_->TryAcquire(txn, key, LockMode::kExclusive);
        if (!s.ok()) {
          NBCP_LOG(kError) << "site " << site_ << " txn " << txn
                           << " re-lock failed: " << s.ToString();
        }
      }
    }
  }

  // Rebuild the positions of in-doubt transactions from the DT log so this
  // site answers termination state queries consistently. Transactions with
  // a logged outcome need nothing: the engine reads them as final.
  const Automaton& automaton = engine_->automaton();
  bool has_buffer = false;
  for (const LocalState& s : automaton.states()) {
    if (s.kind == StateKind::kBuffer) has_buffer = true;
  }
  for (TransactionId txn : dt_log_.InDoubt()) {
    StateKind kind = dt_log_.WasPrepared(txn) && has_buffer
                         ? StateKind::kBuffer
                         : StateKind::kWait;
    (void)engine_->ForceToKind(txn, kind);
  }

  // Observability attachments do not survive the volatile components.
  election_->set_metrics(metrics_);
  termination_->set_metrics(metrics_);

  // Resolve in-doubt transactions with the distributed recovery protocol.
  recovery_->StartRecovery();
}

std::optional<SimTime> Participant::TerminationStartTime(
    TransactionId txn) const {
  auto it = records_.find(txn);
  if (it == records_.end()) return std::nullopt;
  return it->second.termination_start;
}

}  // namespace nbcp
