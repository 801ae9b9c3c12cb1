#include "protocols/engine.h"

#include <algorithm>

#include "common/logging.h"

namespace nbcp {

ProtocolEngine::ProtocolEngine(SiteId site, const ProtocolSpec* spec,
                               size_t n, Transport* network)
    : site_(site), spec_(spec), role_(*spec, site, n), network_(network) {
  // The same states ForceToKind picks: the first of each final kind.
  const Automaton& a = automaton();
  for (size_t s = 0; s < a.num_states(); ++s) {
    StateKind kind = a.state(static_cast<StateIndex>(s)).kind;
    if (kind == StateKind::kCommit && commit_state_ == kNoState) {
      commit_state_ = static_cast<StateIndex>(s);
    }
    if (kind == StateKind::kAbort && abort_state_ == kNoState) {
      abort_state_ = static_cast<StateIndex>(s);
    }
  }
}

ProtocolEngine::TxnState& ProtocolEngine::GetOrCreate(TransactionId txn) {
  auto [it, inserted] = txns_.try_emplace(txn);
  if (inserted) {
    StateIndex logged = LoggedFinalState(txn);
    if (logged != kNoState) {
      it->second.state = logged;
      it->second.decided = true;
    } else {
      it->second.state = automaton().initial_state();
      if (maybe_undecided_.size() >= compact_at_) {
        std::erase_if(maybe_undecided_, [this](TransactionId t) {
          return txns_.at(t).decided;
        });
        compact_at_ = std::max<size_t>(64, 2 * maybe_undecided_.size());
      }
      maybe_undecided_.push_back(txn);
    }
  }
  return it->second;
}

StateIndex ProtocolEngine::LoggedFinalState(TransactionId txn) const {
  if (!hooks_.durable_outcome) return kNoState;
  std::optional<Outcome> outcome = hooks_.durable_outcome(txn);
  if (!outcome.has_value()) return kNoState;
  switch (*outcome) {
    case Outcome::kCommitted:
      return commit_state_;
    case Outcome::kAborted:
      return abort_state_;
    case Outcome::kUndecided:
      break;
  }
  return kNoState;
}

StateIndex ProtocolEngine::StateOf(TransactionId txn) const {
  auto it = txns_.find(txn);
  return it != txns_.end() ? it->second.state : LoggedFinalState(txn);
}

Status ProtocolEngine::StartTransaction(TransactionId txn) {
  TxnState& ts = GetOrCreate(txn);
  if (ts.decided) {
    return Status::FailedPrecondition("transaction already decided");
  }
  if (IsFrozen(txn)) {
    return Status::FailedPrecondition("transaction frozen by termination");
  }
  Buffer(ts, CompiledRole::kRequestType, kNoSite);
  Pump(txn, ts);
  return Status::OK();
}

void ProtocolEngine::OnMessage(const Message& message) {
  if (IsFrozen(message.txn)) return;  // Termination protocol has taken over.
  TxnState& ts = GetOrCreate(message.txn);
  if (ts.decided) return;  // Late messages to a finished transaction.
  CompiledRole::TypeId type = role_.Intern(message.type);
  if (type != CompiledRole::kNoType && role_.ValidSender(message.from)) {
    Buffer(ts, type, message.from);
  }
  Pump(message.txn, ts);
}

void ProtocolEngine::Buffer(TxnState& ts, CompiledRole::TypeId type,
                            SiteId from) {
  if (ts.inbox.empty()) ts.inbox.resize(role_.inbox_size());
  ++ts.inbox[role_.Slot(type, from)];
}

bool ProtocolEngine::HasTransaction(TransactionId txn) const {
  return StateOf(txn) != kNoState;
}

Result<LocalState> ProtocolEngine::CurrentState(TransactionId txn) const {
  StateIndex state = StateOf(txn);
  if (state == kNoState) return Status::NotFound("unknown transaction");
  return automaton().state(state);
}

StateKind ProtocolEngine::CurrentKind(TransactionId txn) const {
  StateIndex state = StateOf(txn);
  if (state == kNoState) return StateKind::kInitial;
  return automaton().state(state).kind;
}

Outcome ProtocolEngine::OutcomeOf(TransactionId txn) const {
  switch (CurrentKind(txn)) {
    case StateKind::kCommit:
      return Outcome::kCommitted;
    case StateKind::kAbort:
      return Outcome::kAborted;
    default:
      return Outcome::kUndecided;
  }
}

std::optional<bool> ProtocolEngine::VoteCast(TransactionId txn) const {
  auto it = txns_.find(txn);
  if (it == txns_.end() || !it->second.vote_cast) return std::nullopt;
  return it->second.vote;
}

bool ProtocolEngine::VoteOf(TransactionId txn, TxnState& ts) {
  if (!ts.vote.has_value()) {
    ts.vote = hooks_.vote ? hooks_.vote(txn) : true;
  }
  return *ts.vote;
}

void ProtocolEngine::EnterState(TransactionId txn, TxnState& ts,
                                StateIndex next) {
  ts.state = next;
  const LocalState& state = automaton().state(next);
  NBCP_LOG(kTrace) << "site " << site_ << " txn " << txn << " -> "
                   << state.name;
  if (hooks_.on_state_change) hooks_.on_state_change(txn, state);
  if (IsFinal(state.kind) && !ts.decided) {
    ts.decided = true;
    std::vector<uint32_t>().swap(ts.inbox);
    if (hooks_.on_decision) {
      hooks_.on_decision(txn, state.kind == StateKind::kCommit
                                  ? Outcome::kCommitted
                                  : Outcome::kAborted);
    }
  }
}

void ProtocolEngine::Fire(TransactionId txn, TxnState& ts,
                          const CompiledRole::Firing& firing) {
  role_.Consume(firing, ts.inbox);
  const CompiledRole::Step& t = role_.step(firing.step);

  bool casts_vote = firing.self_vote || t.kind != TriggerKind::kAnyFrom;
  if (casts_vote && (t.votes_yes || t.votes_no)) {
    ts.vote = t.votes_yes;
    ts.vote_cast = true;
    if (hooks_.on_vote_cast) hooks_.on_vote_cast(txn, t.votes_yes);
  }

  // Emit messages. The send_filter hook may truncate the sequence,
  // simulating a crash in the middle of the (non-atomic under failures)
  // state transition.
  size_t index = 0;
  bool truncated = false;
  for (const CompiledRole::Send& send : role_.SendsOf(t)) {
    for (SiteId target : role_.Sites(send.to)) {
      Message m;
      m.type = *send.type_name;
      m.from = site_;
      m.to = target;
      m.txn = txn;
      if (hooks_.send_filter &&
          !hooks_.send_filter(txn, m, index, t.num_targets)) {
        truncated = true;
        break;
      }
      ++index;
      if (target == site_) {
        // Self-delivery is immediate and local (the decentralized model has
        // sites send messages to themselves); bypass the network but count
        // it as buffered input.
        if (send.type != CompiledRole::kNoType) Buffer(ts, send.type, site_);
        continue;
      }
      Status s = network_->Send(std::move(m));
      if (!s.ok()) {
        NBCP_LOG(kDebug) << "site " << site_ << " send failed: "
                         << s.ToString();
      }
    }
    if (truncated) break;
  }

  EnterState(txn, ts, t.to);
}

bool ProtocolEngine::TryFireOne(TransactionId txn, TxnState& ts) {
  std::optional<CompiledRole::Firing> firing = role_.NextFiring(
      ts.state, ts.inbox, ts.vote_cast, [&] { return VoteOf(txn, ts); });
  if (!firing.has_value()) return false;
  Fire(txn, ts, *firing);
  return true;
}

void ProtocolEngine::Pump(TransactionId txn, TxnState& ts) {
  while (TryFireOne(txn, ts)) {
  }
}

Status ProtocolEngine::ForceToKind(TransactionId txn, StateKind kind) {
  TxnState& ts = GetOrCreate(txn);
  const Automaton& a = automaton();
  const LocalState& current = a.state(ts.state);
  if (current.kind == kind) return Status::OK();
  if (IsFinal(current.kind)) {
    return Status::FailedPrecondition(
        "cannot move site out of final state '" + current.name + "'");
  }
  for (size_t s = 0; s < a.num_states(); ++s) {
    if (a.state(static_cast<StateIndex>(s)).kind == kind) {
      EnterState(txn, ts, static_cast<StateIndex>(s));
      return Status::OK();
    }
  }
  return Status::NotFound("role has no state of the requested kind");
}

Status ProtocolEngine::ForceOutcome(TransactionId txn, Outcome outcome) {
  if (outcome == Outcome::kUndecided) {
    return Status::InvalidArgument("cannot force an undecided outcome");
  }
  TxnState& ts = GetOrCreate(txn);
  StateKind want = outcome == Outcome::kCommitted ? StateKind::kCommit
                                                  : StateKind::kAbort;
  StateKind current = automaton().state(ts.state).kind;
  if (current == want) return Status::OK();
  if (IsFinal(current)) {
    return Status::FailedPrecondition(
        "transaction already decided with the opposite outcome");
  }
  return ForceToKind(txn, want);
}

void ProtocolEngine::Freeze(TransactionId txn) { frozen_.insert(txn); }

void ProtocolEngine::Clear() {
  txns_.clear();
  maybe_undecided_.clear();
  compact_at_ = 0;
  frozen_.clear();
}

std::vector<TransactionId> ProtocolEngine::UndecidedTransactions() const {
  std::vector<TransactionId> out;
  for (TransactionId txn : maybe_undecided_) {
    if (!txns_.at(txn).decided) out.push_back(txn);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace nbcp
