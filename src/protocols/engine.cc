#include "protocols/engine.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "protocols/protocols.h"

namespace nbcp {

ProtocolEngine::ProtocolEngine(SiteId site, const ProtocolSpec* spec,
                               size_t n, Transport* network)
    : site_(site), spec_(spec), n_(n), network_(network) {
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
  ++ts.inbox[{msg::kRequest, kNoSite}];
  Pump(txn, ts);
  return Status::OK();
}

void ProtocolEngine::OnMessage(const Message& message) {
  if (IsFrozen(message.txn)) return;  // Termination protocol has taken over.
  TxnState& ts = GetOrCreate(message.txn);
  if (ts.decided) return;  // Late messages to a finished transaction.
  ++ts.inbox[{message.type, message.from}];
  Pump(message.txn, ts);
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
    ts.inbox.clear();
    if (hooks_.on_decision) {
      hooks_.on_decision(txn, state.kind == StateKind::kCommit
                                  ? Outcome::kCommitted
                                  : Outcome::kAborted);
    }
  }
}

void ProtocolEngine::Fire(
    TransactionId txn, TxnState& ts, const Transition& t,
    const std::vector<std::pair<std::string, SiteId>>& consumed,
    bool is_self_vote) {
  for (const auto& key : consumed) {
    auto it = ts.inbox.find(key);
    assert(it != ts.inbox.end() && it->second > 0);
    if (--it->second == 0) ts.inbox.erase(it);
  }

  bool casts_vote = is_self_vote || t.trigger.kind != TriggerKind::kAnyFrom;
  if (casts_vote && (t.votes_yes || t.votes_no)) {
    ts.vote = t.votes_yes;
    ts.vote_cast = true;
    if (hooks_.on_vote_cast) hooks_.on_vote_cast(txn, t.votes_yes);
  }

  // Emit messages. The send_filter hook may truncate the sequence,
  // simulating a crash in the middle of the (non-atomic under failures)
  // state transition.
  size_t total = 0;
  for (const SendSpec& send : t.sends) {
    total += spec_->ResolveGroup(send.to, site_, n_).size();
  }
  size_t index = 0;
  bool truncated = false;
  for (const SendSpec& send : t.sends) {
    for (SiteId target : spec_->ResolveGroup(send.to, site_, n_)) {
      if (truncated) break;
      Message m;
      m.type = send.msg_type;
      m.from = site_;
      m.to = target;
      m.txn = txn;
      if (hooks_.send_filter && !hooks_.send_filter(txn, m, index, total)) {
        truncated = true;
        break;
      }
      ++index;
      if (target == site_) {
        // Self-delivery is immediate and local (the decentralized model has
        // sites send messages to themselves); bypass the network but count
        // it as buffered input.
        ++ts.inbox[{m.type, site_}];
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
  const Automaton& a = automaton();
  if (IsFinal(a.state(ts.state).kind)) return false;

  for (size_t ti : a.TransitionsFrom(ts.state)) {
    const Transition& t = a.transitions()[ti];
    switch (t.trigger.kind) {
      case TriggerKind::kClientRequest: {
        auto key = std::make_pair(std::string(msg::kRequest), kNoSite);
        if (ts.inbox.count(key) == 0) break;
        // Vote-branch selection: a voting transition fires only if it
        // matches this site's vote.
        if (t.votes_yes && !VoteOf(txn, ts)) break;
        if (t.votes_no && VoteOf(txn, ts)) break;
        Fire(txn, ts, t, {key}, false);
        return true;
      }
      case TriggerKind::kOneFrom: {
        bool fired = false;
        for (SiteId sender : spec_->ResolveGroup(t.trigger.group, site_, n_)) {
          auto key = std::make_pair(t.trigger.msg_type, sender);
          if (ts.inbox.count(key) == 0) continue;
          if (t.votes_yes && !VoteOf(txn, ts)) continue;
          if (t.votes_no && VoteOf(txn, ts)) continue;
          Fire(txn, ts, t, {key}, false);
          fired = true;
          break;
        }
        if (fired) return true;
        break;
      }
      case TriggerKind::kAllFrom: {
        if (t.votes_yes && !VoteOf(txn, ts)) break;
        if (t.votes_no && VoteOf(txn, ts)) break;
        std::vector<std::pair<std::string, SiteId>> wanted;
        bool all_present = true;
        for (SiteId sender : spec_->ResolveGroup(t.trigger.group, site_, n_)) {
          auto key = std::make_pair(t.trigger.msg_type, sender);
          if (ts.inbox.count(key) == 0) {
            all_present = false;
            break;
          }
          wanted.push_back(std::move(key));
        }
        if (!all_present) break;
        Fire(txn, ts, t, wanted, false);
        return true;
      }
      case TriggerKind::kAnyFrom: {
        bool fired = false;
        for (SiteId sender : spec_->ResolveGroup(t.trigger.group, site_, n_)) {
          auto key = std::make_pair(t.trigger.msg_type, sender);
          if (ts.inbox.count(key) == 0) continue;
          Fire(txn, ts, t, {key}, false);
          fired = true;
          break;
        }
        if (fired) return true;
        // Spontaneous own-"no" firing, e.g. the coordinator's "(no_1)".
        if (t.trigger.or_self_vote_no && !ts.vote_cast &&
            !VoteOf(txn, ts)) {
          Fire(txn, ts, t, {}, /*is_self_vote=*/true);
          return true;
        }
        break;
      }
    }
  }
  return false;
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
