#ifndef NBCP_PROTOCOLS_ENGINE_H_
#define NBCP_PROTOCOLS_ENGINE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "fsa/protocol_spec.h"
#include "protocols/compiled_role.h"
#include "runtime/transport.h"

namespace nbcp {

/// Callbacks a ProtocolEngine owner may install.
struct EngineHooks {
  /// Decides this site's vote when the protocol first needs it (true = yes).
  /// Default: always yes. For 1PC's coordinator this is the client decision.
  std::function<bool(TransactionId)> vote;

  /// Invoked after every local state change (including forced ones).
  std::function<void(TransactionId, const LocalState&)> on_state_change;

  /// Invoked once when a final state is reached.
  std::function<void(TransactionId, Outcome)> on_decision;

  /// Invoked when a transition casts this site's vote, *before* any of the
  /// transition's messages are sent — the write-ahead point where a durable
  /// vote record must be forced to the DT log.
  std::function<void(TransactionId, bool yes)> on_vote_cast;

  /// Send interceptor for failure injection: called for each outgoing
  /// message with its index within the transition's send sequence and the
  /// total count; returning false suppresses this and all later sends of
  /// the transition (modeling a site that "may only partially complete a
  /// transition before failing" — the paper's partial-send crash).
  std::function<bool(TransactionId, const Message&, size_t index,
                     size_t total)>
      send_filter;

  /// The outcome this site has durably logged for `txn`, if any. A
  /// transaction the engine holds no state for but whose outcome is logged
  /// is treated as already final: it occupies the commit or abort state
  /// without any hook firing, so a recovering site need not re-decide its
  /// history. Default: nothing is logged.
  std::function<std::optional<Outcome>(TransactionId)> durable_outcome;
};

/// Runtime interpreter executing one role automaton of a ProtocolSpec at one
/// site, over the simulated network.
///
/// The engine runs the *same spec objects* the analysis engine reasons
/// about: the protocol proved nonblocking is the protocol executed. Each
/// transaction is an independent FSA instance; messages are buffered per
/// transaction until a transition's trigger is satisfiable, then the
/// transition fires atomically (consume messages, emit messages, change
/// state), exactly as in the formal model.
///
/// The role is compiled once, at construction (CompiledRole): message
/// types are interned to ids, groups resolved, and a transaction's buffered
/// input is a flat count array indexed [type][from]. Firing a transition
/// allocates nothing. A message whose type no trigger reads, or whose
/// sender is outside 1..n, is not buffered: nothing could consume it.
class ProtocolEngine {
 public:
  /// `spec` must outlive the engine. `n` is the site population (1..n).
  ProtocolEngine(SiteId site, const ProtocolSpec* spec, size_t n,
                 Transport* network);

  ProtocolEngine(const ProtocolEngine&) = delete;
  ProtocolEngine& operator=(const ProtocolEngine&) = delete;

  void set_hooks(EngineHooks hooks) { hooks_ = std::move(hooks); }

  SiteId site() const { return site_; }
  const ProtocolSpec& spec() const { return *spec_; }
  const Automaton& automaton() const { return role_.automaton(); }

  /// Delivers the client's transaction request to this site (the virtual
  /// "__request" input). Central-site: call on the coordinator only;
  /// decentralized: call on every site.
  Status StartTransaction(TransactionId txn);

  /// Feeds a protocol message (types from the spec vocabulary).
  void OnMessage(const Message& message);

  /// True once this site has seen `txn` (started or received a message) or
  /// has its outcome durably logged.
  bool HasTransaction(TransactionId txn) const;

  /// Current local state of `txn`. NotFound if unknown.
  Result<LocalState> CurrentState(TransactionId txn) const;

  /// Current state kind, or kInitial for unknown transactions (a site that
  /// has not heard of the transaction occupies its initial state).
  StateKind CurrentKind(TransactionId txn) const;

  /// kCommitted / kAborted once final, else kUndecided.
  Outcome OutcomeOf(TransactionId txn) const;

  /// The vote this site cast for `txn`, if any.
  std::optional<bool> VoteCast(TransactionId txn) const;

  /// Termination-protocol support: moves `txn` to this role's unique state
  /// of `kind` without message activity. Final states may not be left:
  /// forcing a finished transaction to a different kind is
  /// FailedPrecondition (the caller should consult its outcome instead).
  Status ForceToKind(TransactionId txn, StateKind kind);

  /// Termination-protocol support: decides `txn` (moves to the commit or
  /// abort state). Deciding an already-decided transaction is OK when the
  /// outcomes agree and FailedPrecondition otherwise.
  Status ForceOutcome(TransactionId txn, Outcome outcome);

  /// Stops normal transition firing for `txn`: subsequent protocol
  /// messages are ignored. Forced moves (ForceToKind / ForceOutcome) still
  /// apply — they are the termination protocol's directives. Used once a
  /// site joins a termination session.
  void Freeze(TransactionId txn);

  bool IsFrozen(TransactionId txn) const { return frozen_.count(txn) != 0; }

  /// Drops all volatile protocol state (site crash). Durable knowledge
  /// lives in the DT log, owned by the recovery layer.
  void Clear();

  /// Transactions currently known and undecided, ascending.
  std::vector<TransactionId> UndecidedTransactions() const;

 private:
  struct TxnState {
    StateIndex state = kNoState;
    /// Buffered unconsumed messages, counted at role_.Slot(type, from).
    /// Allocated at the first buffered message, freed at the decision.
    std::vector<uint32_t> inbox;
    std::optional<bool> vote;       ///< Decided vote, once consulted.
    bool vote_cast = false;         ///< Vote actually emitted/locked in.
    bool decided = false;
  };

  /// Finds or creates the state of `txn`. A new transaction starts final
  /// when its outcome is durably logged, else in the initial state.
  TxnState& GetOrCreate(TransactionId txn);

  /// The state `txn` occupies: its own, else the final state matching its
  /// durable outcome. kNoState when the engine has never heard of it.
  StateIndex StateOf(TransactionId txn) const;

  /// The commit or abort state matching a durable outcome, or kNoState.
  StateIndex LoggedFinalState(TransactionId txn) const;

  /// Fires enabled transitions until quiescent.
  void Pump(TransactionId txn, TxnState& ts);

  /// Attempts to fire one transition; returns true if something fired.
  bool TryFireOne(TransactionId txn, TxnState& ts);

  /// Consults (and caches) the vote for this transaction.
  bool VoteOf(TransactionId txn, TxnState& ts);

  /// Executes a firing: consumes its messages from the inbox, performs
  /// sends, updates state, and invokes hooks.
  void Fire(TransactionId txn, TxnState& ts,
            const CompiledRole::Firing& firing);

  /// Counts one buffered message of `type` from `from`.
  void Buffer(TxnState& ts, CompiledRole::TypeId type, SiteId from);

  void EnterState(TransactionId txn, TxnState& ts, StateIndex next);

  SiteId site_;
  const ProtocolSpec* spec_;
  CompiledRole role_;
  Transport* network_;
  EngineHooks hooks_;
  StateIndex commit_state_ = kNoState;
  StateIndex abort_state_ = kNoState;
  std::unordered_map<TransactionId, TxnState> txns_;
  /// Transactions that may still be undecided. Decided ones are dropped
  /// whenever the list doubles, so UndecidedTransactions() costs the
  /// undecided transactions plus those created since the last drop, not
  /// the engine's history.
  std::vector<TransactionId> maybe_undecided_;
  size_t compact_at_ = 0;
  std::set<TransactionId> frozen_;
};

}  // namespace nbcp

#endif  // NBCP_PROTOCOLS_ENGINE_H_
