#ifndef NBCP_TERMINATION_TERMINATION_H_
#define NBCP_TERMINATION_TERMINATION_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>

#include "analysis/concurrency_set.h"
#include "common/types.h"
#include "election/election.h"
#include "runtime/clock.h"
#include "runtime/transport.h"

namespace nbcp {

class MetricsRegistry;

/// Callbacks wiring a TerminationProtocol into its owning participant.
struct TerminationHooks {
  /// Local state index of `txn` in this site's role automaton.
  std::function<StateIndex(TransactionId)> current_state;

  /// Maps a live site id to the same-role representative site used by the
  /// (possibly smaller-population) concurrency analysis. Identity when the
  /// analysis was built for the full population.
  std::function<SiteId(SiteId)> analysis_site;

  /// Stops normal protocol processing of `txn` at this site: once a site
  /// reports its state to a backup coordinator it must not fire ordinary
  /// transitions anymore, or in-flight votes could race the termination
  /// decision into a mixed (inconsistent) outcome.
  std::function<void(TransactionId)> freeze;

  /// Moves `txn` to the role's state of the given kind (no-op if final).
  std::function<Status(TransactionId, StateKind)> force_kind;

  /// Decides `txn` locally (applies the outcome to the database layer too).
  std::function<Status(TransactionId, Outcome)> force_outcome;

  /// True once `txn` reached a final state at this site.
  std::function<bool(TransactionId)> is_decided;

  /// Operational sites per this site's failure detector, ascending.
  std::function<std::vector<SiteId>()> alive_sites;

  /// Invoked when the termination protocol decides `txn`.
  std::function<void(TransactionId, Outcome)> on_terminated;

  /// Invoked when termination concludes the transaction is blocked.
  std::function<void(TransactionId)> on_blocked;
};

/// Configuration of the termination protocol.
struct TerminationConfig {
  /// Deadline for collecting state reports / move acks, simulated us.
  SimTime collect_timeout = 20000;

  /// Quorum termination (Skeen's quorum-based commit protocol): commit
  /// requires `commit_quorum` sites moved into the p buffer, abort
  /// requires `abort_quorum` sites moved into pa; with Vc + Va > n, two
  /// sides of a partition can never decide differently — the side without
  /// a quorum blocks until the partition heals.
  bool quorum_mode = false;
  size_t commit_quorum = 0;  ///< 0 = majority (n/2 + 1).
  size_t abort_quorum = 0;   ///< 0 = majority (n/2 + 1).
  size_t num_sites = 0;      ///< Filled in by the owning participant.
};

/// The paper's termination protocol: invoked "when crashes of other sites
/// impair the execution of a commit protocol", it elects a backup
/// coordinator which directs the remaining sites to a consistent commit or
/// abort based only on its local state (Decision Rule For Backup
/// Coordinators), via a 2-phase protocol:
///   1. "move to my state" — all operational sites adopt the backup's
///      state and acknowledge (so a backup failure leaves a consistent
///      picture for the next backup);
///   2. commit or abort.
/// Phase 1 is skipped when the backup is already in a final state.
///
/// For blocking protocols (2PC) the safe/cooperative decision rule may
/// conclude "blocked": operational sites then stay undecided until the
/// crashed coordinator recovers — exactly the blocking behaviour the paper
/// sets out to eliminate.
///
/// Message types: "term:state-req", "term:state", "term:move",
/// "term:moved", "term:decide", "term:blocked".
class TerminationProtocol {
 public:
  TerminationProtocol(SiteId self, Clock* clock, Transport* network,
                      Election* election, const ConcurrencyAnalysis* analysis,
                      TerminationHooks hooks, TerminationConfig config = {});

  TerminationProtocol(const TerminationProtocol&) = delete;
  TerminationProtocol& operator=(const TerminationProtocol&) = delete;

  /// Starts (or restarts) termination of `txn`. No-op when already decided
  /// locally or a session is in a later stage.
  void Initiate(TransactionId txn);

  /// Starts termination with this site as backup coordinator directly,
  /// skipping the election. Used by the central-site paradigm when the
  /// (operational) coordinator itself terminates a transaction impaired by
  /// a slave failure: the coordinator is the distinguished site and needs
  /// no election.
  void InitiateAsBackup(TransactionId txn);

  /// Election result for tag `txn` (wired from the election's callback).
  void OnElected(TransactionId txn, SiteId leader);

  /// Feeds a "term:*" message.
  void OnMessage(const Message& message);

  /// A site failed; restarts sessions whose backup died.
  void OnSiteFailure(SiteId failed);

  /// True when termination concluded `txn` is blocked at this site.
  bool IsBlocked(TransactionId txn) const;

  /// The backup coordinator this site elected (or became) for `txn`;
  /// kNoSite when no session has one.
  SiteId Backup(TransactionId txn) const;

  /// Drops all session state (site crash).
  void Clear();

  /// Attaches a metrics registry (not owned; nullptr detaches): counts
  /// sessions initiated ("termination/sessions"), decisions applied
  /// ("termination/decides") and blocked verdicts ("termination/blocked").
  void set_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }

  static bool OwnsMessage(const std::string& type);

 private:
  enum class Phase : uint8_t {
    kIdle = 0,
    kElecting,
    kCollecting,  ///< Backup only: gathering survivor states.
    kMoving,      ///< Backup only: waiting for move acks.
    kDone,
    kBlocked,
  };

  struct Session {
    Phase phase = Phase::kIdle;
    SiteId backup = kNoSite;
    std::map<SiteId, StateIndex> survivor_states;  ///< Backup only.
    std::set<SiteId> move_acks;                    ///< Backup only.
    EventId deadline = 0;
    Outcome decision = Outcome::kUndecided;
    /// Quorum mode: acks needed before the decision may be broadcast
    /// (0 = all operational sites, the non-quorum behaviour).
    size_t required_acks = 0;
  };

  Session& GetSession(TransactionId txn);
  void Send(SiteId to, const std::string& type, TransactionId txn,
            std::string payload = "");
  void Broadcast(const std::string& type, TransactionId txn,
                 std::string payload = "");

  /// Backup-side: begins state collection (phase 0) for `txn`.
  void BeginCollect(TransactionId txn);

  /// Backup-side: decides once states are in (or the deadline fires).
  void DecideAndDirect(TransactionId txn);

  /// Backup-side quorum variant of DecideAndDirect.
  void QuorumDecideAndDirect(TransactionId txn);

  /// Backup-side: enters the move phase towards `target`, requiring
  /// `required_acks` acknowledgements (0 = all operational).
  void BeginMove(TransactionId txn, StateKind target, size_t required_acks);

  /// Marks the session blocked and tells everyone.
  void DeclareBlocked(TransactionId txn, const std::string& why);

  /// Backup-side: phase-2 broadcast + local application.
  void BroadcastDecision(TransactionId txn, Outcome outcome);

  void ApplyDecision(TransactionId txn, Outcome outcome);

  SiteId self_;
  Clock* clock_;
  Transport* network_;
  Election* election_;
  const ConcurrencyAnalysis* analysis_;
  TerminationHooks hooks_;
  TerminationConfig config_;
  MetricsRegistry* metrics_ = nullptr;
  std::unordered_map<TransactionId, Session> sessions_;

  /// Liveness token: scheduled deadlines hold a weak reference and become
  /// no-ops once this object is destroyed (e.g. its site crashed).
  std::shared_ptr<char> alive_token_ = std::make_shared<char>(0);
};

}  // namespace nbcp

#endif  // NBCP_TERMINATION_TERMINATION_H_
