#ifndef NBCP_CORE_PARTICIPANT_H_
#define NBCP_CORE_PARTICIPANT_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/concurrency_set.h"
#include "common/result.h"
#include "common/types.h"
#include "db/kv_store.h"
#include "db/local_transaction.h"
#include "db/lock_manager.h"
#include "db/wal.h"
#include "election/election.h"
#include "fsa/protocol_spec.h"
#include "net/failure_detector.h"
#include "runtime/transport.h"
#include "protocols/engine.h"
#include "recovery/dt_log.h"
#include "recovery/recovery_manager.h"
#include "runtime/clock.h"
#include "termination/termination.h"
#include "trace/trace.h"

namespace nbcp {

class MetricsRegistry;
class SpanCollector;

/// Per-site configuration.
struct ParticipantConfig {
  ElectionConfig election;
  TerminationConfig termination;
  RecoveryConfig recovery;
  bool use_ring_election = false;
};

/// One site of the distributed database: the integration of the protocol
/// engine, the local-atomicity substrate (WAL + KV store + locks), the DT
/// log, the election/termination machinery and the recovery protocol.
///
/// All volatile components (engine, locks, staged transactions, election
/// and termination sessions) are lost on Crash(); the WAL and DT log model
/// stable storage and survive. Recover() rebuilds the volatile state and
/// runs the paper's recovery protocol.
class Participant {
 public:
  Participant(SiteId site, const ProtocolSpec* spec, size_t n,
              Clock* clock, Transport* network, FailureDetector* detector,
              const ConcurrencyAnalysis* analysis,
              std::function<SiteId(SiteId)> analysis_site_map,
              ParticipantConfig config = {});

  Participant(const Participant&) = delete;
  Participant& operator=(const Participant&) = delete;

  /// Registers with the network and failure detector. Call once.
  Status Attach();

  /// Attaches an event recorder (nullptr to detach). Not owned.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }

  /// Attaches the system's metrics registry and phase-span collector
  /// (either may be nullptr; not owned). Also forwards the registry to the
  /// termination and election machinery, and re-forwards after Recover().
  void set_obs(MetricsRegistry* metrics, SpanCollector* spans);

  SiteId site() const { return site_; }

  // --- client / transaction-manager entry points -------------------------

  /// Presets the vote this site casts for `txn` (vote-only workloads).
  void SetVote(TransactionId txn, bool vote);

  /// Executes a distributed transaction's local portion now: locks are
  /// acquired (no-wait) and writes staged. The site's vote becomes "yes iff
  /// execution and prepare succeed". kAborted on lock conflict.
  Status SubmitLocalOps(TransactionId txn, const std::vector<KvOp>& ops);

  /// Delivers the client's request to this site's protocol engine.
  Status StartProtocol(TransactionId txn);

  // --- introspection ------------------------------------------------------

  Outcome OutcomeOf(TransactionId txn) const;

  /// True if this site has any knowledge of `txn` (protocol state, DT-log
  /// records or client bookkeeping). A site that crashed before the
  /// transaction reached it knows nothing and has nothing to block on.
  bool KnowsTransaction(TransactionId txn) const;

  bool IsBlocked(TransactionId txn) const;
  bool UsedTermination(TransactionId txn) const;
  std::optional<SimTime> DecisionTime(TransactionId txn) const;

  /// When this site first engaged the termination protocol for `txn`.
  std::optional<SimTime> TerminationStartTime(TransactionId txn) const;
  StateKind CurrentKind(TransactionId txn) const;
  bool crashed() const { return crashed_; }

  ProtocolEngine& engine() { return *engine_; }
  KvStore& kv() { return *kv_; }
  LockManager& locks() { return *locks_; }
  DtLog& dt_log() { return dt_log_; }
  WriteAheadLog& wal() { return wal_; }
  /// The site's termination protocol: volatile state, so null while the
  /// site is crashed.
  TerminationProtocol* termination() { return termination_.get(); }

  // --- failure lifecycle (driven by the FailureInjector) -----------------

  /// Loses all volatile state. The network/detector bookkeeping is done by
  /// the injector.
  void Crash();

  /// Rebuilds volatile state from the WAL and DT log, then runs the
  /// recovery protocol for in-doubt transactions.
  void Recover();

  /// Arms a one-shot partial-broadcast trap: while sending `msg_type` for
  /// `txn`, only `allow` copies leave the site; then `on_trip` runs (the
  /// injector uses it to crash the site mid-transition).
  void ArmSendTrap(TransactionId txn, std::string msg_type, size_t allow,
                   std::function<void()> on_trip);

 private:
  void OnNetMessage(const Message& message);
  void OnSiteStatus(SiteId subject, bool up);

  bool VoteFor(TransactionId txn);
  void OnVoteCast(TransactionId txn, bool yes);
  void OnStateChange(TransactionId txn, const LocalState& state);
  void OnDecision(TransactionId txn, Outcome outcome);
  void ApplyOutcomeToDb(TransactionId txn, Outcome outcome);

  std::vector<SiteId> AliveSites() const;

  /// Starts termination for every undecided transaction, per paradigm
  /// policy, after `failed` was reported down.
  void HandleFailure(SiteId failed);

  /// Re-initiates termination of still-undecided transactions after a site
  /// recovery (the recovered site may know the outcome).
  void HandleRecoveryOf(SiteId recovered);

  struct TxnRecord {
    std::optional<bool> preset_vote;
    std::optional<Outcome> outcome;
    SimTime decision_time = 0;
    std::optional<SimTime> termination_start;
    bool via_termination = false;
    bool blocked = false;
    bool vote_logged = false;
    bool start_logged = false;
  };
  TxnRecord& Record(TransactionId txn) { return records_[txn]; }

  struct SendTrap {
    std::string msg_type;
    size_t allow = 0;
    size_t sent = 0;
    std::function<void()> on_trip;
    bool tripped = false;
  };

  SiteId site_;
  const ProtocolSpec* spec_;
  size_t n_;
  Clock* clock_;
  Transport* network_;
  FailureDetector* detector_;
  const ConcurrencyAnalysis* analysis_;
  std::function<SiteId(SiteId)> analysis_site_map_;
  ParticipantConfig config_;

  // Stable storage (survives Crash()).
  WriteAheadLog wal_;
  DtLog dt_log_;

  // Volatile components (recreated on Recover()).
  std::unique_ptr<ProtocolEngine> engine_;
  std::unique_ptr<KvStore> kv_;
  std::unique_ptr<LockManager> locks_;
  std::unique_ptr<Election> election_;
  std::unique_ptr<TerminationProtocol> termination_;
  std::unique_ptr<RecoveryManager> recovery_;

  /// Records an event when tracing is attached.
  void Trace(TransactionId txn, TraceEventType type,
             std::string detail = "") const;

  std::unordered_map<TransactionId, TxnRecord> records_;
  /// Local portions executed and not yet decided (volatile: they point
  /// into the store and lock table).
  std::unordered_map<TransactionId, std::unique_ptr<LocalTransaction>>
      locals_;
  std::unordered_map<TransactionId, SendTrap> send_traps_;
  TraceRecorder* trace_ = nullptr;
  MetricsRegistry* metrics_ = nullptr;
  SpanCollector* spans_ = nullptr;
  bool crashed_ = false;
};

}  // namespace nbcp

#endif  // NBCP_CORE_PARTICIPANT_H_
