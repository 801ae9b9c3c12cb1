#ifndef NBCP_ANALYSIS_CONFORMANCE_H_
#define NBCP_ANALYSIS_CONFORMANCE_H_

#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/global_state.h"
#include "analysis/state_graph.h"
#include "analysis/symmetry.h"
#include "common/types.h"
#include "fsa/protocol_spec.h"
#include "protocols/compiled_role.h"
#include "trace/trace.h"

namespace nbcp {

/// A transition firing predicted from the runtime engine's deterministic
/// semantics: the transition, the inbox messages it consumes, and whether
/// it fires spontaneously as the site's own "no" vote.
using PredictedFiring = CompiledRole::Firing;

/// The firing ProtocolEngine will make next, by the enabling rule it runs
/// (CompiledRole::NextFiring): given a site's local state, buffered
/// (delivered-unconsumed) messages counted in `role`'s inbox layout, and
/// a-priori vote. nullopt when quiescent. `vote` is the site's preset vote
/// (the engine default is yes); `vote_cast` must reflect whether the site
/// already emitted a vote.
std::optional<PredictedFiring> PredictNextFiring(
    const CompiledRole& role, StateIndex state, std::span<const uint32_t> inbox,
    std::optional<bool> vote, bool vote_cast);

/// Why a trace failed conformance. Divergence kinds (the implementation does
/// not refine the model) are distinct from invariant kinds (the execution
/// reached a state violating atomicity/C2, whether or not it refines).
enum class ConformanceIssueKind : uint8_t {
  // --- divergences (exit 2) ---
  kUnknownState = 0,       ///< Reached a global state outside the graph.
  kUnexplainedTransition,  ///< State change with no enabled engine firing.
  kTransitionMismatch,     ///< Fired into a different state than predicted.
  kSendMismatch,           ///< Observed sends differ from the spec's.
  kVoteMismatch,           ///< Observed vote differs from the transition's.
  kDecisionMismatch,       ///< Decision event contradicts the local state.
  // --- invariant violations (exit 3) ---
  kAtomicityViolation,     ///< Commit and abort coexist.
  kCommitWithoutYes,       ///< Commit occupied without unanimous yes votes.
  kUndecidedTerminal,      ///< Run went quiescent with undecided sites.
};

std::string ToString(ConformanceIssueKind kind);

/// One conformance finding, anchored to the trace position that exposed it.
struct ConformanceIssue {
  ConformanceIssueKind kind = ConformanceIssueKind::kUnknownState;
  SimTime at = 0;
  SiteId site = kNoSite;
  std::string detail;

  std::string ToString() const;
};

/// Online implementation<->model conformance checker.
///
/// Feed it the TraceEvent stream of ONE transaction's execution (install as
/// the TraceRecorder sink); it mirrors the execution into the analysis
/// model's vocabulary — a GlobalState of local states, cast votes, step
/// counts and the outstanding-message multiset — by replaying the engine's
/// deterministic firing rule over the observed deliveries. After every
/// mirrored firing it checks
///   (a) the predicted firing matches the observed state change, vote and
///       sends (the implementation executes the spec's transitions);
///   (b) the resulting abstract global state is a node of the statically
///       computed reachable-state graph (soundness against the model);
///   (c) atomicity / commit-implies-unanimous-yes hold.
/// Visited node indices accumulate for coverage reporting.
///
/// The model is failure-free: the first crash / link-cut / drop /
/// termination event degrades the checker — mirroring stops and only the
/// outcome-atomicity check (which must hold under failures too) remains,
/// fed by decision events.
///
/// The graph must be built WITHOUT symmetry reduction: canonicalization is
/// heuristic (orbit-equivalent states may intern to different
/// representatives), so membership tests against a reduced graph could
/// report false divergences. Orbit-level coverage is computed separately
/// (see OrbitKey).
class ConformanceChecker {
 public:
  /// `spec`, `graph` must outlive the checker; `graph` must be unreduced
  /// and built from `spec` with the same `n`. `votes[i]` is site i+1's
  /// preset vote.
  ConformanceChecker(const ProtocolSpec* spec, size_t n,
                     const ReachableStateGraph* graph, TransactionId txn,
                     std::vector<bool> votes);

  /// Consumes one trace event (events of other transactions are ignored).
  void OnEvent(const TraceEvent& e);

  /// Terminal checks, to call once the run is quiescent. `expect_decided`
  /// adds the kUndecidedTerminal check (failure-free runs of well-formed
  /// protocols must decide everywhere).
  void Finish(bool expect_decided);

  bool degraded() const { return degraded_; }
  const std::vector<ConformanceIssue>& divergences() const {
    return divergences_;
  }
  const std::vector<ConformanceIssue>& violations() const {
    return violations_;
  }
  /// Graph node indices the mirrored execution visited (initial included).
  const std::set<size_t>& visited() const { return visited_; }
  /// Mirrored model state (meaningful while not degraded).
  const GlobalState& mirror() const { return mirror_; }
  /// Engine firings mirrored so far.
  size_t firings() const { return firings_; }

 private:
  struct SiteMirror {
    /// Delivered-unconsumed messages, counted like the engine inbox.
    std::vector<uint32_t> inbox;
    bool vote_cast = false;
    bool decided = false;
    /// Observations since the last state change, reconciled at the next
    /// kStateChange (the engine emits vote/sends before entering the
    /// state).
    std::optional<bool> observed_vote;
    std::vector<std::pair<std::string, SiteId>> observed_sends;
    /// Decisions observed via kDecision / kTerminationDecide (survives
    /// degradation; feeds the terminal atomicity check).
    std::optional<Outcome> observed_outcome;
  };

  void OnStateChange(const TraceEvent& e);
  void CheckMirror(const TraceEvent& e);
  void Degrade(const char* why);
  void AddDivergence(ConformanceIssueKind kind, const TraceEvent& e,
                     std::string detail);
  void AddViolation(ConformanceIssueKind kind, SimTime at, SiteId site,
                    std::string detail);
  const Automaton& RoleOf(SiteId site) const {
    return roles_[site - 1].automaton();
  }

  const ProtocolSpec* spec_;
  size_t n_;
  const ReachableStateGraph* graph_;
  TransactionId txn_;
  std::vector<bool> votes_;
  /// roles_[i] = site i+1's compiled role.
  std::vector<CompiledRole> roles_;
  /// Key -> node index of the unreduced graph.
  std::unordered_map<std::string, size_t> node_index_;

  GlobalState mirror_;
  std::vector<SiteMirror> sites_;
  std::set<size_t> visited_;
  std::vector<ConformanceIssue> divergences_;
  std::vector<ConformanceIssue> violations_;
  size_t firings_ = 0;
  bool degraded_ = false;
  bool finished_ = false;
};

/// Exact orbit canonicalization for coverage-modulo-symmetry: the
/// lexicographically least Key() over every class-preserving site
/// permutation of `g`. Exponential in class sizes — intended for the small
/// populations schedule exploration handles (n <= ~6).
std::string OrbitKey(const SiteSymmetry& symmetry, const GlobalState& g);

}  // namespace nbcp

#endif  // NBCP_ANALYSIS_CONFORMANCE_H_
