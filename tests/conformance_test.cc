#include "analysis/conformance.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/state_graph.h"
#include "analysis/symmetry.h"
#include "core/transaction_manager.h"
#include "protocols/registry.h"
#include "trace/trace.h"

namespace nbcp {
namespace {

/// Runs one traced failure-free execution of `protocol` with preset
/// `votes` through a ConformanceChecker wired as the live trace sink.
struct CheckedRun {
  std::vector<ConformanceIssue> divergences;
  std::vector<ConformanceIssue> violations;
  size_t visited = 0;
  size_t firings = 0;
  bool degraded = false;
};

CheckedRun RunChecked(const std::string& protocol,
                      const std::vector<bool>& votes) {
  auto spec = MakeProtocol(protocol);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  size_t n = votes.size();
  GraphOptions graph_opt;
  graph_opt.symmetry_reduction = false;
  auto graph = ReachableStateGraph::Build(*spec, n, graph_opt);
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();

  SystemConfig cfg;
  cfg.num_sites = n;
  cfg.trace = true;
  cfg.delay = DelayModel{100, 0};
  auto sys = CommitSystem::CreateWithSpec(cfg, *spec);
  EXPECT_TRUE(sys.ok()) << sys.status().ToString();
  TransactionId txn = (*sys)->Begin();
  for (size_t i = 0; i < n; ++i) {
    (*sys)->SetVote(txn, static_cast<SiteId>(i + 1), votes[i]);
  }
  ConformanceChecker checker(&*spec, n, &*graph, txn, votes);
  (*sys)->trace()->set_sink(
      [&checker](const TraceEvent& e) { checker.OnEvent(e); });
  (*sys)->Launch(txn);
  (*sys)->simulator().Run();
  checker.Finish(/*expect_decided=*/true);

  CheckedRun out;
  out.divergences = checker.divergences();
  out.violations = checker.violations();
  out.visited = checker.visited().size();
  out.firings = checker.firings();
  out.degraded = checker.degraded();
  return out;
}

TEST(ConformanceCheckerTest, CleanTwoPhaseRunConforms) {
  CheckedRun run = RunChecked("2PC-central", {true, true, true});
  EXPECT_TRUE(run.divergences.empty())
      << run.divergences.front().ToString();
  EXPECT_TRUE(run.violations.empty()) << run.violations.front().ToString();
  EXPECT_FALSE(run.degraded);
  EXPECT_GT(run.firings, 0u);
  EXPECT_GT(run.visited, 2u);
}

TEST(ConformanceCheckerTest, EveryBuiltinConformsOnMixedVotes) {
  for (const std::string& protocol : BuiltinProtocolNames()) {
    for (std::vector<bool> votes :
         {std::vector<bool>{true, true}, std::vector<bool>{true, false},
          std::vector<bool>{false, true}}) {
      CheckedRun run = RunChecked(protocol, votes);
      EXPECT_TRUE(run.divergences.empty())
          << protocol << ": " << run.divergences.front().ToString();
      EXPECT_TRUE(run.violations.empty())
          << protocol << ": " << run.violations.front().ToString();
    }
  }
}

TEST(ConformanceCheckerTest, WrongModelGraphReportsDivergence) {
  // Checking a 3PC execution against the 2PC model must diverge: the
  // coordinator's move into the prepared state has no 2PC explanation.
  auto impl = MakeProtocol("3PC-central");
  auto model = MakeProtocol("2PC-central");
  ASSERT_TRUE(impl.ok() && model.ok());
  size_t n = 2;
  GraphOptions graph_opt;
  graph_opt.symmetry_reduction = false;
  auto graph = ReachableStateGraph::Build(*model, n, graph_opt);
  ASSERT_TRUE(graph.ok());

  SystemConfig cfg;
  cfg.num_sites = n;
  cfg.trace = true;
  cfg.delay = DelayModel{100, 0};
  auto sys = CommitSystem::CreateWithSpec(cfg, *impl);
  ASSERT_TRUE(sys.ok());
  TransactionId txn = (*sys)->Begin();
  ConformanceChecker checker(&*model, n, &*graph, txn, {true, true});
  (*sys)->trace()->set_sink(
      [&checker](const TraceEvent& e) { checker.OnEvent(e); });
  (*sys)->Launch(txn);
  (*sys)->simulator().Run();
  checker.Finish(/*expect_decided=*/false);
  EXPECT_FALSE(checker.divergences().empty());
}

TEST(ConformanceCheckerTest, DegradesOnCrashEventsInsteadOfDiverging) {
  auto spec = MakeProtocol("2PC-central");
  ASSERT_TRUE(spec.ok());
  size_t n = 3;
  GraphOptions graph_opt;
  graph_opt.symmetry_reduction = false;
  auto graph = ReachableStateGraph::Build(*spec, n, graph_opt);
  ASSERT_TRUE(graph.ok());

  SystemConfig cfg;
  cfg.num_sites = n;
  cfg.trace = true;
  cfg.delay = DelayModel{100, 0};
  auto sys = CommitSystem::CreateWithSpec(cfg, *spec);
  ASSERT_TRUE(sys.ok());
  TransactionId txn = (*sys)->Begin();
  ConformanceChecker checker(&*spec, n, &*graph, txn, {true, true, true});
  (*sys)->trace()->set_sink(
      [&checker](const TraceEvent& e) { checker.OnEvent(e); });
  (*sys)->Launch(txn);
  (*sys)->injector().ScheduleCrash(2, 150);
  (*sys)->simulator().Run();
  checker.Finish(/*expect_decided=*/false);
  // The failure-free model cannot mirror a crashed run; the checker must
  // degrade to outcome-only checking, not report false divergences.
  EXPECT_TRUE(checker.degraded());
  EXPECT_TRUE(checker.divergences().empty())
      << checker.divergences().front().ToString();
}

TEST(PredictNextFiringTest, MatchesSpecSemantics) {
  auto spec = MakeProtocol("2PC-central");
  ASSERT_TRUE(spec.ok());
  const Automaton& coord = spec->role(spec->RoleForSite(1, 3));
  StateIndex q1 = coord.initial_state();
  // Coordinator in q1 with the client request pending: fires the request
  // transition, broadcasting xact to the slaves.
  CompiledRole role(*spec, 1, 3);
  std::vector<uint32_t> inbox(role.inbox_size());
  inbox[role.Slot(CompiledRole::kRequestType, kNoSite)] = 1;
  auto firing = PredictNextFiring(role, q1, inbox,
                                  /*vote=*/true, /*vote_cast=*/false);
  ASSERT_TRUE(firing.has_value());
  EXPECT_EQ(firing->consumed.size(), 1u);
  // Nothing pending: no firing for a yes-voting coordinator.
  inbox.clear();
  EXPECT_FALSE(
      PredictNextFiring(role, q1, inbox, true, false).has_value());
}

TEST(OrbitKeyTest, SlavePermutationsShareAnOrbit) {
  auto spec = MakeProtocol("2PC-central");
  ASSERT_TRUE(spec.ok());
  size_t n = 3;
  SiteSymmetry symmetry = ComputeSiteSymmetry(*spec, n);
  GraphOptions graph_opt;
  graph_opt.symmetry_reduction = false;
  auto graph = ReachableStateGraph::Build(*spec, n, graph_opt);
  ASSERT_TRUE(graph.ok());
  // Orbit keys partition the nodes; permuting slave sites 2 and 3 maps a
  // node to one with the same key.
  std::set<std::string> orbits;
  for (size_t i = 0; i < graph->num_nodes(); ++i) {
    orbits.insert(OrbitKey(symmetry, graph->node(i)));
  }
  EXPECT_LT(orbits.size(), graph->num_nodes());
  SitePermutation swap{1, 3, 2};  // Identity on site 1, swap 2<->3.
  for (size_t i = 0; i < graph->num_nodes(); ++i) {
    GlobalState permuted = PermuteGlobalState(graph->node(i), swap);
    EXPECT_EQ(OrbitKey(symmetry, graph->node(i)), OrbitKey(symmetry, permuted));
  }
}

}  // namespace
}  // namespace nbcp
