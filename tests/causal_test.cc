#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/causal_clock.h"
#include "core/transaction_manager.h"
#include "obs/causal.h"
#include "obs/export.h"
#include "obs/observer.h"
#include "protocols/protocols.h"
#include "protocols/registry.h"

namespace nbcp {
namespace {

// ---------------------------------------------------------------------
// CausalClockDomain: the tick/merge rules.
// ---------------------------------------------------------------------

TEST(CausalClockTest, LocalTickAdvancesOwnComponents) {
  CausalClockDomain clocks(3);
  EXPECT_FALSE(clocks.Current(1).stamped() && clocks.Current(1).lamport > 0);

  ClockStamp s1 = clocks.OnLocal(1);
  EXPECT_EQ(s1.lamport, 1u);
  EXPECT_EQ(s1.vc, (std::vector<uint64_t>{1, 0, 0}));

  ClockStamp s2 = clocks.OnLocal(1);
  EXPECT_EQ(s2.lamport, 2u);
  EXPECT_EQ(s2.vc, (std::vector<uint64_t>{2, 0, 0}));

  // Other sites are untouched.
  EXPECT_EQ(clocks.Current(2).vc, (std::vector<uint64_t>{0, 0, 0}));
}

TEST(CausalClockTest, DeliverMergesThenTicks) {
  CausalClockDomain clocks(3);
  clocks.OnLocal(1);
  ClockStamp sent = clocks.OnSend(1);  // L2 <2,0,0>
  clocks.OnLocal(2);                   // site 2 at L1 <0,1,0>

  ClockStamp got = clocks.OnDeliver(2, sent);
  EXPECT_EQ(got.lamport, 3u);  // max(1, 2) + 1
  EXPECT_EQ(got.vc, (std::vector<uint64_t>{2, 2, 0}));
  EXPECT_TRUE(HappensBefore(sent, got));
}

TEST(CausalClockTest, DeliverOfUnstampedMessageIsPlainTick) {
  CausalClockDomain clocks(2);
  ClockStamp got = clocks.OnDeliver(2, ClockStamp{});
  EXPECT_EQ(got.lamport, 1u);
  EXPECT_EQ(got.vc, (std::vector<uint64_t>{0, 1}));
}

TEST(CausalClockTest, OutOfRangeSiteIsNoop) {
  CausalClockDomain clocks(2);
  EXPECT_FALSE(clocks.OnLocal(0).stamped());
  EXPECT_FALSE(clocks.OnLocal(3).stamped());
  EXPECT_FALSE(clocks.Current(99).stamped());
  EXPECT_EQ(clocks.Current(1).vc, (std::vector<uint64_t>{0, 0}));
}

TEST(CausalClockTest, ResetReturnsToZero) {
  CausalClockDomain clocks(2);
  clocks.OnLocal(1);
  clocks.OnLocal(2);
  clocks.Reset();
  EXPECT_EQ(clocks.Current(1).lamport, 0u);
  EXPECT_EQ(clocks.Current(2).vc, (std::vector<uint64_t>{0, 0}));
}

TEST(CausalClockTest, MergeDeliveryTicksLikeOnDeliver) {
  CausalClockDomain merged(3);
  CausalClockDomain delivered(3);
  ClockStamp sent = merged.OnSend(1);
  (void)delivered.OnSend(1);
  merged.MergeDelivery(2, sent);
  ClockStamp got = delivered.OnDeliver(2, sent);
  EXPECT_EQ(merged.Current(2), got);
  merged.MergeDelivery(0, sent);  // Out of range: no-op.
  merged.MergeDelivery(4, sent);
  EXPECT_EQ(merged.Current(2), got);
}

TEST(CausalClockTest, TickAdvancesLikeOnLocal) {
  CausalClockDomain ticked(3);
  CausalClockDomain local(3);
  ticked.Tick(2);
  EXPECT_EQ(ticked.Current(2), local.OnLocal(2));
  ticked.Tick(0);  // Out of range: no-op.
  ticked.Tick(4);
  EXPECT_EQ(ticked.Current(2), local.Current(2));
}

TEST(CausalClockTest, VectorFreeDomainKeepsLamportRules) {
  CausalClockDomain clocks(3, /*vectors=*/false);
  ClockStamp sent = clocks.OnSend(1);
  EXPECT_EQ(sent.lamport, 1u);
  EXPECT_FALSE(sent.stamped());
  clocks.Tick(2);
  clocks.Tick(2);
  clocks.Tick(2);
  // max(3, 1) + 1: the Lamport delivery rule still holds without vectors.
  EXPECT_EQ(clocks.OnDeliver(2, sent).lamport, 4u);
  clocks.MergeDelivery(3, sent);
  EXPECT_EQ(clocks.Current(3).lamport, 2u);
  EXPECT_FALSE(clocks.Current(3).stamped());
}

TEST(CausalClockTest, ConcurrentSitesMatchASequentialReplay) {
  constexpr size_t kSites = 4;
  constexpr size_t kRounds = 2000;
  // What each site merges: stamps from another domain, fixed up front, so
  // a site's final clock depends only on its own sequence of events.
  CausalClockDomain source(kSites);
  std::vector<std::vector<ClockStamp>> inbound(kSites);
  for (size_t r = 0; r < kRounds; ++r) {
    for (size_t i = 0; i < kSites; ++i) {
      inbound[i].push_back(source.OnSend(static_cast<SiteId>(i + 1)));
    }
  }
  auto run_site = [&](CausalClockDomain& clocks, size_t i) {
    SiteId site = static_cast<SiteId>(i + 1);
    for (size_t r = 0; r < kRounds; ++r) {
      (void)clocks.OnSend(site);
      const ClockStamp& in = inbound[(i + 1) % kSites][r];
      if (r % 2 == 0) {
        clocks.MergeDelivery(site, in);
      } else {
        (void)clocks.OnDeliver(site, in);
      }
    }
  };

  CausalClockDomain clocks(kSites);
  std::atomic<bool> done{false};
  std::atomic<bool> monotone{true};
  std::thread reader([&] {
    std::vector<uint64_t> last(kSites, 0);
    while (!done.load()) {
      for (size_t i = 0; i < kSites; ++i) {
        uint64_t now = clocks.Current(static_cast<SiteId>(i + 1)).lamport;
        if (now < last[i]) monotone = false;
        last[i] = now;
      }
    }
  });
  std::vector<std::thread> sites;
  sites.reserve(kSites);
  for (size_t i = 0; i < kSites; ++i) {
    sites.emplace_back([&, i] { run_site(clocks, i); });
  }
  for (std::thread& t : sites) t.join();
  done = true;
  reader.join();
  EXPECT_TRUE(monotone.load());

  CausalClockDomain replay(kSites);
  for (size_t i = 0; i < kSites; ++i) run_site(replay, i);
  for (SiteId site = 1; site <= kSites; ++site) {
    EXPECT_EQ(clocks.Current(site), replay.Current(site)) << "site " << site;
  }
}

TEST(CausalClockTest, OrderPredicates) {
  ClockStamp a;
  a.lamport = 1;
  a.vc = {1, 0};
  ClockStamp b;
  b.lamport = 2;
  b.vc = {1, 1};
  ClockStamp c;
  c.lamport = 2;
  c.vc = {2, 0};

  EXPECT_TRUE(HappensBefore(a, b));
  EXPECT_FALSE(HappensBefore(b, a));
  EXPECT_TRUE(ConcurrentWith(b, c));
  EXPECT_FALSE(ConcurrentWith(a, b));
  EXPECT_FALSE(HappensBefore(a, a));  // Strict order.

  // Unstamped values are unordered.
  EXPECT_FALSE(HappensBefore(ClockStamp{}, b));
  EXPECT_FALSE(HappensBefore(a, ClockStamp{}));

  // Shorter vectors compare as zero-padded (smaller population).
  ClockStamp small;
  small.lamport = 1;
  small.vc = {1};
  EXPECT_TRUE(VectorLeq(small, c));
  EXPECT_FALSE(VectorLeq(c, small));
}

TEST(CausalClockTest, ToStringFormat) {
  ClockStamp s;
  EXPECT_EQ(s.ToString(), "L0<>");
  s.lamport = 7;
  s.vc = {2, 4, 1};
  EXPECT_EQ(s.ToString(), "L7<2,4,1>");
}

// ---------------------------------------------------------------------
// End-to-end: stamped runs, DAG, critical path, causality invariant.
// ---------------------------------------------------------------------

std::unique_ptr<CommitSystem> MakeTracedSystem(const std::string& protocol,
                                               size_t n = 4,
                                               uint64_t seed = 7) {
  SystemConfig config;
  config.protocol = protocol;
  config.num_sites = n;
  config.seed = seed;
  config.trace = true;
  config.observe = true;
  config.observe_policy = ObserverPolicy::kCount;
  auto system = CommitSystem::Create(config);
  EXPECT_TRUE(system.ok()) << system.status().ToString();
  return std::move(*system);
}

std::vector<TraceEvent> EventsOf(CommitSystem& system) {
  return std::vector<TraceEvent>(system.trace()->events().begin(),
                                 system.trace()->events().end());
}

TEST(CausalTraceTest, EveryRecordedSiteEventIsStamped) {
  auto system = MakeTracedSystem("2PC-central");
  TransactionId txn = system->Begin();
  system->RunToCompletion(txn);
  size_t site_events = 0;
  for (const TraceEvent& e : system->trace()->events()) {
    if (e.site == kNoSite) continue;
    ++site_events;
    EXPECT_TRUE(e.stamp.stamped()) << ToString(e.type) << " " << e.detail;
  }
  EXPECT_GT(site_events, 0u);
}

TEST(CausalTraceTest, StampsSurviveJsonlRoundTrip) {
  auto system = MakeTracedSystem("3PC-central");
  TransactionId txn = system->Begin();
  system->RunToCompletion(txn);
  std::string jsonl = system->TraceJsonl();
  auto imported = ParseTraceJsonLines(jsonl);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  std::vector<TraceEvent> original = EventsOf(*system);
  ASSERT_EQ(imported->events.size(), original.size());
  for (size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(imported->events[i].stamp, original[i].stamp) << "event " << i;
  }
}

// The acceptance bar for the profiler: on every builtin protocol the
// extracted chain telescopes to (at least) 95% of the commit-path span,
// the recorded stamps are consistent with happens-before, and the online
// causality invariant never fires.
TEST(CausalTraceTest, CriticalPathCoversCommitPathOnEveryBuiltinProtocol) {
  for (const std::string& protocol : BuiltinProtocolNames()) {
    auto system = MakeTracedSystem(protocol);
    TransactionId txn = system->Begin();
    TxnResult result = system->RunToCompletion(txn);
    EXPECT_EQ(result.outcome, Outcome::kCommitted) << protocol;

    CausalDag dag = CausalDag::Build(EventsOf(*system), txn);
    EXPECT_GT(dag.events().size(), 0u) << protocol;
    EXPECT_EQ(dag.unmatched_deliveries(), 0u) << protocol;
    EXPECT_EQ(dag.ValidateClocks(nullptr), 0u) << protocol;

    CriticalPathReport report = dag.CriticalPath(system->spans().spans());
    EXPECT_TRUE(report.decided) << protocol;
    EXPECT_GE(report.coverage, 0.95) << protocol;
    EXPECT_GT(report.span(), 0u) << protocol;
    EXPECT_GE(report.hops.size(), 2u) << protocol;
    EXPECT_EQ(report.hops.front().kind, HopKind::kStart) << protocol;
    EXPECT_GT(report.message_time, 0u) << protocol;
    EXPECT_GE(report.effective_parallelism, 1.0) << protocol;

    const GlobalStateObserver* obs = system->observer();
    ASSERT_NE(obs, nullptr);
    EXPECT_EQ(obs->violation_count(InvariantKind::kCausality), 0u)
        << protocol;
    EXPECT_GT(obs->stats().checks, 0u) << protocol;
  }
}

TEST(CausalTraceTest, CrashAndTerminationStayCausallyConsistent) {
  auto system = MakeTracedSystem("3PC-central", 5);
  TransactionId txn = system->Begin();
  system->injector().CrashDuringBroadcast(1, txn, msg::kPrepare, 2);
  TxnResult result = system->RunToCompletion(txn);
  EXPECT_TRUE(result.consistent);

  CausalDag dag = CausalDag::Build(EventsOf(*system), txn);
  EXPECT_EQ(dag.ValidateClocks(nullptr), 0u);
  CriticalPathReport report = dag.CriticalPath(system->spans().spans());
  EXPECT_TRUE(report.decided);
  EXPECT_GE(report.coverage, 0.95);

  const GlobalStateObserver* obs = system->observer();
  ASSERT_NE(obs, nullptr);
  EXPECT_EQ(obs->violation_count(InvariantKind::kCausality), 0u);
}

TEST(CausalTraceTest, LinearProtocolIsFullySequential) {
  // L2PC chains its messages one after another: every delivered message
  // sits on the critical path, so total transit == span of the chain.
  auto system = MakeTracedSystem("L2PC-linear");
  TransactionId txn = system->Begin();
  system->RunToCompletion(txn);
  CausalDag dag = CausalDag::Build(EventsOf(*system), txn);
  CriticalPathReport report = dag.CriticalPath(system->spans().spans());
  EXPECT_NEAR(report.effective_parallelism, 1.0, 0.05);
  for (const MessageSlack& ms : report.slack) {
    EXPECT_EQ(ms.slack, 0u) << ms.type << " " << ms.from << "->" << ms.to;
  }
}

TEST(CausalTraceTest, BroadcastProtocolHasSlack) {
  // A central 3PC broadcast overlaps n-1 messages per round: parallelism
  // well above 1, and the non-binding votes/acks carry slack.
  auto system = MakeTracedSystem("3PC-central", 5);
  TransactionId txn = system->Begin();
  system->RunToCompletion(txn);
  CausalDag dag = CausalDag::Build(EventsOf(*system), txn);
  CriticalPathReport report = dag.CriticalPath(system->spans().spans());
  EXPECT_GT(report.effective_parallelism, 1.5);
  size_t with_slack = 0;
  for (const MessageSlack& ms : report.slack) {
    if (ms.slack > 0) ++with_slack;
  }
  EXPECT_GT(with_slack, 0u);
}

TEST(CausalTraceTest, PhaseAttributionUsesSpans) {
  auto system = MakeTracedSystem("3PC-central");
  TransactionId txn = system->Begin();
  system->RunToCompletion(txn);
  CausalDag dag = CausalDag::Build(EventsOf(*system), txn);
  CriticalPathReport report = dag.CriticalPath(system->spans().spans());
  // Every hop lands inside a recorded span, and the by-phase attribution
  // sums to the on-path total.
  SimTime attributed = 0;
  for (const auto& [phase, t] : report.by_phase) {
    EXPECT_NE(phase, "unattributed");
    attributed += t;
  }
  EXPECT_EQ(attributed, report.message_time + report.local_time);
}

TEST(CausalTraceTest, TraceTransactionsListsEachOnce) {
  auto system = MakeTracedSystem("2PC-central");
  TransactionId t1 = system->Begin();
  system->RunToCompletion(t1);
  TransactionId t2 = system->Begin();
  system->RunToCompletion(t2);
  std::vector<TransactionId> txns = TraceTransactions(EventsOf(*system));
  EXPECT_EQ(txns, (std::vector<TransactionId>{t1, t2}));
}

TEST(CausalTraceTest, ValidateClocksFlagsCorruptedStamp) {
  auto system = MakeTracedSystem("2PC-central");
  TransactionId txn = system->Begin();
  system->RunToCompletion(txn);
  std::vector<TraceEvent> events = EventsOf(*system);
  // Corrupt one delivery: regress its stamp below the matching send's.
  bool corrupted = false;
  for (TraceEvent& e : events) {
    if (e.type == TraceEventType::kMessageDelivered && e.stamp.stamped()) {
      e.stamp.lamport = 0;
      e.stamp.vc.assign(e.stamp.vc.size(), 0);
      corrupted = true;
      break;
    }
  }
  ASSERT_TRUE(corrupted);
  CausalDag dag = CausalDag::Build(events, txn);
  std::vector<std::string> findings;
  EXPECT_GT(dag.ValidateClocks(&findings), 0u);
  ASSERT_FALSE(findings.empty());
  EXPECT_NE(findings.front().find("contradicts happens-before"),
            std::string::npos);
}

TEST(CausalTraceTest, ObserverReplayFlagsCorruptedStamp) {
  // The same corruption must trip the online kCausality invariant when the
  // events are replayed through the offline observer.
  auto system = MakeTracedSystem("2PC-central");
  TransactionId txn = system->Begin();
  system->RunToCompletion(txn);
  std::vector<TraceEvent> events = EventsOf(*system);
  for (TraceEvent& e : events) {
    if (e.type == TraceEventType::kMessageDelivered && e.stamp.stamped()) {
      e.stamp.lamport = 0;
      e.stamp.vc.assign(e.stamp.vc.size(), 0);
      break;
    }
  }
  auto spec = MakeProtocol("2PC-central");
  ASSERT_TRUE(spec.ok());
  auto replay = ReplayGlobalStates(*spec, 4, events);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  bool found = false;
  for (const InvariantViolation& v : replay->violations) {
    if (v.kind == InvariantKind::kCausality) found = true;
  }
  EXPECT_TRUE(found) << "kCausality did not fire on a regressed stamp";
}

TEST(CausalTraceTest, UntracedSystemStillTicksClocks) {
  // Clocks live in the transports, not the recorder: a system without a
  // trace recorder still maintains a consistent domain.
  SystemConfig config;
  config.protocol = "2PC-central";
  config.num_sites = 3;
  config.seed = 5;
  auto system = CommitSystem::Create(config);
  ASSERT_TRUE(system.ok());
  TransactionId txn = (*system)->Begin();
  (*system)->RunToCompletion(txn);
  for (SiteId s = 1; s <= 3; ++s) {
    EXPECT_GT((*system)->clocks().Current(s).lamport, 0u) << "site " << s;
  }
}

// Vector stamps are kept only when something reads them.

TEST(CausalTraceTest, UntracedSystemKeepsLamportOnly) {
  SystemConfig config;
  config.protocol = "3PC-central";
  config.num_sites = 4;
  auto system = CommitSystem::Create(config);
  ASSERT_TRUE(system.ok());
  (*system)->RunToCompletion((*system)->Begin());
  for (SiteId s = 1; s <= 4; ++s) {
    ClockStamp now = (*system)->clocks().Current(s);
    EXPECT_GT(now.lamport, 0u) << "site " << s;
    EXPECT_FALSE(now.stamped()) << "site " << s;
  }
}

TEST(CausalTraceTest, EveryStampReaderGetsVectors) {
  const size_t n = 4;
  for (int reader = 0; reader < 4; ++reader) {
    SCOPED_TRACE(reader);
    SystemConfig config;
    config.protocol = "3PC-central";
    config.num_sites = n;
    config.observe_policy = ObserverPolicy::kCount;
    config.trace = reader == 0;
    config.observe = reader == 1;
    config.blocking = reader == 2;
    if (reader == 3) {
      config.backend = SystemConfig::Backend::kThreaded;
      config.record_schedule = true;
    }
    auto system = CommitSystem::Create(config);
    ASSERT_TRUE(system.ok());
    TxnResult result = (*system)->RunToCompletion((*system)->Begin());
    EXPECT_EQ(result.outcome, Outcome::kCommitted);
    for (SiteId s = 1; s <= n; ++s) {
      EXPECT_EQ((*system)->clocks().Current(s).vc.size(), n) << "site " << s;
    }
  }
}

TEST(CausalTraceTest, StampingDoesNotChangeTheRun) {
  // One seed, with and without a trace recorder: the same outcomes, the
  // same messages and the same virtual times, transaction by transaction.
  for (const std::string& protocol : BuiltinProtocolNames()) {
    SCOPED_TRACE(protocol);
    std::vector<TxnResult> runs[2];
    for (int traced = 0; traced < 2; ++traced) {
      SystemConfig config;
      config.protocol = protocol;
      config.num_sites = 4;
      config.seed = 11;
      config.trace = traced == 1;
      auto system = CommitSystem::Create(config);
      ASSERT_TRUE(system.ok());
      for (int i = 0; i < 8; ++i) {
        TransactionId txn = (*system)->Begin();
        if (i % 3 == 2) (*system)->SetVote(txn, 2, false);
        runs[traced].push_back((*system)->RunToCompletion(txn));
      }
    }
    for (size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[0][i].outcome, runs[1][i].outcome) << "txn " << i;
      EXPECT_EQ(runs[0][i].messages, runs[1][i].messages) << "txn " << i;
      EXPECT_EQ(runs[0][i].start_time, runs[1][i].start_time) << "txn " << i;
      EXPECT_EQ(runs[0][i].end_time, runs[1][i].end_time) << "txn " << i;
    }
  }
}

}  // namespace
}  // namespace nbcp
