#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/conformance.h"
#include "analysis/state_graph.h"
#include "core/transaction_manager.h"
#include "explore/explorer.h"
#include "protocols/protocols.h"
#include "protocols/registry.h"
#include "runtime/inflight.h"
#include "runtime/runtime.h"
#include "runtime/threaded_transport.h"
#include "runtime/wall_clock.h"
#include "trace/trace.h"

namespace nbcp {
namespace {

// ---------------------------------------------------------------------------
// WallClock

TEST(WallClockTest, TimersFireInOrderAndTickCausalClocks) {
  InflightCounter inflight;
  WallClock clock(/*seed=*/1);
  clock.set_inflight(&inflight);
  CausalClockDomain clocks(2);
  clock.set_clocks(&clocks);

  std::mutex m;
  std::vector<int> fired;
  clock.ScheduleTimer(2000, 1, [&] {
    std::lock_guard<std::mutex> lock(m);
    fired.push_back(2);
  });
  clock.ScheduleTimer(200, 1, [&] {
    std::lock_guard<std::mutex> lock(m);
    fired.push_back(1);
  });
  ASSERT_TRUE(inflight.WaitZero(5000));
  std::lock_guard<std::mutex> lock(m);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  // Two kTimer events on site 1 ticked its Lamport clock twice.
  EXPECT_GE(clocks.Current(1).lamport, 2u);
  EXPECT_FALSE(clock.virtual_time());
  EXPECT_GE(clock.now(), 2000u);
}

TEST(WallClockTest, CancelPreventsFiringAndReleasesInflight) {
  InflightCounter inflight;
  WallClock clock(1);
  clock.set_inflight(&inflight);
  std::atomic<bool> fired{false};
  EventId id = clock.ScheduleTimer(60'000'000, 1, [&] { fired = true; });
  EXPECT_EQ(clock.PendingTimers(), 1u);
  clock.Cancel(id);
  EXPECT_EQ(clock.PendingTimers(), 0u);
  // With the far-future timer canceled the counter is already at zero.
  ASSERT_TRUE(inflight.WaitZero(1000));
  EXPECT_FALSE(fired.load());
}

TEST(WallClockTest, ShutdownDropsPendingTimers) {
  InflightCounter inflight;
  WallClock clock(1);
  clock.set_inflight(&inflight);
  std::atomic<bool> fired{false};
  clock.ScheduleTimer(60'000'000, 1, [&] { fired = true; });
  clock.Shutdown();
  ASSERT_TRUE(inflight.WaitZero(1000));
  EXPECT_FALSE(fired.load());
  // Scheduling after shutdown is a no-op, not a leak.
  EXPECT_EQ(clock.ScheduleTimer(10, 1, [&] { fired = true; }), 0u);
  ASSERT_TRUE(inflight.WaitZero(1000));
}

// ---------------------------------------------------------------------------
// ThreadedTransport

TEST(ThreadedTransportTest, DeliversBetweenWorkersWithCausalStamps) {
  InflightCounter inflight;
  WallClock clock(1);
  ThreadedTransport transport(&clock);
  transport.set_inflight(&inflight);
  CausalClockDomain clocks(2);
  transport.set_clocks(&clocks);

  std::mutex m;
  std::vector<std::string> seen;
  ASSERT_TRUE(transport.RegisterSite(1, [](const Message&) {}).ok());
  ASSERT_TRUE(transport
                  .RegisterSite(2,
                                [&](const Message& msg) {
                                  std::lock_guard<std::mutex> lock(m);
                                  seen.push_back(msg.type);
                                })
                  .ok());

  Message msg;
  msg.from = 1;
  msg.to = 2;
  msg.type = "ping";
  ASSERT_TRUE(transport.Send(msg).ok());
  ASSERT_TRUE(inflight.WaitZero(5000));

  {
    std::lock_guard<std::mutex> lock(m);
    EXPECT_EQ(seen, (std::vector<std::string>{"ping"}));
  }
  NetworkStats stats = transport.StatsSnapshot();
  EXPECT_EQ(stats.messages_sent, 1u);
  EXPECT_EQ(stats.messages_delivered, 1u);
  EXPECT_EQ(stats.messages_dropped, 0u);
  // Send ticked site 1, delivery merged into site 2.
  EXPECT_GE(clocks.Current(2).lamport, clocks.Current(1).lamport);
  transport.Shutdown();
  clock.Shutdown();
}

TEST(ThreadedTransportTest, BackpressureBoundsInboxDepth) {
  InflightCounter inflight;
  WallClock clock(1);
  ThreadedTransport::Options opt;
  opt.inbox_capacity = 4;
  ThreadedTransport transport(&clock, opt);
  transport.set_inflight(&inflight);

  std::atomic<int> handled{0};
  ASSERT_TRUE(transport.RegisterSite(1, [](const Message&) {}).ok());
  ASSERT_TRUE(transport
                  .RegisterSite(2,
                                [&](const Message&) {
                                  std::this_thread::sleep_for(
                                      std::chrono::microseconds(200));
                                  ++handled;
                                })
                  .ok());

  Message msg;
  msg.from = 1;
  msg.to = 2;
  msg.type = "bulk";
  // Far more sends than the inbox holds: the driver blocks on the bound
  // whenever the slow receiver falls behind, so the high-water mark never
  // exceeds the configured capacity.
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(transport.Send(msg).ok());
  ASSERT_TRUE(inflight.WaitZero(10000));
  EXPECT_EQ(handled.load(), 64);
  EXPECT_LE(transport.max_inbox_depth(), 4u);
  EXPECT_GE(transport.max_inbox_depth(), 1u);
  transport.Shutdown();
  clock.Shutdown();
}

TEST(ThreadedTransportTest, PostSyncRunsInTheSiteWorkerContext) {
  InflightCounter inflight;
  WallClock clock(1);
  ThreadedTransport transport(&clock);
  transport.set_inflight(&inflight);

  std::atomic<bool> handler_ran{false};
  std::thread::id worker_id;
  std::mutex m;
  ASSERT_TRUE(transport
                  .RegisterSite(1,
                                [&](const Message&) {
                                  std::lock_guard<std::mutex> lock(m);
                                  worker_id = std::this_thread::get_id();
                                  handler_ran = true;
                                })
                  .ok());
  Message msg;
  msg.from = 1;
  msg.to = 1;
  msg.type = "self";
  ASSERT_TRUE(transport.Send(msg).ok());
  ASSERT_TRUE(inflight.WaitZero(5000));
  ASSERT_TRUE(handler_ran.load());

  std::thread::id sync_id;
  bool nested_inline = false;
  transport.PostSync(1, [&] {
    sync_id = std::this_thread::get_id();
    // A PostSync from the worker to itself must run inline, not deadlock.
    bool* flag = &nested_inline;
    transport.PostSync(1, [flag] { *flag = true; });
  });
  {
    std::lock_guard<std::mutex> lock(m);
    EXPECT_EQ(sync_id, worker_id);
  }
  EXPECT_TRUE(nested_inline);
  EXPECT_NE(sync_id, std::this_thread::get_id());
  transport.Shutdown();
  clock.Shutdown();
}

TEST(ThreadedTransportTest, DownSitesAndCutLinksDropAtPopTime) {
  InflightCounter inflight;
  WallClock clock(1);
  ThreadedTransport transport(&clock);
  transport.set_inflight(&inflight);

  std::atomic<int> delivered{0};
  ASSERT_TRUE(transport.RegisterSite(1, [](const Message&) {}).ok());
  ASSERT_TRUE(
      transport.RegisterSite(2, [&](const Message&) { ++delivered; }).ok());

  Message msg;
  msg.from = 1;
  msg.to = 2;
  msg.type = "m";

  transport.SetSiteDown(2);
  ASSERT_TRUE(transport.Send(msg).ok());
  ASSERT_TRUE(inflight.WaitZero(5000));
  EXPECT_EQ(delivered.load(), 0);
  EXPECT_EQ(transport.StatsSnapshot().messages_dropped, 1u);
  EXPECT_FALSE(transport.IsSiteUp(2));

  // A down sender cannot send at all.
  Message from_down;
  from_down.from = 2;
  from_down.to = 1;
  from_down.type = "m";
  EXPECT_TRUE(transport.Send(from_down).IsUnavailable());

  transport.SetSiteUp(2);
  transport.CutLink(1, 2);
  ASSERT_TRUE(transport.Send(msg).ok());
  ASSERT_TRUE(inflight.WaitZero(5000));
  EXPECT_EQ(delivered.load(), 0);
  EXPECT_EQ(transport.StatsSnapshot().messages_dropped, 2u);

  transport.RestoreLink(1, 2);
  ASSERT_TRUE(transport.Send(msg).ok());
  ASSERT_TRUE(inflight.WaitZero(5000));
  EXPECT_EQ(delivered.load(), 1);
  transport.Shutdown();
  clock.Shutdown();
}

// ---------------------------------------------------------------------------
// Cross-backend parity

std::unique_ptr<CommitSystem> MakeBackendSystem(const std::string& protocol,
                                                size_t n,
                                                SystemConfig::Backend backend,
                                                uint64_t seed = 7) {
  SystemConfig config;
  config.protocol = protocol;
  config.num_sites = n;
  config.seed = seed;
  config.backend = backend;
  config.delay = DelayModel{100, 0};
  // Wide detection window: on the threaded backend the driver's
  // sequential site launches take real time, and a detection firing
  // mid-launch would decide termination before every site has started —
  // a logical order the simulator (which launches at virtual t=0) can
  // never produce. 5ms eclipses the launch sequence on any machine.
  config.detection_delay = 5000;
  auto system = CommitSystem::Create(config);
  EXPECT_TRUE(system.ok()) << system.status().ToString();
  return std::move(*system);
}

void ExpectSameResult(const TxnResult& sim, const TxnResult& threaded,
                      const std::string& label) {
  EXPECT_EQ(sim.outcome, threaded.outcome) << label;
  EXPECT_EQ(sim.consistent, threaded.consistent) << label;
  EXPECT_EQ(sim.decided_sites, threaded.decided_sites) << label;
  EXPECT_EQ(sim.blocked_sites, threaded.blocked_sites) << label;
  ASSERT_EQ(sim.site_outcomes.size(), threaded.site_outcomes.size()) << label;
  for (const auto& [site, outcome] : sim.site_outcomes) {
    auto it = threaded.site_outcomes.find(site);
    ASSERT_NE(it, threaded.site_outcomes.end()) << label;
    EXPECT_EQ(outcome, it->second) << label << " site " << site;
  }
}

TEST(BackendParityTest, FailureFreeCommitMatchesOnEveryBuiltin) {
  for (const std::string& protocol : BuiltinProtocolNames()) {
    for (size_t n : {2u, 3u, 4u}) {
      auto sim = MakeBackendSystem(protocol, n, SystemConfig::Backend::kSim);
      auto thr =
          MakeBackendSystem(protocol, n, SystemConfig::Backend::kThreaded);
      TxnResult rs = sim->RunToCompletion(sim->Begin());
      TxnResult rt = thr->RunToCompletion(thr->Begin());
      ExpectSameResult(rs, rt, protocol + "/n=" + std::to_string(n));
      EXPECT_EQ(rt.outcome, Outcome::kCommitted) << protocol;
    }
  }
}

TEST(BackendParityTest, SingleNoVoteMatchesOnEveryBuiltin) {
  for (const std::string& protocol : BuiltinProtocolNames()) {
    for (size_t n : {2u, 3u, 4u}) {
      auto sim = MakeBackendSystem(protocol, n, SystemConfig::Backend::kSim);
      auto thr =
          MakeBackendSystem(protocol, n, SystemConfig::Backend::kThreaded);
      TransactionId ts = sim->Begin();
      sim->SetVote(ts, 2, false);
      TxnResult rs = sim->RunToCompletion(ts);
      TransactionId tt = thr->Begin();
      thr->SetVote(tt, 2, false);
      TxnResult rt = thr->RunToCompletion(tt);
      ExpectSameResult(rs, rt, protocol + "/n=" + std::to_string(n));
      // 1PC ignores slave votes (the paper's critique); everyone else
      // aborts on a single no.
      if (protocol != "1PC-central") {
        EXPECT_EQ(rt.outcome, Outcome::kAborted) << protocol;
      }
    }
  }
}

TEST(BackendParityTest, CoordinatorCrashMatchesOnEveryBuiltin) {
  // Per-protocol crash scenario, deterministic on both backends: a site
  // crashes mid-broadcast at a fixed logical point (the trap counts
  // delivered copies, not time). A wall-clock crash-before-launch would
  // race the 500us failure detection against launch on the threaded
  // backend, so every scenario is anchored to a message instead.
  // Termination deadlines (>= 20ms) dwarf real message latency
  // (microseconds), so the threaded schedule cannot reorder the
  // decisive steps.
  // Sentinels for the decentralized rows, resolved against n below.
  constexpr SiteId kLastSite = 0;
  constexpr size_t kAllButPredecessor = static_cast<size_t>(-1);
  struct Scenario {
    const char* msg_type;
    SiteId site;    ///< kLastSite = site n (the last one launched).
    size_t allow;   ///< kAllButPredecessor = n-2 copies delivered.
  };
  const std::map<std::string, Scenario> scenarios = {
      {"1PC-central", {msg::kCommit, 1, 1}},
      {"2PC-central", {msg::kCommit, 1, 1}},
      {"3PC-central", {msg::kPrepare, 1, 1}},
      {"Q3PC-central", {msg::kPrepare, 1, 1}},
      {"L2PC-linear", {msg::kXact, 1, 0}},
      // Decentralized: the LAST-launched site (n) crashes while
      // broadcasting its yes-vote, delivering to sites 1..n-2 but not to
      // site n-1 (or itself). Sites 1..n-2 hold full vote sets and decide
      // alone; site n-1 terminates after detection and adopts their
      // decision. Crashing site n keeps the scenario deterministic on
      // both backends: the simulator starts all sites atomically at
      // virtual t=0, while the threaded driver's launches take real
      // time — a crash during an EARLIER site's launch would let
      // StartTransaction on a later site observe the failure and
      // short-circuit into termination, a schedule the simulator can
      // never produce.
      {"2PC-decentralized", {msg::kYes, kLastSite, kAllButPredecessor}},
      {"3PC-decentralized", {msg::kYes, kLastSite, kAllButPredecessor}},
  };
  for (const std::string& protocol : BuiltinProtocolNames()) {
    const Scenario& scenario = scenarios.at(protocol);
    for (size_t n : {3u, 4u}) {
      auto run = [&](SystemConfig::Backend backend) {
        auto system = MakeBackendSystem(protocol, n, backend);
        TransactionId txn = system->Begin();
        SiteId site = scenario.site == kLastSite
                          ? static_cast<SiteId>(n)
                          : scenario.site;
        size_t allow = scenario.allow == kAllButPredecessor
                           ? n - 2
                           : scenario.allow;
        system->injector().CrashDuringBroadcast(site, txn,
                                                scenario.msg_type, allow);
        return system->RunToCompletion(txn);
      };
      TxnResult rs = run(SystemConfig::Backend::kSim);
      TxnResult rt = run(SystemConfig::Backend::kThreaded);
      ExpectSameResult(rs, rt, protocol + "/crash/n=" + std::to_string(n));
      EXPECT_TRUE(rt.consistent) << protocol;
    }
  }
}

TEST(BackendParityTest, ObserverInvariantCountsMatch) {
  for (const std::string& protocol : BuiltinProtocolNames()) {
    auto run = [&](SystemConfig::Backend backend) {
      SystemConfig config;
      config.protocol = protocol;
      config.num_sites = 3;
      config.backend = backend;
      config.observe = true;
      config.delay = DelayModel{100, 0};
      auto system = CommitSystem::Create(config);
      EXPECT_TRUE(system.ok()) << system.status().ToString();
      TxnResult result = (*system)->RunToCompletion((*system)->Begin());
      EXPECT_EQ(result.outcome, Outcome::kCommitted) << protocol;
      return (*system)->observer()->stats();
    };
    ObserverStats sim = run(SystemConfig::Backend::kSim);
    ObserverStats thr = run(SystemConfig::Backend::kThreaded);
    EXPECT_EQ(sim.violations, 0u) << protocol;
    EXPECT_EQ(thr.violations, 0u) << protocol;
    // Same deterministic event set on both backends -> same check count.
    EXPECT_EQ(sim.checks, thr.checks) << protocol;
    EXPECT_GT(thr.checks, 0u) << protocol;
  }
}

TEST(BackendParityTest, ThreadedObserveWorksWithABoundedTraceBuffer) {
  // The observer is fed each merged batch before it is stored, so a ring
  // buffer bounds only the stored copy.
  SystemConfig config;
  config.protocol = "2PC-central";
  config.num_sites = 2;
  config.backend = SystemConfig::Backend::kThreaded;
  config.observe = true;
  config.trace = true;
  config.trace_capacity = 64;
  auto system = CommitSystem::Create(config);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  for (int i = 0; i < 8; ++i) {
    TxnResult result = (*system)->RunToCompletion((*system)->Begin());
    EXPECT_EQ(result.outcome, Outcome::kCommitted);
  }
  EXPECT_EQ((*system)->observer()->stats().violations, 0u);
  EXPECT_GT((*system)->observer()->stats().checks, 0u);
  EXPECT_EQ((*system)->trace()->events().size(), 64u);
  EXPECT_GT((*system)->trace()->dropped(), 0u);
}

// ---------------------------------------------------------------------------
// Conformance of threaded executions

TEST(ThreadedConformanceTest, TracesRefineTheAbstractStateGraph) {
  for (const std::string& protocol :
       {std::string("2PC-central"), std::string("3PC-central"),
        std::string("3PC-decentralized")}) {
    auto spec = MakeProtocol(protocol);
    ASSERT_TRUE(spec.ok());
    const size_t n = 3;
    GraphOptions graph_opt;
    graph_opt.symmetry_reduction = false;
    auto graph = ReachableStateGraph::Build(*spec, n, graph_opt);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();

    SystemConfig config;
    config.num_sites = n;
    config.backend = SystemConfig::Backend::kThreaded;
    config.trace = true;
    auto system = CommitSystem::CreateWithSpec(config, *spec);
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    TxnResult result = (*system)->RunToCompletion((*system)->Begin());
    ASSERT_EQ(result.outcome, Outcome::kCommitted) << protocol;

    // The recorder's store order is a linearization of the causal order
    // (every send is recorded before the delivery it triggers), so the
    // checker can replay it like a simulator sink stream.
    std::vector<bool> votes(n, true);
    ConformanceChecker checker(&*spec, n, &*graph, 1, votes);
    for (const TraceEvent& e : (*system)->trace()->events()) {
      checker.OnEvent(e);
    }
    checker.Finish(/*expect_decided=*/true);
    EXPECT_TRUE(checker.divergences().empty())
        << protocol << ": " << checker.divergences().front().ToString();
    EXPECT_TRUE(checker.violations().empty())
        << protocol << ": " << checker.violations().front().ToString();
    EXPECT_FALSE(checker.degraded()) << protocol;
    EXPECT_GT(checker.firings(), 0u) << protocol;
  }
}

TEST(ThreadedConformanceTest, PipelinedBatchesOfEveryBuiltinRefineTheGraph) {
  // Sixteen transactions in flight at once, the workers running in
  // parallel: the merged per-site buffers must still be a run of the model
  // for every transaction.
  constexpr int kBatch = 16;
  const size_t n = 3;
  for (const std::string& protocol : BuiltinProtocolNames()) {
    auto spec = MakeProtocol(protocol);
    ASSERT_TRUE(spec.ok());
    GraphOptions graph_opt;
    graph_opt.symmetry_reduction = false;
    auto graph = ReachableStateGraph::Build(*spec, n, graph_opt);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();

    SystemConfig config;
    config.num_sites = n;
    config.backend = SystemConfig::Backend::kThreaded;
    config.trace = true;
    config.observe = true;
    auto system = CommitSystem::CreateWithSpec(config, *spec);
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    std::vector<TransactionId> txns;
    for (int i = 0; i < kBatch; ++i) {
      txns.push_back((*system)->Begin());
      ASSERT_TRUE((*system)->Launch(txns.back()).ok());
    }
    for (TransactionId txn : txns) {
      EXPECT_EQ((*system)->AwaitQuiescence(txn).outcome, Outcome::kCommitted)
          << protocol << " txn " << txn;
    }
    EXPECT_EQ((*system)->observer()->stats().violations, 0u) << protocol;

    std::vector<bool> votes(n, true);
    for (TransactionId txn : txns) {
      ConformanceChecker checker(&*spec, n, &*graph, txn, votes);
      for (const TraceEvent& e : (*system)->trace()->events()) {
        checker.OnEvent(e);
      }
      checker.Finish(/*expect_decided=*/true);
      EXPECT_TRUE(checker.divergences().empty())
          << protocol << " txn " << txn << ": "
          << checker.divergences().front().ToString();
      EXPECT_TRUE(checker.violations().empty())
          << protocol << " txn " << txn << ": "
          << checker.violations().front().ToString();
      EXPECT_GT(checker.firings(), 0u) << protocol;
    }
  }
}

TEST(ThreadedObserveTest, CoordinatorCrashRoundHasNoObserverViolations) {
  SystemConfig config;
  config.protocol = "3PC-central";
  config.num_sites = 4;
  config.backend = SystemConfig::Backend::kThreaded;
  config.detection_delay = 5000;  // See MakeBackendSystem.
  config.trace = true;
  config.observe = true;
  auto system = CommitSystem::Create(config);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  TransactionId txn = (*system)->Begin();
  (*system)->injector().CrashDuringBroadcast(1, txn, msg::kPrepare, 1);
  TxnResult result = (*system)->RunToCompletion(txn);
  EXPECT_TRUE(result.consistent);
  EXPECT_NE(result.outcome, Outcome::kUndecided) << result.ToString();
  EXPECT_TRUE(result.used_termination);
  EXPECT_EQ((*system)->observer()->stats().violations, 0u);

  // The merged trace is a linearization: every delivery or drop comes
  // after its send, and the crash is in it.
  std::set<uint64_t> sent;
  size_t crashes = 0;
  for (const TraceEvent& e : (*system)->trace()->events()) {
    if (e.type == TraceEventType::kMessageSent) sent.insert(e.seq);
    if (e.type == TraceEventType::kMessageDelivered ||
        e.type == TraceEventType::kMessageDropped) {
      EXPECT_EQ(sent.count(e.seq), 1u) << "seq " << e.seq;
    }
    if (e.type == TraceEventType::kCrash) ++crashes;
  }
  EXPECT_EQ(crashes, 1u);
}

// ---------------------------------------------------------------------------
// Recorded schedules: the threaded run's determinization

std::vector<ScheduleChoice> ToChoices(const std::vector<ScheduleRecord>& log) {
  std::vector<ScheduleChoice> choices;
  choices.reserve(log.size());
  for (const ScheduleRecord& record : log) {
    ScheduleChoice choice;
    if (record.kind == 's') {
      choice.kind = ScheduleChoice::Kind::kStart;
      choice.site = record.site;
    } else {
      choice.kind = ScheduleChoice::Kind::kDeliver;
      choice.site = record.site;
      choice.from = record.from;
      choice.msg_type = record.msg_type;
      choice.dup = record.dup;
    }
    choices.push_back(std::move(choice));
  }
  return choices;
}

TEST(ThreadedScheduleTest, SnapshotPutsOutOfOrderAppendsInCausalOrder) {
  // Workers append in parallel, so the log can hold a delivery before the
  // start that caused it; Snapshot orders by (Lamport value, site).
  auto record = [](char kind, SiteId site, SiteId from, uint64_t lamport) {
    ScheduleRecord r;
    r.kind = kind;
    r.site = site;
    r.from = from;
    r.msg_type = kind == 'd' ? "xact" : "";
    r.stamp.lamport = lamport;
    return r;
  };
  ScheduleLog log;
  log.Append(record('d', 3, 1, 3));  // Site 1's second send, delivered.
  log.Append(record('d', 1, 2, 5));  // Site 2's reply.
  log.Append(record('d', 2, 1, 3));  // Site 1's first send, delivered.
  log.Append(record('s', 1, kNoSite, 1));
  std::vector<ScheduleRecord> snapshot = log.Snapshot();
  ASSERT_EQ(snapshot.size(), 4u);
  EXPECT_EQ(snapshot[0].kind, 's');
  EXPECT_EQ(snapshot[1].site, 2u);
  EXPECT_EQ(snapshot[2].site, 3u);
  EXPECT_EQ(snapshot[3].site, 1u);
  EXPECT_EQ(snapshot[3].from, 2u);
  // The log itself keeps the append order.
  EXPECT_EQ(log.size(), 4u);
}

TEST(ThreadedScheduleTest, RecordedScheduleReplaysCleanlyInExplorer) {
  for (const std::string& protocol :
       {std::string("2PC-central"), std::string("2PC-decentralized")}) {
    const size_t n = 3;
    SystemConfig config;
    config.protocol = protocol;
    config.num_sites = n;
    config.backend = SystemConfig::Backend::kThreaded;
    config.record_schedule = true;
    auto system = CommitSystem::Create(config);
    ASSERT_TRUE(system.ok()) << system.status().ToString();
    TxnResult result = (*system)->RunToCompletion((*system)->Begin());
    ASSERT_EQ(result.outcome, Outcome::kCommitted) << protocol;
    ASSERT_NE((*system)->runtime(), nullptr);

    std::vector<ScheduleRecord> log =
        (*system)->runtime()->schedule_log().Snapshot();
    ASSERT_FALSE(log.empty()) << protocol;
    // Every record carries a causal stamp; Lamport time is monotone along
    // each site's own subsequence of the log.
    std::map<SiteId, uint64_t> last_lamport;
    size_t starts = 0;
    for (const ScheduleRecord& record : log) {
      if (record.kind == 's') ++starts;
      EXPECT_GT(record.stamp.lamport, last_lamport[record.site]);
      last_lamport[record.site] = record.stamp.lamport;
    }
    EXPECT_EQ(starts, protocol == "2PC-central" ? 1u : n);

    // Round-trip through the witness-schedule serialization.
    std::vector<bool> votes(n, true);
    std::vector<ScheduleChoice> schedule = ToChoices(log);
    std::string jsonl =
        ScheduleToJsonLines(protocol, n, votes, schedule);
    auto parsed = ParseScheduleJsonLines(jsonl);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_EQ(parsed->choices.size(), schedule.size());
    for (size_t i = 0; i < schedule.size(); ++i) {
      EXPECT_EQ(parsed->choices[i].Key(), schedule[i].Key()) << i;
    }

    // The real interleaving the threads produced is a schedule the model
    // explorer accepts and finds conformant.
    auto spec = MakeProtocol(protocol);
    ASSERT_TRUE(spec.ok());
    ExploreOptions opt;
    opt.num_sites = n;
    opt.all_vote_vectors = false;
    opt.votes = votes;
    auto report = ReplaySchedule(*spec, opt, votes, parsed->choices);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->ExitCode(), 0)
        << protocol << ": divergent=" << report->divergent_schedules
        << " violating=" << report->violating_schedules;
  }
}

// ---------------------------------------------------------------------------
// Throughput sanity: concurrent sites beat the driver-thread sim on wall
// time only in the bench (machine-dependent); here just verify the
// threaded backend sustains a pipelined burst and stays consistent.

TEST(ThreadedRuntimeTest, PipelinedTransactionsAllCommit) {
  SystemConfig config;
  config.protocol = "2PC-central";
  config.num_sites = 4;
  config.backend = SystemConfig::Backend::kThreaded;
  auto system = CommitSystem::Create(config);
  ASSERT_TRUE(system.ok());
  constexpr int kBatch = 32;
  std::vector<TransactionId> txns;
  for (int i = 0; i < kBatch; ++i) {
    TransactionId txn = (*system)->Begin();
    txns.push_back(txn);
    ASSERT_TRUE((*system)->Launch(txn).ok());
  }
  for (TransactionId txn : txns) {
    TxnResult result = (*system)->AwaitQuiescence(txn);
    EXPECT_EQ(result.outcome, Outcome::kCommitted) << txn;
    EXPECT_TRUE(result.consistent);
  }
  EXPECT_EQ((*system)->metrics().committed, static_cast<uint64_t>(kBatch));
}

}  // namespace
}  // namespace nbcp
