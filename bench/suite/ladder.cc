#include "ladder.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <utility>

#include "alloc_count.h"
#include "analysis/concurrency_set.h"
#include "analysis/state_graph.h"
#include "common/causal_clock.h"
#include "db/kv_store.h"
#include "db/local_transaction.h"
#include "db/lock_manager.h"
#include "db/wal.h"
#include "measure.h"
#include "net/network.h"
#include "obs/blocking.h"
#include "obs/observer.h"
#include "protocols/engine.h"
#include "protocols/registry.h"
#include "runtime/runtime.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace nbcp::bench {
namespace {

/// Each single-threaded replay runs this often on fresh state; its median
/// time counts.
constexpr int kLadderReps = 3;
/// Transactions of the traced CommitSystem that supplies the message and
/// event streams: a prefix of the workload's history, at most a quarter.
constexpr size_t kCaptureTxns = 512;
/// Messages replayed through the threaded transport, and PostSync calls.
constexpr size_t kRuntimeMsgs = 20000;
constexpr size_t kPostSyncCalls = 2000;

/// Time and allocations of a replay, summed over the workload's systems.
struct Cost {
  double ns = 0;
  uint64_t allocs = 0;
  uint64_t units = 0;

  double NsPer() const { return units == 0 ? 0 : ns / Units(); }
  double AllocsPer() const {
    return units == 0 ? 0 : static_cast<double>(allocs) / Units();
  }
  double Units() const { return static_cast<double>(units); }
};

/// Runs `replay` on fresh `make()` state kLadderReps times: the median time
/// and the last repetition's allocations are added to `cost`. Building and
/// destroying the state is neither timed nor counted. Returns the last
/// state for the caller's checks.
template <typename Make, typename Replay>
auto Measure(Make make, Replay replay, Cost* cost) {
  std::vector<double> ns;
  decltype(make()) state;
  AllocSnapshot allocs;
  for (int rep = 0; rep < kLadderReps; ++rep) {
    state = make();
    AllocScope scope;
    const int64_t start = NowNs();
    replay(*state);
    ns.push_back(static_cast<double>(NowNs() - start));
    allocs = scope.Delta();
  }
  cost->ns += Median(ns);
  cost->allocs += allocs.allocs;
  return state;
}

/// Delivers sends in FIFO order on the calling thread, with no delay, no
/// fault model and no clock stamps: the floor under the protocol engine.
class DirectTransport final : public Transport {
 public:
  Status RegisterSite(SiteId site, Handler handler) override {
    if (handlers_.size() < site) handlers_.resize(site);
    handlers_[site - 1] = std::move(handler);
    return Status::OK();
  }
  Status Send(Message msg) override {
    queue_.push_back(std::move(msg));
    return Status::OK();
  }
  void Drain() {
    while (!queue_.empty()) {
      Message m = std::move(queue_.front());
      queue_.pop_front();
      handlers_[m.to - 1](m);
    }
  }

  void SetSiteDown(SiteId) override {}
  void SetSiteUp(SiteId) override {}
  bool IsSiteUp(SiteId) const override { return true; }
  void CutLink(SiteId, SiteId) override {}
  void RestoreLink(SiteId, SiteId) override {}
  std::vector<SiteId> Sites() const override {
    std::vector<SiteId> sites;
    for (SiteId s = 1; s <= handlers_.size(); ++s) sites.push_back(s);
    return sites;
  }
  std::vector<SiteId> OperationalSites() const override { return Sites(); }
  NetworkStats StatsSnapshot() const override { return {}; }
  void ResetStats() override {}
  void Post(SiteId, std::function<void()> fn) override { fn(); }
  void PostSync(SiteId, std::function<void()> fn) override { fn(); }
  void set_observer(Observer) override {}
  void set_link_observer(LinkObserver) override {}
  void set_metrics(MetricsRegistry*) override {}
  void set_clocks(CausalClockDomain*) override {}

 private:
  std::vector<Handler> handlers_;
  std::deque<Message> queue_;
};

/// votes[txn - 1][site - 1]: the site's vote; empty = every site votes yes.
using Votes = std::vector<std::vector<bool>>;

bool AllYes(const Votes& votes, size_t i) {
  if (votes.empty()) return true;
  return std::find(votes[i].begin(), votes[i].end(), false) == votes[i].end();
}

// --- protocols: ProtocolEngine over DirectTransport ------------------------

struct EngineBed {
  DirectTransport transport;
  std::vector<std::unique_ptr<ProtocolEngine>> engines;
  uint64_t transitions = 0;
};

/// Replays `txns` transactions of `spec` in waves; returns the transitions
/// fired per replay.
uint64_t EngineLadder(const ProtocolSpec& spec, size_t n, size_t wave,
                      size_t txns, const Votes& votes, Cost* cost,
                      ErrorLog* errors) {
  auto make = [&] {
    auto bed = std::make_unique<EngineBed>();
    for (SiteId site = 1; site <= n; ++site) {
      auto engine =
          std::make_unique<ProtocolEngine>(site, &spec, n, &bed->transport);
      EngineHooks hooks;
      hooks.vote = [&votes, site](TransactionId txn) {
        return votes.empty() || votes[txn - 1][site - 1];
      };
      hooks.on_state_change = [b = bed.get()](TransactionId,
                                              const LocalState&) {
        ++b->transitions;
      };
      engine->set_hooks(std::move(hooks));
      (void)bed->transport.RegisterSite(
          site, [e = engine.get()](const Message& m) { e->OnMessage(m); });
      bed->engines.push_back(std::move(engine));
    }
    return bed;
  };
  const bool decentralized = spec.paradigm() == Paradigm::kDecentralized;
  auto replay = [&](EngineBed& bed) {
    for (size_t base = 0; base < txns; base += wave) {
      const size_t end = std::min(base + wave, txns);
      for (size_t i = base; i < end; ++i) {
        const TransactionId txn = i + 1;
        for (auto& engine : bed.engines) {
          (void)engine->StartTransaction(txn);
          if (!decentralized) break;
        }
      }
      bed.transport.Drain();
    }
  };
  auto bed = Measure(make, replay, cost);
  cost->units += txns;
  for (size_t i = 0; i < txns; ++i) {
    const Outcome expected =
        AllYes(votes, i) ? Outcome::kCommitted : Outcome::kAborted;
    for (const auto& engine : bed->engines) {
      if (engine->OutcomeOf(i + 1) != expected) {
        errors->Add("engine ladder: " + spec.name() + " txn " +
                    std::to_string(i + 1) + " did not " +
                    (expected == Outcome::kCommitted ? "commit" : "abort"));
        break;
      }
    }
  }
  return bed->transitions;
}

// --- db: LocalTransaction over KvStore + LockManager + WriteAheadLog -------

struct DbSite {
  WriteAheadLog wal;
  KvStore kv{&wal};
  LockManager locks;
};

struct DbBed {
  std::vector<std::unique_ptr<DbSite>> sites;
  Votes votes;
};

/// Replays the ops wave by wave the way CommitSystem runs them: every
/// transaction of a wave executes its local portions (no-wait locking)
/// before any decides; a transaction commits iff no portion conflicted.
/// Returns the per-site votes.
Votes DbLadder(size_t n, size_t wave, const std::vector<std::vector<KvOp>>& ops,
               Cost* cost) {
  // Per transaction, the ops grouped by site, as SubmitOps distributes them.
  std::vector<std::vector<std::pair<SiteId, std::vector<KvOp>>>> by_site;
  uint64_t total_ops = 0;
  for (const auto& txn_ops : ops) {
    std::map<SiteId, std::vector<KvOp>> grouped;
    for (const KvOp& op : txn_ops) grouped[op.site].push_back(op);
    by_site.emplace_back(grouped.begin(), grouped.end());
    total_ops += txn_ops.size();
  }
  auto make = [&] {
    auto bed = std::make_unique<DbBed>();
    for (size_t s = 0; s < n; ++s) {
      bed->sites.push_back(std::make_unique<DbSite>());
    }
    bed->votes.assign(ops.size(), std::vector<bool>(n, true));
    return bed;
  };
  auto replay = [&](DbBed& bed) {
    std::vector<std::vector<std::unique_ptr<LocalTransaction>>> live;
    for (size_t base = 0; base < ops.size(); base += wave) {
      const size_t end = std::min(base + wave, ops.size());
      live.clear();
      live.resize(end - base);
      for (size_t i = base; i < end; ++i) {
        for (const auto& [site, site_ops] : by_site[i]) {
          DbSite& db = *bed.sites[site - 1];
          auto local =
              std::make_unique<LocalTransaction>(i + 1, &db.kv, &db.locks);
          if (local->Execute(site_ops).ok()) {
            live[i - base].push_back(std::move(local));
          } else {
            bed.votes[i][site - 1] = false;
          }
        }
      }
      for (size_t i = base; i < end; ++i) {
        const bool commit = AllYes(bed.votes, i);
        for (auto& local : live[i - base]) {
          if (commit) {
            (void)local->Prepare();
            (void)local->Commit();
          } else {
            (void)local->Abort();
          }
        }
      }
    }
  };
  auto bed = Measure(make, replay, cost);
  cost->units += total_ops;
  return bed->votes;
}

// --- net / sim, causal clocks and runtime: the captured message stream -----

std::vector<Message> MessagesOf(const std::vector<TraceEvent>& events) {
  std::vector<Message> stream;
  for (const TraceEvent& e : events) {
    if (e.type != TraceEventType::kMessageSent) continue;
    // detail is "type->to".
    const size_t arrow = e.detail.rfind("->");
    if (arrow == std::string::npos) continue;
    Message m;
    m.type = e.detail.substr(0, arrow);
    m.to = static_cast<SiteId>(std::stoul(e.detail.substr(arrow + 2)));
    m.from = e.site;
    m.txn = e.txn;
    stream.push_back(std::move(m));
  }
  return stream;
}

struct NetBed {
  Simulator sim{1};
  Network net{&sim, SystemConfig{}.delay};
  uint64_t delivered = 0;
};

/// Sends the stream through Network + Simulator with the default delay
/// model, draining the event queue at every wave boundary as the workload
/// does.
void NetLadder(const std::vector<Message>& stream, size_t n, size_t wave,
               Cost* cost, ErrorLog* errors) {
  auto make = [&] {
    auto bed = std::make_unique<NetBed>();
    for (SiteId site = 1; site <= n; ++site) {
      (void)bed->net.RegisterSite(
          site, [b = bed.get()](const Message&) { ++b->delivered; });
    }
    return bed;
  };
  auto replay = [&](NetBed& bed) {
    uint64_t current_wave = 0;
    for (const Message& m : stream) {
      const uint64_t w = m.txn == kNoTransaction ? current_wave
                                                 : (m.txn - 1) / wave;
      if (w != current_wave) {
        bed.sim.Run();
        current_wave = w;
      }
      (void)bed.net.Send(m);
    }
    bed.sim.Run();
  };
  auto bed = Measure(make, replay, cost);
  cost->units += stream.size();
  if (bed->delivered != stream.size()) {
    errors->Add("net ladder delivered " + std::to_string(bed->delivered) +
                " of " + std::to_string(stream.size()) + " messages");
  }
}

void ClockLadder(const std::vector<Message>& stream, size_t n, Cost* cost) {
  auto make = [&] { return std::make_unique<CausalClockDomain>(n); };
  auto replay = [&](CausalClockDomain& clocks) {
    for (const Message& m : stream) {
      ClockStamp stamp = clocks.OnSend(m.from);
      (void)clocks.OnDeliver(m.to, stamp);
    }
  };
  Measure(make, replay, cost);
  cost->units += stream.size();
}

struct RuntimeCosts {
  std::vector<double> handoff_ns, msgs_per_s, postsync_us;
};

/// ThreadedTransport: the stream sent back to back (throughput), the
/// stream as a chain in which each delivery sends the next message
/// (handoff latency), and PostSync round trips.
void RuntimeLadder(const std::vector<Message>& stream, size_t n,
                   RuntimeCosts* costs, ErrorLog* errors) {
  const size_t count = std::min(stream.size(), kRuntimeMsgs);
  if (count == 0) return;
  // Declared before the runtime: its workers read them until it stops.
  std::atomic<bool> chain{false};
  std::atomic<size_t> next{0};
  ThreadedRuntime::Options options;
  options.quiesce_timeout_ms = 10000;
  ThreadedRuntime runtime(options);
  ThreadedTransport& transport = runtime.transport();
  for (SiteId site = 1; site <= n; ++site) {
    (void)transport.RegisterSite(site, [&](const Message&) {
      if (!chain.load(std::memory_order_relaxed)) return;
      const size_t i = next.fetch_add(1, std::memory_order_relaxed) + 1;
      if (i < count) (void)transport.Send(stream[i]);
    });
  }
  auto quiesce = [&] {
    if (!runtime.WaitQuiescent()) errors->Add("runtime ladder: no quiescence");
  };
  for (int rep = 0; rep < kLadderReps; ++rep) {
    chain = false;
    int64_t start = NowNs();
    for (size_t i = 0; i < count; ++i) (void)transport.Send(stream[i]);
    quiesce();
    costs->msgs_per_s.push_back(static_cast<double>(count) * 1e9 /
                                static_cast<double>(NowNs() - start));

    chain = true;
    next = 0;
    start = NowNs();
    (void)transport.Send(stream[0]);
    quiesce();
    costs->handoff_ns.push_back(static_cast<double>(NowNs() - start) /
                                static_cast<double>(count));

    const size_t calls = std::min(count, kPostSyncCalls);
    start = NowNs();
    for (size_t i = 0; i < calls; ++i) {
      transport.PostSync(static_cast<SiteId>(i % n + 1), [] {});
    }
    costs->postsync_us.push_back(static_cast<double>(NowNs() - start) / 1e3 /
                                 static_cast<double>(calls));
  }
}

// --- obs / trace: the captured event stream --------------------------------

struct ObsCosts {
  Cost record, observer, observer_and_blocking;
  uint64_t checks = 0;
};

/// Feeds the captured events to TraceRecorder::Record, to a
/// GlobalStateObserver, and to an observer plus a cross-checking
/// BlockingMonitor; the monitor's cost is the difference of the last two.
void ObsLadder(const std::vector<TraceEvent>& events, const CommitSystem& sys,
               ObsCosts* costs, ErrorLog* errors) {
  const size_t n = sys.num_sites();
  const size_t analysis_n = sys.config().analysis_sites != 0
                                ? sys.config().analysis_sites
                                : std::min<size_t>(n, 3);
  const ProtocolSpec* spec = &sys.spec();
  const ConcurrencyAnalysis* analysis = &sys.analysis();
  ObserverConfig config;
  config.policy = ObserverPolicy::kCount;
  config.timeline = false;
  auto make_observer = [&] {
    return std::make_unique<GlobalStateObserver>(
        spec, n, analysis, MakeAnalysisSiteMap(spec->paradigm(), n, analysis_n),
        config);
  };

  struct RecordBed {
    explicit RecordBed(size_t n) : clocks(n) { recorder.set_clocks(&clocks); }
    CausalClockDomain clocks;
    TraceRecorder recorder;
  };
  Measure([&] { return std::make_unique<RecordBed>(n); },
          [&](RecordBed& bed) {
            for (const TraceEvent& e : events) {
              bed.recorder.Record(e.at, e.site, e.txn, e.type, e.detail, e.seq);
            }
          },
          &costs->record);

  auto observer = Measure(make_observer,
                          [&](GlobalStateObserver& obs) {
                            for (const TraceEvent& e : events) obs.OnEvent(e);
                          },
                          &costs->observer);
  costs->checks += observer->stats().checks;

  struct BlockingBed {
    std::unique_ptr<GlobalStateObserver> observer;
    std::unique_ptr<BlockingMonitor> monitor;
  };
  auto bed = Measure(
      [&] {
        auto b = std::make_unique<BlockingBed>();
        b->observer = make_observer();
        b->monitor = std::make_unique<BlockingMonitor>(spec, n);
        b->monitor->set_observer(b->observer.get());
        return b;
      },
      [&](BlockingBed& b) {
        for (const TraceEvent& e : events) {
          b.observer->OnEvent(e);
          b.monitor->OnEvent(e);
        }
      },
      &costs->observer_and_blocking);
  for (Cost* cost : {&costs->record, &costs->observer,
                     &costs->observer_and_blocking}) {
    cost->units += events.size();
  }
  if (const uint64_t v = bed->observer->stats().violations; v != 0) {
    errors->Add("obs ladder: " + std::to_string(v) + " observer violations");
  }
  if (bed->monitor->stats().crosscheck_failures != 0) {
    errors->Add("obs ladder: " +
                std::to_string(bed->monitor->stats().crosscheck_failures) +
                " blocking-monitor cross-check failures");
  }
}

// --- analysis --------------------------------------------------------------

struct AnalysisCosts {
  std::vector<double> graph_ms, concurrency_ms;  ///< Per protocol.
  double nodes = 0;                              ///< Summed over protocols.
};

void AnalysisLadder(const std::string& protocol, size_t n, AnalysisCosts* costs,
                    ErrorLog* errors) {
  auto spec = MakeProtocol(protocol);
  if (!spec.ok()) {
    errors->Add("analysis ladder: " + spec.status().ToString());
    return;
  }
  const size_t analysis_n = std::min<size_t>(n, 3);
  std::vector<double> graph_ms, concurrency_ms;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t start = NowNs();
    auto graph = ReachableStateGraph::Build(*spec, analysis_n);
    const int64_t built = NowNs();
    if (!graph.ok()) {
      errors->Add("analysis ladder: " + graph.status().ToString());
      return;
    }
    ConcurrencyAnalysis analysis = ConcurrencyAnalysis::Compute(*graph);
    const int64_t done = NowNs();
    graph_ms.push_back(static_cast<double>(built - start) / 1e6);
    concurrency_ms.push_back(static_cast<double>(done - built) / 1e6);
    if (rep == 0) costs->nodes += static_cast<double>(graph->num_nodes());
  }
  costs->graph_ms.push_back(Median(graph_ms));
  costs->concurrency_ms.push_back(Median(concurrency_ms));
}

// --- the whole-system passes -----------------------------------------------

/// Crash and recover the coordinator after the history: prices Recover()
/// against the workload's own history on every workload.
struct Probe {
  std::vector<double> recover_us;
  std::vector<double> dt_records, wal_records;
};

void RecoveryProbe(CommitSystem& sys, Probe* probe, ErrorLog* errors) {
  const TransactionId last = sys.Begin() - 1;
  sys.injector().CrashNow(1);
  (void)sys.AwaitQuiescence(last);
  probe->dt_records.push_back(
      static_cast<double>(sys.participant(1).dt_log().records().size()));
  probe->wal_records.push_back(
      static_cast<double>(sys.participant(1).wal().size()));
  const int64_t start = NowNs();
  sys.injector().RecoverNow(1);
  probe->recover_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
  TxnResult r = sys.AwaitQuiescence(last);
  if (!r.consistent || r.blocked || r.decided_sites != sys.num_sites()) {
    errors->Add("recovery probe: " + r.ToString());
  }
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

struct PassTiming {
  double wall_s = 0, cpu_s = 0;
  uint64_t txns = 0;
  double Txns() const { return static_cast<double>(txns); }
  double TxnPerS() const { return Txns() / wall_s; }
  double WallUsPerTxn() const { return wall_s * 1e6 / Txns(); }
  double CpuNsPerTxn() const { return cpu_s * 1e9 / Txns(); }
};

/// Public-stats counts of the untraced configuration, run once per system
/// with allocation counting on and a recovery probe after the history.
/// Exact on the simulator.
struct Counted {
  uint64_t txns = 0, aborted = 0, messages = 0, bytes = 0, sim_events = 0,
           sim_queue = 0, inbox = 0, wal = 0, conflicts = 0, elections = 0,
           spans = 0, allocs = 0;
  int64_t live_bytes = 0;
  Probe recovery;
  std::vector<double> termination_us;
  std::vector<std::vector<bool>> conflict;  ///< Per system, per txn.
};

Counted CountedPass(const Workload& w, const std::vector<SystemInputs>& inputs,
                    uint64_t* attempted, ErrorLog* errors) {
  Counted c;
  for (const SystemInputs& in : inputs) {
    AllocScope scope;
    RunOptions options;
    options.after = [&](CommitSystem& sys) {
      const AllocSnapshot at_end = scope.Delta();
      c.allocs += at_end.allocs;
      c.live_bytes += at_end.live_bytes;
      RecoveryProbe(sys, &c.recovery, errors);
    };
    SystemRun run = RunSystem(w, in, options);
    errors->Merge(run.errors);
    *attempted += run.txns;
    c.txns += run.txns;
    c.aborted += run.aborted;
    c.messages += run.messages;
    c.bytes += run.bytes;
    c.sim_events += run.sim_events;
    c.sim_queue = std::max(c.sim_queue, run.sim_max_queue_depth);
    c.inbox = std::max(c.inbox, run.max_inbox_depth);
    c.wal += run.wal_records;
    c.conflicts += std::count(run.conflict.begin(), run.conflict.end(), true);
    c.elections += run.elections;
    c.spans += run.spans;
    Probe& r = c.recovery;
    r.recover_us.insert(r.recover_us.end(), run.recover_us.begin(),
                        run.recover_us.end());
    if (run.crashes != 0) {
      const double crashes = static_cast<double>(run.crashes);
      r.dt_records.push_back(
          static_cast<double>(run.dt_records_replayed) / crashes);
      r.wal_records.push_back(
          static_cast<double>(run.wal_records_replayed) / crashes);
    }
    c.termination_us.insert(c.termination_us.end(),
                            run.termination_await_us.begin(),
                            run.termination_await_us.end());
    c.conflict.push_back(std::move(run.conflict));
  }
  return c;
}

/// The layer replays, summed over the workload's systems.
struct Ladder {
  Cost engine, db, net, clock;
  ObsCosts obs;
  RuntimeCosts runtime;
  AnalysisCosts analysis;
  uint64_t transitions = 0, capture_txns = 0, capture_events = 0,
           termination_msgs = 0;
};

/// The message and event streams come from one traced CommitSystem per
/// protocol (a prefix of the history); ops and votes from the seed.
Ladder RunLadder(const Workload& w, uint64_t seed,
                 const std::vector<SystemInputs>& inputs,
                 const Counted& counted, uint64_t* attempted,
                 ErrorLog* errors) {
  Ladder l;
  const size_t n = w.num_sites;
  // Vote-only workloads have no ops; the db layer is priced on the
  // threaded-kv-observed op mix drawn from the same seed.
  const bool has_ops = w.kv || w.crash;
  const std::vector<std::vector<KvOp>> default_ops =
      has_ops ? std::vector<std::vector<KvOp>>{}
              : MakeKvOps(n, w.history, seed);
  for (size_t slot = 0; slot < inputs.size(); ++slot) {
    const SystemInputs& in = inputs[slot];
    RunOptions capture;
    capture.trace = true;
    capture.limit = std::clamp<size_t>(w.history / 4, 1, kCaptureTxns);
    capture.after = [&](CommitSystem& sys) {
      std::vector<TraceEvent> events;
      for (const TraceEvent& e : sys.trace()->events()) {
        // The observer's own output is not input to the consumers.
        if (e.type != TraceEventType::kGlobalState &&
            e.type != TraceEventType::kInvariantViolation) {
          events.push_back(e);
        }
      }
      const std::vector<Message> stream = MessagesOf(events);
      l.capture_events += events.size();
      for (const Message& m : stream) {
        if (m.type.rfind("term:", 0) == 0) ++l.termination_msgs;
      }
      NetLadder(stream, n, w.wave, &l.net, errors);
      ClockLadder(stream, n, &l.clock);
      RuntimeLadder(stream, n, &l.runtime, errors);
      ObsLadder(events, sys, &l.obs, errors);
    };
    SystemRun run = RunSystem(w, in, capture);
    errors->Merge(run.errors);
    *attempted += run.txns;
    l.capture_txns += run.txns;

    Votes votes = DbLadder(n, w.wave, has_ops ? in.ops : default_ops, &l.db);
    if (w.kv) {
      for (size_t i = 0; i < votes.size(); ++i) {
        if (AllYes(votes, i) == counted.conflict[slot][i]) {
          errors->Add("txn " + std::to_string(i + 1) +
                      ": db ladder and SubmitOps disagree on a conflict");
        }
      }
    } else {
      votes.clear();  // No conflicts: every site votes yes.
    }
    auto spec = MakeProtocol(in.protocol);
    if (spec.ok()) {
      l.transitions += EngineLadder(*spec, n, w.wave, w.history, votes,
                                    &l.engine, errors);
    }
    AnalysisLadder(in.protocol, n, &l.analysis, errors);
  }
  return l;
}

/// Whole passes, alternating until the run's time is used: untraced,
/// facade spans on, and observe + blocking flipped from the workload's
/// setting.
struct Timed {
  std::vector<double> plain_tps, plain_cpu_ns, plain_us, spanned_tps,
      flipped_us;
  SpanLog spans;
};

PassTiming TimedPass(const Workload& w, const std::vector<SystemInputs>& inputs,
                     const RunOptions& options, uint64_t* attempted,
                     ErrorLog* errors) {
  PassTiming t;
  for (const SystemInputs& in : inputs) {
    SystemRun run = RunSystem(w, in, options);
    t.wall_s += run.load_wall_s;
    t.cpu_s += run.load_cpu_s;
    t.txns += run.txns;
    *attempted += run.txns;
    errors->Merge(run.errors);
  }
  return t;
}

void TimedPasses(const Workload& w, const std::vector<SystemInputs>& inputs,
                 int64_t deadline_ns, Timed* t, uint64_t* attempted,
                 ErrorLog* errors) {
  RunOptions plain, spanned, flipped;
  spanned.spans = &t->spans;
  flipped.observe = !w.observe;
  do {
    PassTiming p = TimedPass(w, inputs, plain, attempted, errors);
    PassTiming s = TimedPass(w, inputs, spanned, attempted, errors);
    PassTiming f = TimedPass(w, inputs, flipped, attempted, errors);
    t->plain_tps.push_back(p.TxnPerS());
    t->plain_cpu_ns.push_back(p.CpuNsPerTxn());
    t->plain_us.push_back(p.WallUsPerTxn());
    t->spanned_tps.push_back(s.TxnPerS());
    t->flipped_us.push_back(f.WallUsPerTxn());
  } while (NowNs() < deadline_ns);
}

/// Sim-backed counts that repeat exactly for a given seed.
constexpr const char* kExactOnSim[] = {
    "analysis.graph_nodes",          "engine.allocs_per_txn",
    "engine.transitions_per_txn",    "net.allocs_per_msg",
    "net.msgs_per_txn",              "net.bytes_per_txn",
    "sim.events_per_txn",            "sim.max_queue_depth",
    "clock.allocs_per_msg",          "core.allocs_per_txn",
    "core.abort_rate",               "db.allocs_per_op",
    "db.wal_records_per_txn",        "db.lock_conflicts_per_txn",
    "obs.events_per_txn",            "obs.checks_per_txn",
    "recovery.dt_records_replayed",  "recovery.wal_records_replayed",
    "recovery.spans_per_txn",        "termination.msgs_per_txn",
    "termination.elections_per_txn",
};

void Emit(const Workload& w, size_t systems, const Counted& c,
          const Ladder& l, const Timed& t, Json* metrics, Json* run_json) {
  auto put = [metrics](const char* name, double value, const char* unit) {
    PutMetric(metrics, name, value, unit);
  };
  auto per_txn = [&](double x) {
    return x / static_cast<double>(c.txns);
  };
  auto per_capture_txn = [&](double x) {
    return Ratio(x, static_cast<double>(l.capture_txns));
  };

  put("analysis.state_graph_ms", Mean(l.analysis.graph_ms), "ms");
  put("analysis.concurrency_ms", Mean(l.analysis.concurrency_ms), "ms");
  put("analysis.graph_nodes",
      l.analysis.nodes / static_cast<double>(systems), "count");

  put("engine.ns_per_txn", l.engine.NsPer(), "ns");
  put("engine.allocs_per_txn", l.engine.AllocsPer(), "count");
  put("engine.transitions_per_txn",
      Ratio(static_cast<double>(l.transitions),
            static_cast<double>(l.engine.units)),
      "count");

  const double msgs_per_txn = per_txn(static_cast<double>(c.messages));
  put("net.ns_per_msg", l.net.NsPer(), "ns");
  put("net.allocs_per_msg", l.net.AllocsPer(), "count");
  put("net.msgs_per_txn", msgs_per_txn, "count");
  put("net.bytes_per_txn", per_txn(static_cast<double>(c.bytes)), "B");
  put("sim.events_per_txn", per_txn(static_cast<double>(c.sim_events)),
      "count");
  put("sim.max_queue_depth", static_cast<double>(c.sim_queue), "count");

  put("clock.ns_per_msg", l.clock.NsPer(), "ns");
  put("clock.allocs_per_msg", l.clock.AllocsPer(), "count");

  const double handoff_ns = Median(l.runtime.handoff_ns);
  put("runtime.handoff_ns", handoff_ns, "ns");
  put("runtime.msgs_per_s", Median(l.runtime.msgs_per_s), "msg/s");
  put("runtime.postsync_us", Median(l.runtime.postsync_us), "us");
  put("runtime.max_inbox_depth", static_cast<double>(c.inbox), "count");

  double await_us = 0;
  for (double d : t.spans.DurationsUs("AwaitQuiescence")) await_us += d;
  const double spanned_txns =
      static_cast<double>(c.txns) * static_cast<double>(t.spanned_tps.size());
  put("core.create_ms", Median(t.spans.DurationsUs("Create")) / 1e3, "ms");
  put("core.launch_us", Median(t.spans.DurationsUs("Launch")), "us");
  put("core.await_us_per_txn", await_us / spanned_txns, "us");
  put("core.allocs_per_txn", per_txn(static_cast<double>(c.allocs)), "count");
  put("core.live_bytes_per_txn", per_txn(static_cast<double>(c.live_bytes)),
      "B");
  put("core.abort_rate", per_txn(static_cast<double>(c.aborted)), "fraction");

  put("db.ns_per_op", l.db.NsPer(), "ns");
  put("db.allocs_per_op", l.db.AllocsPer(), "count");
  put("db.wal_records_per_txn", per_txn(static_cast<double>(c.wal)), "count");
  put("db.lock_conflicts_per_txn", per_txn(static_cast<double>(c.conflicts)),
      "count");

  const ObsCosts& obs = l.obs;
  const double events_per_txn =
      per_capture_txn(static_cast<double>(l.capture_events));
  const double blocking_ns =
      Ratio(obs.observer_and_blocking.ns - obs.observer.ns,
            static_cast<double>(obs.observer.units));
  put("obs.events_per_txn", events_per_txn, "count");
  put("obs.record_ns_per_event", obs.record.NsPer(), "ns");
  put("obs.observer_ns_per_event", obs.observer.NsPer(), "ns");
  put("obs.blocking_ns_per_event", blocking_ns, "ns");
  put("obs.checks_per_txn", per_capture_txn(static_cast<double>(obs.checks)),
      "count");
  const double on_us = Median(w.observe ? t.plain_us : t.flipped_us);
  const double off_us = Median(w.observe ? t.flipped_us : t.plain_us);
  put("obs.overhead_us_per_txn", on_us - off_us, "us");

  const Probe& r = c.recovery;
  put("recovery.recover_us", Median(r.recover_us), "us");
  put("recovery.dt_records_replayed", Mean(r.dt_records), "count");
  put("recovery.wal_records_replayed", Mean(r.wal_records), "count");
  put("recovery.spans_per_txn", per_txn(static_cast<double>(c.spans)),
      "count");
  put("termination.msgs_per_txn",
      per_capture_txn(static_cast<double>(l.termination_msgs)), "count");
  put("termination.elections_per_txn",
      per_txn(static_cast<double>(c.elections)), "count");

  // Coverage: the costs of the layers a transaction passes through,
  // summed, over its end-to-end CPU cost.
  double layer_ns =
      l.engine.NsPer() +
      msgs_per_txn * (l.clock.NsPer() +
                      (w.threaded() ? handoff_ns : l.net.NsPer()));
  if (w.kv || w.crash) {
    const double ops = static_cast<double>(l.db.units) /
                       static_cast<double>(w.history * systems);
    layer_ns += ops * l.db.NsPer();
  }
  if (w.observe) {
    layer_ns += events_per_txn *
                (obs.record.NsPer() + obs.observer.NsPer() + blocking_ns);
  }
  layer_ns += per_txn(static_cast<double>(r.recover_us.size())) *
              Median(r.recover_us) * 1e3;
  put("bench.coverage", layer_ns / Median(t.plain_cpu_ns), "ratio");
  put("bench.trace_overhead_pct",
      (Median(t.plain_tps) / Median(t.spanned_tps) - 1.0) * 100.0, "%");

  // Measured only where the workload makes the call, so they stay out of
  // the declared per-layer set, which every workload reports.
  Json extra = Json::Object();
  const std::vector<double> submit_us = t.spans.DurationsUs("SubmitOps");
  if (!submit_us.empty()) extra["core.submit_us"] = Json(Median(submit_us));
  if (!c.termination_us.empty()) {
    extra["termination.await_us"] = Json(Median(c.termination_us));
  }
  extra["timed_passes"] = Json(static_cast<uint64_t>(t.plain_tps.size()));
  extra["untraced_txn_per_s"] = Json(Median(t.plain_tps));
  extra["spanned_txn_per_s"] = Json(Median(t.spanned_tps));
  (*run_json)["layer_extra"] = extra;

  if (!w.threaded()) {
    Json exact = Json::Object();
    for (const char* name : kExactOnSim) {
      exact[name] = (*metrics)[name]["value"];
    }
    (*run_json)["exact"] = exact;
  }
}

}  // namespace

void PerLayer(const Workload& w, uint64_t seed, double seconds, Json* metrics,
              Json* run_json, uint64_t* attempted, ErrorLog* errors,
              std::vector<FacadeSpan>* spans) {
  const int64_t deadline_ns = NowNs() + static_cast<int64_t>(seconds * 1e9);
  const std::vector<SystemInputs> inputs = MakeInputs(w, seed, w.history);
  const Counted counted = CountedPass(w, inputs, attempted, errors);
  const Ladder ladder =
      RunLadder(w, seed, inputs, counted, attempted, errors);
  Timed timed;
  TimedPasses(w, inputs, deadline_ns, &timed, attempted, errors);
  Emit(w, inputs.size(), counted, ladder, timed, metrics, run_json);
  *spans = timed.spans.spans();
}

std::string SpansJsonl(const std::vector<FacadeSpan>& spans) {
  std::string out;
  for (const FacadeSpan& s : spans) {
    Json line = Json::Object();
    line["name"] = Json(s.name);
    line["id"] = Json(s.id);
    line["parent"] = Json(s.parent);
    line["txn"] = Json(s.txn);
    line["start_ns"] = Json(s.start_ns);
    line["end_ns"] = Json(s.end_ns);
    out += line.Dump() + "\n";
  }
  return out;
}

}  // namespace nbcp::bench
