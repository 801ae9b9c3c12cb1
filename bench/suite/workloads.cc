#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/rng.h"
#include "protocols/protocols.h"
#include "protocols/registry.h"

namespace nbcp::bench {

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> all;

    Workload sim_pipelined;
    sim_pipelined.name = "sim-pipelined";
    sim_pipelined.protocols = BuiltinProtocolNames();
    sim_pipelined.num_sites = 8;
    sim_pipelined.wave = 256;
    // Short enough that a pass over all seven protocols (14,336
    // transactions) takes about a second, so a run has a dozen passes.
    sim_pipelined.history = 2048;
    all.push_back(sim_pipelined);

    // n=3: three site workers plus the driver thread fill a 4-core host.
    Workload threaded_pipelined;
    threaded_pipelined.name = "threaded-pipelined";
    threaded_pipelined.backend = SystemConfig::Backend::kThreaded;
    threaded_pipelined.protocols = {"3PC-central"};
    threaded_pipelined.num_sites = 3;
    // Waves of 256 made p99 swing 2x between runs; 32 keeps it steady.
    threaded_pipelined.wave = 32;
    threaded_pipelined.history = 16384;
    all.push_back(threaded_pipelined);

    Workload kv_observed;
    kv_observed.name = "threaded-kv-observed";
    kv_observed.backend = SystemConfig::Backend::kThreaded;
    kv_observed.protocols = {"3PC-central"};
    kv_observed.num_sites = 3;
    kv_observed.wave = 8;
    kv_observed.history = 8192;
    kv_observed.kv = true;
    kv_observed.observe = true;
    all.push_back(kv_observed);

    Workload crash_recovery;
    crash_recovery.name = "sim-crash-recovery";
    crash_recovery.protocols = {"3PC-central"};
    crash_recovery.num_sites = 5;
    crash_recovery.wave = 1;
    crash_recovery.history = 500;
    crash_recovery.crash = true;
    all.push_back(crash_recovery);
    return all;
  }();
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string Tag(char letter, uint64_t n) {
  std::string tag(1, letter);
  tag += std::to_string(n);
  return tag;
}

std::vector<std::vector<KvOp>> MakeKvOps(size_t num_sites, size_t txns,
                                         uint64_t seed) {
  constexpr int kOpsPerTxn = 4;
  constexpr uint64_t kKeys = 200;
  Rng rng(seed);
  std::vector<std::vector<KvOp>> ops(txns);
  for (size_t i = 0; i < txns; ++i) {
    for (int j = 0; j < kOpsPerTxn; ++j) {
      KvOp op;
      op.site = static_cast<SiteId>(rng.Uniform(1, num_sites));
      op.kind = rng.Bernoulli(0.5) ? KvOp::Kind::kGet : KvOp::Kind::kPut;
      op.key = Tag('k', rng.Uniform(0, kKeys - 1));
      if (op.kind == KvOp::Kind::kPut) op.value = Tag('v', i);
      ops[i].push_back(std::move(op));
    }
  }
  return ops;
}

std::vector<SystemInputs> MakeInputs(const Workload& w, uint64_t seed,
                                     size_t history) {
  std::vector<SystemInputs> all;
  Rng rng(seed);
  for (const std::string& protocol : w.protocols) {
    SystemInputs in;
    in.protocol = protocol;
    in.seed = rng.Uniform(1, UINT32_MAX);
    if (w.kv) {
      in.ops = MakeKvOps(w.num_sites, history, rng.Uniform(1, UINT32_MAX));
    }
    if (w.crash) {
      // Two fresh keys per cycle, one at the coordinator and one at a
      // random slave, so no cycle conflicts with another.
      for (size_t i = 0; i < history; ++i) {
        KvOp at_coordinator{1, KvOp::Kind::kPut, Tag('c', i), Tag('x', i)};
        KvOp at_slave{static_cast<SiteId>(rng.Uniform(2, w.num_sites)),
                      KvOp::Kind::kPut, Tag('s', i), Tag('y', i)};
        in.ops.push_back({at_coordinator, at_slave});
        in.crash_allow.push_back(
            static_cast<uint32_t>(rng.Uniform(0, w.num_sites - 1)));
      }
    }
    all.push_back(std::move(in));
  }
  return all;
}

void ErrorLog::Add(std::string what) {
  ++count;
  if (samples.size() < 8) samples.push_back(std::move(what));
}

void ErrorLog::Merge(const ErrorLog& other) {
  count += other.count;
  for (const std::string& s : other.samples) {
    if (samples.size() < 8) samples.push_back(s);
  }
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SpanLog::Begin(const char* name, TransactionId txn,
                        uint64_t parent) {
  FacadeSpan span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.txn = txn;
  span.start_ns = NowNs();
  spans_.push_back(span);
  return span.id;
}

void SpanLog::End(uint64_t id) { spans_[id - 1].end_ns = NowNs(); }

std::vector<double> SpanLog::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  for (const FacadeSpan& s : spans_) {
    if (s.end_ns != 0 && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

namespace {

/// Process CPU time (user + sys, all threads), seconds.
double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Heap bytes in use (allocated and not freed, all arenas), MB.
double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

/// Runs `fn` inside a facade span when span recording is on.
template <typename Fn>
auto Traced(SpanLog* log, const char* name, TransactionId txn,
            uint64_t parent, Fn&& fn) {
  if (log == nullptr) return fn();
  uint64_t id = log->Begin(name, txn, parent);
  auto result = fn();
  log->End(id);
  return result;
}

std::string Describe(TransactionId txn, const std::string& what) {
  return "txn " + std::to_string(txn) + ": " + what;
}

/// Checks a summary every workload shares: consistent, not blocked, and
/// `expected_decided` sites decided on `expected`. At most one error per
/// call, so failures count transactions.
void CheckResult(const TxnResult& r, Outcome expected, size_t expected_decided,
                 ErrorLog* errors) {
  if (r.consistent && !r.blocked && r.outcome == expected &&
      r.decided_sites == expected_decided) {
    return;
  }
  errors->Add(Describe(r.txn, "expected " + ToString(expected) + " at " +
                                  std::to_string(expected_decided) +
                                  " sites, got " + r.ToString()));
}

void RunWaves(const Workload& w, const SystemInputs& in, size_t total,
              SpanLog* spans, CommitSystem& sys, SystemRun* run) {
  const size_t n = w.num_sites;
  std::vector<TransactionId> txns;
  std::vector<int64_t> launched_ns;
  for (size_t base = 0; base < total; base += w.wave) {
    const size_t end = std::min(base + w.wave, total);
    const uint64_t wave_span =
        spans != nullptr ? spans->Begin("wave", kNoTransaction, 0) : 0;
    txns.clear();
    launched_ns.clear();
    for (size_t i = base; i < end; ++i) txns.push_back(sys.Begin());
    // Every op of the wave is submitted before any launch, so which
    // transactions conflict is a function of the seed alone.
    if (w.kv) {
      for (size_t i = base; i < end; ++i) {
        TransactionId txn = txns[i - base];
        Status s = Traced(spans, "SubmitOps", txn, wave_span,
                          [&] { return sys.SubmitOps(txn, in.ops[i]); });
        run->conflict.push_back(!s.ok());
        if (!s.ok() && !s.IsAborted()) {
          run->errors.Add(Describe(txn, "SubmitOps: " + s.ToString()));
        }
      }
    }
    for (TransactionId txn : txns) {
      launched_ns.push_back(NowNs());
      Status s = Traced(spans, "Launch", txn, wave_span,
                        [&] { return sys.Launch(txn); });
      if (!s.ok()) run->errors.Add(Describe(txn, "Launch: " + s.ToString()));
    }
    for (size_t i = base; i < end; ++i) {
      TransactionId txn = txns[i - base];
      TxnResult r = Traced(spans, "AwaitQuiescence", txn, wave_span,
                           [&] { return sys.AwaitQuiescence(txn); });
      const double wall_us =
          w.threaded()
              ? static_cast<double>(r.latency())
              : static_cast<double>(NowNs() - launched_ns[i - base]) / 1e3;
      run->latency_us.push_back(wall_us);
      run->result_latency_us.push_back(static_cast<double>(r.latency()));
      const bool conflicted = w.kv && run->conflict[i];
      // Vote-only and conflict-free transactions must commit; a conflict
      // makes the conflicting site vote no.
      CheckResult(r, conflicted ? Outcome::kAborted : Outcome::kCommitted, n,
                  &run->errors);
      if (r.outcome == Outcome::kAborted) ++run->aborted;
    }
    if (spans != nullptr) spans->End(wave_span);
  }
}

void RunCrashCycle(const Workload& w, const SystemInputs& in, size_t i,
                   SpanLog* spans, uint64_t cycle_span, CommitSystem& sys,
                   SystemRun* run) {
  const size_t n = w.num_sites;
  TransactionId txn = sys.Begin();
  Status s = Traced(spans, "SubmitOps", txn, cycle_span,
                    [&] { return sys.SubmitOps(txn, in.ops[i]); });
  if (!s.ok()) run->errors.Add(Describe(txn, "SubmitOps: " + s.ToString()));
  const size_t allow = in.crash_allow[i];
  Traced(spans, "CrashDuringBroadcast", txn, cycle_span, [&] {
    sys.injector().CrashDuringBroadcast(1, txn, msg::kPrepare, allow);
    return 0;
  });
  // Slaves 2..n receive prepare in ascending id order, and the bully
  // election makes the highest surviving id, site n, the backup. So the
  // backup received prepare iff all n-1 copies went out, which is also
  // exactly when the trap never trips and the coordinator carries on.
  // Skeen's rule: the backup commits iff it received prepare.
  const bool backup_prepared = allow >= n - 1;
  const bool crashes = !backup_prepared;
  const Outcome expected =
      backup_prepared ? Outcome::kCommitted : Outcome::kAborted;

  const int64_t launched = NowNs();
  s = Traced(spans, "Launch", txn, cycle_span,
             [&] { return sys.Launch(txn); });
  if (!s.ok()) run->errors.Add(Describe(txn, "Launch: " + s.ToString()));
  TxnResult r = Traced(spans, "AwaitQuiescence", txn, cycle_span,
                       [&] { return sys.AwaitQuiescence(txn); });
  const double decided_us = static_cast<double>(NowNs() - launched) / 1e3;
  run->latency_us.push_back(decided_us);
  run->result_latency_us.push_back(static_cast<double>(r.latency()));
  if (sys.transport().IsSiteUp(1) == crashes) {
    run->errors.Add(Describe(txn, crashes ? "coordinator did not crash"
                                          : "coordinator crashed"));
    return;
  }
  CheckResult(r, expected, crashes ? n - 1 : n, &run->errors);
  if (r.outcome == Outcome::kAborted) ++run->aborted;
  if (!crashes) return;

  ++run->crashes;
  run->termination_await_us.push_back(decided_us);
  Participant& coordinator = sys.participant(1);
  run->dt_records_replayed += coordinator.dt_log().records().size();
  run->wal_records_replayed += coordinator.wal().size();
  const int64_t recover_start = NowNs();
  Traced(spans, "RecoverNow", txn, cycle_span, [&] {
    sys.injector().RecoverNow(1);
    return 0;
  });
  run->recover_us.push_back(static_cast<double>(NowNs() - recover_start) /
                            1e3);
  TxnResult after = Traced(spans, "AwaitQuiescence", txn, cycle_span,
                           [&] { return sys.AwaitQuiescence(txn); });
  CheckResult(after, expected, n, &run->errors);
}

void RunCrashCycles(const Workload& w, const SystemInputs& in, size_t total,
                    SpanLog* spans, CommitSystem& sys, SystemRun* run) {
  for (size_t i = 0; i < total; ++i) {
    const uint64_t cycle_span =
        spans != nullptr ? spans->Begin("cycle", kNoTransaction, 0) : 0;
    RunCrashCycle(w, in, i, spans, cycle_span, sys, run);
    if (spans != nullptr) spans->End(cycle_span);
  }
}

}  // namespace

SystemRun RunSystem(const Workload& w, const SystemInputs& in,
                    const RunOptions& options) {
  SystemRun run;
  SystemConfig config;
  config.protocol = in.protocol;
  config.num_sites = w.num_sites;
  config.seed = in.seed;
  config.backend = w.backend;
  config.observe = config.blocking = options.observe.value_or(w.observe);
  config.observe_policy = ObserverPolicy::kCount;
  config.trace = options.trace;
  config.quiesce_timeout_ms = 10000;

  const double heap_before = HeapInUseMb();
  const int64_t create_start = NowNs();
  auto created = Traced(options.spans, "Create", kNoTransaction, 0,
                        [&] { return CommitSystem::Create(config); });
  run.create_s = static_cast<double>(NowNs() - create_start) / 1e9;
  if (!created.ok()) {
    run.errors.Add("Create(" + in.protocol + "): " +
                   created.status().ToString());
    return run;
  }
  std::unique_ptr<CommitSystem> system = std::move(*created);
  CommitSystem& sys = *system;

  const size_t total =
      options.limit == 0 ? w.history : std::min(options.limit, w.history);
  const double cpu_start = ProcessCpuSeconds();
  const int64_t wall_start = NowNs();
  if (w.crash) {
    RunCrashCycles(w, in, total, options.spans, sys, &run);
  } else {
    RunWaves(w, in, total, options.spans, sys, &run);
  }
  run.load_wall_s = static_cast<double>(NowNs() - wall_start) / 1e9;
  run.load_cpu_s = ProcessCpuSeconds() - cpu_start;
  run.heap_mb = HeapInUseMb() - heap_before;
  run.txns = total;

  const NetworkStats net = sys.transport().StatsSnapshot();
  run.messages = net.messages_sent;
  run.bytes = net.bytes_sent;
  if (sys.threaded()) {
    run.max_inbox_depth = sys.runtime()->transport().max_inbox_depth();
  } else {
    run.sim_events = sys.simulator().stats().events_executed;
    run.sim_max_queue_depth = sys.simulator().stats().max_queue_depth;
  }
  for (SiteId site = 1; site <= w.num_sites; ++site) {
    run.wal_records += sys.participant(site).wal().size();
  }
  run.elections = sys.registry().counter("election/started").value();
  run.spans = sys.spans().spans().size();
  if (const GlobalStateObserver* obs = sys.observer()) {
    if (obs->stats().violations != 0) {
      run.errors.Add(std::to_string(obs->stats().violations) +
                     " observer violations (" + in.protocol + ")");
    }
  }
  if (const BlockingMonitor* mon = sys.blocking()) {
    if (mon->stats().crosscheck_failures != 0) {
      run.errors.Add(std::to_string(mon->stats().crosscheck_failures) +
                     " blocking-monitor cross-check failures (" +
                     in.protocol + ")");
    }
  }
  if (options.after) options.after(sys);
  return run;
}

}  // namespace nbcp::bench
