// nbcp-bench workloads: what each one runs, the inputs generated from the
// seed, and the driver that runs one CommitSystem through its fixed history
// and checks every outcome.
#ifndef NBCP_BENCH_SUITE_WORKLOADS_H_
#define NBCP_BENCH_SUITE_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/transaction_manager.h"

namespace nbcp::bench {

/// One workload. All are closed loops driven from one thread: a wave of
/// `wave` transactions is launched together and awaited together.
struct Workload {
  std::string name;
  SystemConfig::Backend backend = SystemConfig::Backend::kSim;
  /// One CommitSystem per protocol, run in turn.
  std::vector<std::string> protocols;
  size_t num_sites = 3;
  size_t wave = 1;
  /// Transactions per CommitSystem. Per-transaction state that is never
  /// freed grows with this, so it is a fixed input, not a function of how
  /// long the run lasts.
  size_t history = 0;
  /// Each transaction carries 4 ops (50% reads, 50% puts) over 200 keys.
  bool kv = false;
  /// observe + blocking on.
  bool observe = false;
  /// One transaction at a time; the coordinator crashes mid-prepare, the
  /// survivors terminate, then the coordinator recovers.
  bool crash = false;

  bool threaded() const {
    return backend == SystemConfig::Backend::kThreaded;
  }
  /// Threads the workload keeps busy: the driver, plus one worker per site
  /// on the threaded backend.
  size_t busy_threads() const { return threaded() ? num_sites + 1 : 1; }
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

/// Everything one CommitSystem runs, generated from the seed before any
/// timer starts.
struct SystemInputs {
  std::string protocol;
  uint64_t seed = 0;
  /// Per transaction; empty for vote-only workloads.
  std::vector<std::vector<KvOp>> ops;
  /// Crash workloads: prepare copies delivered before the coordinator
  /// crashes, per cycle. Slaves receive copies in ascending id order.
  std::vector<uint32_t> crash_allow;
};

/// A one-letter tag and a number, e.g. "k17": the keys and values.
std::string Tag(char letter, uint64_t n);

/// One input set per protocol of `w`, each `history` transactions long.
std::vector<SystemInputs> MakeInputs(const Workload& w, uint64_t seed,
                                     size_t history);

/// The threaded-kv-observed op mix for `txns` transactions: 4 ops each,
/// uniform over the sites, 50% reads and 50% puts over 200 uniform keys.
std::vector<std::vector<KvOp>> MakeKvOps(size_t num_sites, size_t txns,
                                         uint64_t seed);

/// Failures seen while running; every one counts into error_rate.
struct ErrorLog {
  uint64_t count = 0;
  std::vector<std::string> samples;  ///< The first few, for the report.

  void Add(std::string what);
  void Merge(const ErrorLog& other);
};

/// Facade spans: one per call the driver makes into CommitSystem, kept in
/// memory and written as JSONL when the benchmark ends.
struct FacadeSpan {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  ///< Enclosing wave/cycle span; 0 for roots.
  TransactionId txn = kNoTransaction;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  uint64_t Begin(const char* name, TransactionId txn, uint64_t parent);
  void End(uint64_t id);
  const std::vector<FacadeSpan>& spans() const { return spans_; }

  /// Durations (us) of the closed spans called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;

 private:
  std::vector<FacadeSpan> spans_;
};

int64_t NowNs();

/// Knobs of one RunSystem call.
struct RunOptions {
  /// SystemConfig::trace: keep the full event stream (ladder capture).
  bool trace = false;
  /// Overrides the workload's observe + blocking setting.
  std::optional<bool> observe;
  /// Run only the first `limit` transactions (0 = the whole history).
  size_t limit = 0;
  /// Facade spans are recorded here when set.
  SpanLog* spans = nullptr;
  /// Runs after the history, before the system is destroyed, untimed.
  std::function<void(CommitSystem&)> after;
};

/// What one CommitSystem did.
struct SystemRun {
  double create_s = 0;
  double load_wall_s = 0;  ///< First launch to last await.
  double load_cpu_s = 0;
  /// Heap the system holds at the end of its history, where the state it
  /// keeps per transaction peaks: heap in use then minus before Create.
  double heap_mb = 0;
  uint64_t txns = 0;
  uint64_t aborted = 0;
  ErrorLog errors;

  /// Wall-clock launch-to-decision latency, us, per transaction.
  std::vector<double> latency_us;
  /// TxnResult::latency() as returned at completion: virtual time on the
  /// simulator, WallClock time on the threaded backend.
  std::vector<double> result_latency_us;
  /// Per transaction: SubmitOps reported a lock conflict.
  std::vector<bool> conflict;

  // Public stats at the end of the history.
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t sim_events = 0;
  uint64_t sim_max_queue_depth = 0;
  uint64_t max_inbox_depth = 0;
  uint64_t wal_records = 0;
  uint64_t elections = 0;
  uint64_t spans = 0;

  // Crash workloads.
  uint64_t crashes = 0;
  std::vector<double> recover_us;
  std::vector<double> termination_await_us;
  uint64_t dt_records_replayed = 0;
  uint64_t wal_records_replayed = 0;
};

SystemRun RunSystem(const Workload& w, const SystemInputs& in,
                    const RunOptions& options = {});

}  // namespace nbcp::bench

#endif  // NBCP_BENCH_SUITE_WORKLOADS_H_
