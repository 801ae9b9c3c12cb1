// nbcp-bench: the end-to-end and per-layer commit benchmark.
//
//   nbcp-bench --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//              [--out <dir>] [--quick]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// prints the per-layer metrics (facade spans plus the layer ladder). The
// last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --out, the full run file (every pass, quartiles, error
// samples) and, when tracing, the facade spans as JSONL are written there.
// Any failed check makes the exit code 1.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "ladder.h"
#include "measure.h"
#include "obs/json.h"
#include "reference.h"
#include "workloads.h"

using namespace nbcp;
using namespace nbcp::bench;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool quick = false;
  std::string out;
};

void Usage() {
  std::fprintf(stderr,
               "usage: nbcp-bench --workload <name> --seed <n> "
               "[--seconds <s>] [--trace 0|1] [--out <dir>] [--quick]\n"
               "workloads:");
  for (const Workload& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--quick") {
      args->quick = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0) || args->seconds > 600) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

/// Percentile by nearest rank, the convention for latency tails.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const size_t rank = static_cast<size_t>(std::ceil(p * n));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double MaxRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024;  // ru_maxrss is KiB.
}

Json Summary(const std::vector<double>& v) {
  Json j = Json::Object();
  j["median"] = Json(Median(v));
  j["q1"] = Json(Quantile(v, 0.25));
  j["q3"] = Json(Quantile(v, 0.75));
  j["n"] = Json(static_cast<uint64_t>(v.size()));
  Json values = Json::Array();
  for (double x : v) values.Append(Json(x));
  j["values"] = values;
  return j;
}

/// A run has at least this many timed passes, so a median means something.
constexpr size_t kMinPasses = 3;

/// Latency percentiles are taken over consecutive passes pooled until they
/// hold at least this many transactions, so p99 has 10 samples beyond it.
constexpr size_t kLatencySamples = 1000;

/// The timed part of a run. A pass runs one system per protocol of the
/// workload, so every pass runs the same mix; each pass is one sample.
struct Timing {
  std::vector<double> txn_per_s, raw_txn_per_s;            ///< Per pass.
  std::vector<double> cpu_us_per_txn, raw_cpu_us_per_txn;  ///< Per pass.
  /// Per group of passes holding at least kLatencySamples transactions.
  std::vector<double> latency_p50_us, latency_p99_us, raw_latency_p99_us;
  std::vector<double> latency_us, raw_latency_us;  ///< Current group.
  uint64_t latency_samples = 0;
  std::vector<double> reference_ns;                ///< Per system.
  std::vector<double> create_s;  ///< Per system, scaled like every time.
  /// Per protocol: heap in use at the end of each of its systems.
  std::vector<std::vector<double>> heap_mb;
  std::vector<SystemRun> last_pass;
  uint64_t attempted = 0;
  ErrorLog errors;
};

/// Runs one pass; with `timed` its samples go into `t`.
void RunPass(const Workload& w, const std::vector<SystemInputs>& inputs,
             bool timed, Timing* t) {
  double wall = 0, raw_wall = 0, cpu = 0, raw_cpu = 0, txns = 0;
  t->last_pass.clear();
  t->heap_mb.resize(inputs.size());
  for (size_t slot = 0; slot < inputs.size(); ++slot) {
    const double reference_ns = ReferenceUnitNs(w.busy_threads());
    const double scale = NominalReferenceNs(w.busy_threads()) / reference_ns;
    t->last_pass.push_back(RunSystem(w, inputs[slot]));
    const SystemRun& run = t->last_pass.back();
    t->attempted += run.txns;
    t->errors.Merge(run.errors);
    if (!timed) continue;
    wall += run.load_wall_s * scale;
    raw_wall += run.load_wall_s;
    cpu += run.load_cpu_s * scale;
    raw_cpu += run.load_cpu_s;
    txns += static_cast<double>(run.txns);
    for (double us : run.latency_us) {
      t->latency_us.push_back(us * scale);
      t->raw_latency_us.push_back(us);
    }
    t->reference_ns.push_back(reference_ns);
    t->create_s.push_back(run.create_s * scale);
    t->heap_mb[slot].push_back(run.heap_mb);
  }
  if (!timed) return;
  t->txn_per_s.push_back(txns / wall);
  t->raw_txn_per_s.push_back(txns / raw_wall);
  t->cpu_us_per_txn.push_back(cpu * 1e6 / txns);
  t->raw_cpu_us_per_txn.push_back(raw_cpu * 1e6 / txns);
  if (t->latency_us.size() >= kLatencySamples) {
    t->latency_p50_us.push_back(Percentile(t->latency_us, 0.50));
    t->latency_p99_us.push_back(Percentile(t->latency_us, 0.99));
    t->raw_latency_p99_us.push_back(Percentile(t->raw_latency_us, 0.99));
    t->latency_samples += t->latency_us.size();
    t->latency_us.clear();
    t->raw_latency_us.clear();
  }
}

/// One warm-up pass, then timed passes for about `seconds` (stopping at the
/// pass boundary nearest it), and at least kMinPasses.
Timing TimeWorkload(const Workload& w, const std::vector<SystemInputs>& inputs,
                    double seconds) {
  Timing t;
  RunPass(w, inputs, /*timed=*/false, &t);
  const int64_t start = NowNs();
  double elapsed = 0, pass_seconds = 0;
  do {
    RunPass(w, inputs, /*timed=*/true, &t);
    pass_seconds = static_cast<double>(NowNs() - start) / 1e9 - elapsed;
    elapsed += pass_seconds;
  } while (t.txn_per_s.size() < kMinPasses || t.latency_p99_us.empty() ||
           elapsed + pass_seconds / 2 < seconds);
  return t;
}

struct Output {
  Json metrics = Json::Object();  ///< The contract's metrics object.
  Json run = Json::Object();      ///< The full run file.
  uint64_t attempted = 0;
  ErrorLog errors;
};

Workload Sized(const Workload& w, bool quick) {
  Workload sized = w;
  if (quick) sized.history = std::max<size_t>(w.wave, w.history / 16);
  return sized;
}

void EndToEnd(const Workload& w, uint64_t seed, double seconds, Output* out) {
  const std::vector<SystemInputs> inputs = MakeInputs(w, seed, w.history);
  const Timing t = TimeWorkload(w, inputs, seconds);

  // The largest protocol's heap: per protocol the median over its systems.
  double heap_mb = 0;
  for (const std::vector<double>& slot : t.heap_mb) {
    heap_mb = std::max(heap_mb, Median(slot));
  }
  Json* metrics = &out->metrics;
  PutMetric(metrics, "txn_per_s", Median(t.txn_per_s), "txn/s");
  PutMetric(metrics, "cpu_us_per_txn", Median(t.cpu_us_per_txn), "us");
  PutMetric(metrics, "latency_p50_us", Median(t.latency_p50_us), "us");
  PutMetric(metrics, "latency_p99_us", Median(t.latency_p99_us), "us");
  PutMetric(metrics, "setup_s", Median(t.create_s), "s");
  PutMetric(metrics, "peak_heap_mb", heap_mb, "MB");

  Json passes = Json::Object();
  passes["txn_per_s"] = Summary(t.txn_per_s);
  passes["raw_txn_per_s"] = Summary(t.raw_txn_per_s);
  passes["cpu_us_per_txn"] = Summary(t.cpu_us_per_txn);
  passes["raw_cpu_us_per_txn"] = Summary(t.raw_cpu_us_per_txn);
  passes["setup_s"] = Summary(t.create_s);
  passes["reference_ns"] = Summary(t.reference_ns);
  Json heap = Json::Array();
  for (const std::vector<double>& slot : t.heap_mb) heap.Append(Summary(slot));
  passes["peak_heap_mb"] = heap;
  passes["latency_p50_us"] = Summary(t.latency_p50_us);
  passes["latency_p99_us"] = Summary(t.latency_p99_us);
  passes["raw_latency_p99_us"] = Summary(t.raw_latency_p99_us);
  passes["latency_samples"] = Json(t.latency_samples);
  out->run["passes"] = passes;
  out->run["reference_ns_nominal"] =
      Json(NominalReferenceNs(w.busy_threads()));
  out->run["process_max_rss_mb"] = Json(MaxRssMb());

  uint64_t pass_txns = 0, pass_aborted = 0, pass_messages = 0;
  std::vector<double> result_latency_us;
  for (const SystemRun& run : t.last_pass) {
    pass_txns += run.txns;
    pass_aborted += run.aborted;
    pass_messages += run.messages;
    result_latency_us.insert(result_latency_us.end(),
                             run.result_latency_us.begin(),
                             run.result_latency_us.end());
  }
  // Deterministic by construction: identical for a given seed.
  Json exact = Json::Object();
  exact["abort_rate"] = Json(static_cast<double>(pass_aborted) /
                             static_cast<double>(pass_txns));
  exact["error_rate"] = Json(static_cast<double>(t.errors.count) /
                             static_cast<double>(t.attempted));
  if (!w.threaded()) {
    exact["result_latency_p50_virtual_us"] =
        Json(Percentile(result_latency_us, 0.50));
    exact["result_latency_p99_virtual_us"] =
        Json(Percentile(result_latency_us, 0.99));
    exact["msgs_per_txn"] = Json(static_cast<double>(pass_messages) /
                                 static_cast<double>(pass_txns));
  }
  out->run["exact"] = exact;
  out->attempted = t.attempted;
  out->errors.Merge(t.errors);
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  return static_cast<bool>(f);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    Usage();
    return 2;
  }

  Output out;
  out.run["workload"] = Json(w->name);
  out.run["seed"] = Json(args.seed);
  out.run["seconds"] = Json(args.seconds);
  out.run["trace"] = Json(args.trace);
  out.run["quick"] = Json(args.quick);
  std::vector<FacadeSpan> spans;
  const Workload sized = Sized(*w, args.quick);
  if (args.trace) {
    PerLayer(sized, args.seed, args.seconds, &out.metrics, &out.run,
             &out.attempted, &out.errors, &spans);
  } else {
    EndToEnd(sized, args.seed, args.seconds, &out);
  }

  const bool correct = out.errors.count == 0;
  Json errors = Json::Array();
  for (const std::string& e : out.errors.samples) errors.Append(Json(e));
  out.run["errors"] = errors;
  out.run["metrics"] = out.metrics;

  if (!args.out.empty()) {
    const std::string stem =
        args.out + "/" + w->name + (args.trace ? ".traced" : "");
    bool ok = WriteFile(stem + "." + std::to_string(args.seed) + ".json",
                        out.run.Dump(2) + "\n");
    // One spans file per workload, overwritten by each traced run.
    if (args.trace) {
      ok = WriteFile(stem + ".spans.jsonl", SpansJsonl(spans)) && ok;
    }
    if (!ok) {
      std::fprintf(stderr, "cannot write run files under %s\n",
                   args.out.c_str());
      return 1;
    }
  }

  for (const std::string& e : out.errors.samples) {
    std::fprintf(stderr, "error: %s\n", e.c_str());
  }
  Json line = Json::Object();
  line["correct"] = Json(correct);
  line["attempted"] = Json(out.attempted);
  line["failed"] = Json(out.errors.count);
  line["metrics"] = out.metrics;
  std::printf("%s\n", line.Dump().c_str());
  return correct ? 0 : 1;
}
