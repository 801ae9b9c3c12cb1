// Experiment Q6: end-to-end transaction throughput on the KV substrate per
// commit protocol, plus google-benchmark micro-benchmarks of the
// spec-interpreting engine and the analysis machinery (the "interpreted
// FSA" ablation from DESIGN.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/concurrency_set.h"
#include "analysis/state_graph.h"
#include "bench_util.h"
#include "common/rng.h"
#include "core/transaction_manager.h"
#include "core/workload.h"
#include "protocols/engine.h"
#include "protocols/handcoded_3pc.h"
#include "protocols/protocols.h"
#include "sim/simulator.h"
#include "protocols/registry.h"

using namespace nbcp;

namespace {

// ---------------------------------------------------------------------
// Q6 table: virtual-time throughput of a mixed KV workload.
// ---------------------------------------------------------------------
void RunThroughputTable(bench::JsonReport* report) {
  const int kWarmup = 1;
  const int kReps = 3;
  report->root()["reps"] = Json(kReps);
  report->root()["warmup"] = Json(kWarmup);
  bench::Banner("Q6", "KV transaction throughput per commit protocol");
  std::printf("closed loop: 200 serial transactions (pure protocol cost).\n"
              "open loop: Poisson arrivals every ~150us over 12 hot keys —\n"
              "overlapping transactions conflict on locks and vote no.\n"
              "%d warmup + median of %d seeded repetitions per cell.\n\n",
              kWarmup, kReps);
  std::printf("%-20s | %12s | %10s %10s %10s %12s\n", "protocol",
              "closed tx/s", "open tx/s", "committed", "aborted",
              "abort rate");
  for (const std::string& name : BuiltinProtocolNames()) {
    WorkloadConfig closed;
    closed.num_transactions = 200;
    closed.mean_interarrival_us = 0;

    WorkloadConfig open;
    open.num_transactions = 400;
    open.mean_interarrival_us = 150;
    open.num_keys = 12;
    open.read_fraction = 0.2;

    // Each repetition is an independent seeded run; warmup runs stay out
    // of the snapshot's metric cells and statistics.
    std::optional<WorkloadResult> last_open;
    auto run = [&](const WorkloadConfig& workload, const char* cell, int i,
                   std::optional<WorkloadResult>* keep)
        -> std::optional<double> {
      SystemConfig config;
      config.protocol = name;
      config.num_sites = 4;
      config.seed = 77 + static_cast<uint64_t>(i);
      auto system = CommitSystem::Create(config);
      if (!system.ok()) return std::nullopt;
      WorkloadResult result = RunWorkload(system->get(), workload);
      if (i >= kWarmup) {
        report->cell(name + cell).Merge((*system)->registry());
        if (keep != nullptr) *keep = result;
      }
      return result.committed_per_virtual_second();
    };
    bench::Reps serial = bench::MedianOf(
        kWarmup, kReps,
        [&](int i) { return run(closed, "/closed", i, nullptr); });
    bench::Reps contended = bench::MedianOf(
        kWarmup, kReps,
        [&](int i) { return run(open, "/open", i, &last_open); });
    if (serial.samples.empty() || !last_open.has_value()) continue;

    std::printf("%-20s | %12.0f | %10.0f %10lu %10lu %11.1f%%\n",
                name.c_str(), serial.median, contended.median,
                static_cast<unsigned long>(last_open->metrics.committed),
                static_cast<unsigned long>(last_open->metrics.aborted),
                last_open->abort_rate() * 100.0);
    report->AddRow(
        "throughput",
        {{"protocol", Json(name)},
         {"closed_tps", Json(serial.median)},
         {"open_tps", Json(contended.median)},
         {"closed_tps_min", Json(serial.min)},
         {"closed_tps_max", Json(serial.max)},
         {"open_committed", Json(last_open->metrics.committed)},
         {"open_aborted", Json(last_open->metrics.aborted)},
         {"open_abort_rate", Json(last_open->abort_rate())}});
    bench::AddCriticalPathRow(report, name, 4, 77);
  }
  std::printf(
      "\nShape: 2PC outruns 3PC by the ratio of their round counts; the\n"
      "decentralized variants trade messages (O(n^2)) for one fewer\n"
      "sequential hop. Open-loop aborts come from no-wait lock conflicts\n"
      "(the unilateral-abort motivation); slower protocols hold locks\n"
      "longer and abort more.\n");
}

// ---------------------------------------------------------------------
// Micro-benchmarks (real time): interpreter and analysis costs.
// ---------------------------------------------------------------------

void BM_FailureFreeCommit(benchmark::State& state,
                          const std::string& protocol) {
  size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    SystemConfig config;
    config.protocol = protocol;
    config.num_sites = n;
    config.seed = 1;
    auto system = CommitSystem::Create(config);
    TransactionId txn = (*system)->Begin();
    TxnResult result = (*system)->RunToCompletion(txn);
    benchmark::DoNotOptimize(result.outcome);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_StateGraphBuild(benchmark::State& state,
                        const std::string& protocol) {
  size_t n = static_cast<size_t>(state.range(0));
  auto spec = MakeProtocol(protocol);
  for (auto _ : state) {
    auto graph = ReachableStateGraph::Build(*spec, n);
    benchmark::DoNotOptimize(graph->num_nodes());
  }
}

// Ablation: the spec-interpreting engine vs a hand-coded 3PC switch.
// Both run the identical failure-free commit (same messages, same rounds).
Outcome CommitHandCoded3pc(size_t n) {
  Simulator sim(1);
  Network net(&sim, DelayModel{100, 0});
  std::vector<std::unique_ptr<HandCodedThreePhase>> nodes;
  for (SiteId s = 1; s <= n; ++s) {
    nodes.push_back(std::make_unique<HandCodedThreePhase>(s, n, &net));
    HandCodedThreePhase* node = nodes.back().get();
    (void)net.RegisterSite(s, [node](const Message& m) { node->OnMessage(m); });
  }
  (void)nodes[0]->Start(1);
  sim.Run();
  return nodes[0]->OutcomeOf(1);
}

Outcome CommitInterpreted3pc(const ProtocolSpec& spec, size_t n) {
  Simulator sim(1);
  Network net(&sim, DelayModel{100, 0});
  std::vector<std::unique_ptr<ProtocolEngine>> engines;
  for (SiteId s = 1; s <= n; ++s) {
    engines.push_back(std::make_unique<ProtocolEngine>(s, &spec, n, &net));
    ProtocolEngine* engine = engines.back().get();
    (void)net.RegisterSite(
        s, [engine](const Message& m) { engine->OnMessage(m); });
  }
  (void)engines[0]->StartTransaction(1);
  sim.Run();
  return engines[0]->OutcomeOf(1);
}

void BM_HandCoded3pc(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CommitHandCoded3pc(n));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_InterpretedEngine3pc(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  ProtocolSpec spec = MakeThreePhaseCentral();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CommitInterpreted3pc(spec, n));
  }
  state.SetItemsProcessed(state.iterations());
}

// The ablation as a snapshot row: both commits at n=16, timed in the same
// run (alternating repetitions, median of each). Their ratio is the cost
// of interpreting the spec; as a same-run ratio it does not depend on the
// host, so the regression gate bounds it.
void RunAblationRow(bench::JsonReport* report) {
  constexpr size_t kSites = 16;
  constexpr int kCommits = 200;
  constexpr int kReps = 7;
  const ProtocolSpec spec = MakeThreePhaseCentral();
  auto us_per_commit = [](auto&& commit) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kCommits; ++i) benchmark::DoNotOptimize(commit());
    std::chrono::duration<double, std::micro> elapsed =
        std::chrono::steady_clock::now() - start;
    return elapsed.count() / kCommits;
  };
  std::vector<double> interpreted;
  std::vector<double> handcoded;
  interpreted.reserve(kReps);
  handcoded.reserve(kReps);
  for (int rep = 0; rep < kReps; ++rep) {
    handcoded.push_back(
        us_per_commit([&] { return CommitHandCoded3pc(kSites); }));
    interpreted.push_back(
        us_per_commit([&] { return CommitInterpreted3pc(spec, kSites); }));
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double interpreted_us = median(interpreted);
  const double handcoded_us = median(handcoded);
  const double ratio = interpreted_us / handcoded_us;
  bench::Banner("Q6a", "Interpreted vs hand-coded 3PC (real time, n=16)");
  std::printf("interpreted %.1f us, hand-coded %.1f us per commit: %.2fx\n",
              interpreted_us, handcoded_us, ratio);
  report->AddRow("ablation", {{"protocol", Json("3PC-central")},
                              {"n", Json(kSites)},
                              {"interpreted_us", Json(interpreted_us)},
                              {"handcoded_us", Json(handcoded_us)},
                              {"interpreted_over_handcoded", Json(ratio)}});
}

void BM_ConcurrencyAnalysis(benchmark::State& state) {
  auto spec = MakeProtocol("3PC-central");
  auto graph = ReachableStateGraph::Build(*spec, 4);
  for (auto _ : state) {
    auto analysis = ConcurrencyAnalysis::Compute(*graph);
    benchmark::DoNotOptimize(analysis.num_sites());
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report("throughput");
  RunThroughputTable(&report);
  RunAblationRow(&report);
  report.Write();

  bench::Banner("Q6b", "Engine/analysis micro-benchmarks (real time)");
  benchmark::RegisterBenchmark("commit/2PC-central",
                               [](benchmark::State& s) {
                                 BM_FailureFreeCommit(s, "2PC-central");
                               })
      ->Arg(4)
      ->Arg(16);
  benchmark::RegisterBenchmark("commit/3PC-central",
                               [](benchmark::State& s) {
                                 BM_FailureFreeCommit(s, "3PC-central");
                               })
      ->Arg(4)
      ->Arg(16);
  benchmark::RegisterBenchmark("commit/3PC-decentralized",
                               [](benchmark::State& s) {
                                 BM_FailureFreeCommit(s,
                                                      "3PC-decentralized");
                               })
      ->Arg(4)
      ->Arg(16);
  benchmark::RegisterBenchmark("graph-build/2PC-central",
                               [](benchmark::State& s) {
                                 BM_StateGraphBuild(s, "2PC-central");
                               })
      ->Arg(2)
      ->Arg(3)
      ->Arg(4);
  benchmark::RegisterBenchmark("graph-build/3PC-central",
                               [](benchmark::State& s) {
                                 BM_StateGraphBuild(s, "3PC-central");
                               })
      ->Arg(2)
      ->Arg(3)
      ->Arg(4);
  benchmark::RegisterBenchmark("concurrency-analysis/3PC-central-n4",
                               BM_ConcurrencyAnalysis);
  benchmark::RegisterBenchmark("ablation/handcoded-3pc", BM_HandCoded3pc)
      ->Arg(4)
      ->Arg(16);
  benchmark::RegisterBenchmark("ablation/interpreted-3pc",
                               BM_InterpretedEngine3pc)
      ->Arg(4)
      ->Arg(16);

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
