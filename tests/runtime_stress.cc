// Standalone stress driver for the threaded runtime, built for sanitizer
// runs (TSan in CI) rather than ctest. Where runtime_test.cc checks exact
// parity on single executions, this binary hammers the backend with
// pipelined batches, mixed votes, and mid-broadcast crashes across every
// builtin protocol, so that rare interleavings get a chance to fire. It
// asserts only schedule-independent properties: batches fully commit when
// failure-free, no-votes abort (except 1PC), and crashed runs stay
// consistent.
//
// Knobs (environment):
//   NBCP_STRESS_TXNS    pipelined batch size per protocol   (default 64)
//   NBCP_STRESS_ROUNDS  crash rounds per protocol           (default 8)
//   NBCP_STRESS_SITES   sites per system                    (default 4)
//
// Exit code 0 on success, 1 on the first violated property. A failed crash
// round prints each site's outcome, termination start time and elected
// backup; an observed one also writes its merged trace to
// stress_<protocol>_<round>.trace.jsonl in the working directory.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/transaction_manager.h"
#include "protocols/protocols.h"
#include "protocols/registry.h"

using namespace nbcp;

namespace {

int EnvInt(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atoi(value);
}

int g_failures = 0;

#define STRESS_CHECK(cond, ...)                   \
  do {                                            \
    if (!(cond)) {                                \
      std::fprintf(stderr, "FAIL: " __VA_ARGS__); \
      std::fprintf(stderr, "\n");                 \
      ++g_failures;                               \
    }                                             \
  } while (0)

std::unique_ptr<CommitSystem> Make(const std::string& protocol, size_t n,
                                   uint64_t seed, bool observe) {
  SystemConfig config;
  config.protocol = protocol;
  config.num_sites = n;
  config.seed = seed;
  config.backend = SystemConfig::Backend::kThreaded;
  config.observe = observe;
  config.trace = observe;  // Kept for the failure report.
  // Crashes below are anchored to broadcast traps, so detection must not
  // outrun the driver's sequential wall-clock launches (see runtime_test).
  config.detection_delay = 5000;
  auto system = CommitSystem::Create(config);
  if (!system.ok()) {
    std::fprintf(stderr, "FAIL: Create(%s): %s\n", protocol.c_str(),
                 system.status().ToString().c_str());
    ++g_failures;
    return nullptr;
  }
  return std::move(*system);
}

// Pipelined failure-free batch: every transaction must commit, on every
// site, with the workers running fully parallel (no trace consumer).
void StressPipelined(const std::string& protocol, size_t n, int batch,
                     uint64_t seed) {
  auto system = Make(protocol, n, seed, /*observe=*/false);
  if (system == nullptr) return;
  std::vector<TransactionId> txns;
  txns.reserve(static_cast<size_t>(batch));
  for (int i = 0; i < batch; ++i) {
    TransactionId txn = system->Begin();
    txns.push_back(txn);
    if (!system->Launch(txn).ok()) {
      STRESS_CHECK(false, "%s: Launch(%lu)", protocol.c_str(),
                   static_cast<unsigned long>(txn));
      return;
    }
  }
  for (TransactionId txn : txns) {
    TxnResult result = system->AwaitQuiescence(txn);
    STRESS_CHECK(result.outcome == Outcome::kCommitted,
                 "%s: txn %lu not committed", protocol.c_str(),
                 static_cast<unsigned long>(txn));
    STRESS_CHECK(result.consistent, "%s: txn %lu inconsistent",
                 protocol.c_str(), static_cast<unsigned long>(txn));
  }
  STRESS_CHECK(system->metrics().committed == static_cast<uint64_t>(batch),
               "%s: committed %lu of %d", protocol.c_str(),
               static_cast<unsigned long>(system->metrics().committed), batch);
}

// Mixed votes, pipelined: every third transaction carries a no-vote.
// All protocols except 1PC (which ignores slave votes — the paper's
// critique of one-phase commit) must abort those and commit the rest.
void StressMixedVotes(const std::string& protocol, size_t n, int batch,
                      uint64_t seed) {
  auto system = Make(protocol, n, seed, /*observe=*/false);
  if (system == nullptr) return;
  std::vector<std::pair<TransactionId, bool>> txns;
  for (int i = 0; i < batch; ++i) {
    TransactionId txn = system->Begin();
    const bool veto = (i % 3) == 2;
    if (veto) system->SetVote(txn, 2, false);
    txns.emplace_back(txn, veto);
    if (!system->Launch(txn).ok()) {
      STRESS_CHECK(false, "%s: Launch(%lu)", protocol.c_str(),
                   static_cast<unsigned long>(txn));
      return;
    }
  }
  for (const auto& [txn, veto] : txns) {
    TxnResult result = system->AwaitQuiescence(txn);
    STRESS_CHECK(result.consistent, "%s: mixed txn %lu inconsistent",
                 protocol.c_str(), static_cast<unsigned long>(txn));
    const Outcome expected = (veto && protocol != "1PC-central")
                                 ? Outcome::kAborted
                                 : Outcome::kCommitted;
    STRESS_CHECK(result.outcome == expected, "%s: mixed txn %lu wrong outcome",
                 protocol.c_str(), static_cast<unsigned long>(txn));
  }
}

// What each site made of a failed crash round, read in the site's own
// worker context.
void ReportRound(CommitSystem& system, TransactionId txn,
                 const std::string& protocol, int round) {
  for (SiteId site = 1; site <= system.num_sites(); ++site) {
    std::string line;
    system.transport().PostSync(site, [&system, &line, site, txn] {
      Participant& p = system.participant(site);
      std::optional<SimTime> term = p.TerminationStartTime(txn);
      line = "site " + std::to_string(site) + ": " +
             ToString(p.OutcomeOf(txn)) + ", termination start " +
             (term.has_value() ? std::to_string(*term) + "us" : "-") +
             ", backup " +
             (p.termination() == nullptr
                  ? "- (crashed)"
                  : std::to_string(p.termination()->Backup(txn)));
    });
    std::fprintf(stderr, "    %s\n", line.c_str());
  }
  if (system.trace() == nullptr) return;
  const std::string path =
      "stress_" + protocol + "_" + std::to_string(round) + ".trace.jsonl";
  Status written = system.ExportTraceJsonl(path);
  std::fprintf(stderr, "    trace: %s\n",
               written.ok() ? path.c_str() : written.ToString().c_str());
}

// Mid-broadcast crash rounds: the per-protocol scenario from the parity
// suite, repeated across seeds. The property checked is the paper's:
// whatever the surviving sites decide, they decide it unanimously.
void StressCrashRounds(const std::string& protocol, size_t n, int rounds,
                       uint64_t seed_base) {
  struct Scenario {
    const char* msg_type;
    bool last_site;  ///< Crash site n (else site 1).
    bool all_but_predecessor;  ///< Allow n-2 copies (else the count below).
    size_t allow;
  };
  Scenario scenario;
  if (protocol == "1PC-central" || protocol == "2PC-central") {
    scenario = {msg::kCommit, false, false, 1};
  } else if (protocol == "3PC-central" || protocol == "Q3PC-central") {
    scenario = {msg::kPrepare, false, false, 1};
  } else if (protocol == "L2PC-linear") {
    scenario = {msg::kXact, false, false, 0};
  } else {
    scenario = {msg::kYes, true, true, 0};
  }
  for (int round = 0; round < rounds; ++round) {
    // Alternate the observer on and off so crash traffic runs both with
    // and without the per-site trace buffers and their merge.
    const bool observe = (round % 2) == 1;
    auto system = Make(protocol, n, seed_base + static_cast<uint64_t>(round),
                       observe);
    if (system == nullptr) return;
    TransactionId txn = system->Begin();
    const SiteId site = scenario.last_site ? static_cast<SiteId>(n) : 1;
    const size_t allow =
        scenario.all_but_predecessor ? n - 2 : scenario.allow;
    system->injector().CrashDuringBroadcast(site, txn, scenario.msg_type,
                                            allow);
    TxnResult result = system->RunToCompletion(txn);
    const int failures_before = g_failures;
    STRESS_CHECK(result.consistent, "%s: crash round %d inconsistent",
                 protocol.c_str(), round);
    // Two-phase protocols may block here — L2PC's coordinator dies before
    // any xact propagates, which is exactly the window the paper's
    // three-phase protocols exist to close. Only demand a decision where
    // the protocol promises one.
    if (protocol != "L2PC-linear") {
      STRESS_CHECK(result.outcome != Outcome::kUndecided,
                   "%s: crash round %d undecided", protocol.c_str(), round);
    }
    if (observe) {
      STRESS_CHECK(system->observer()->stats().violations == 0,
                   "%s: crash round %d observer violations", protocol.c_str(),
                   round);
    }
    if (g_failures != failures_before) {
      ReportRound(*system, txn, protocol, round);
    }
  }
}

}  // namespace

int main() {
  const int batch = EnvInt("NBCP_STRESS_TXNS", 64);
  const int rounds = EnvInt("NBCP_STRESS_ROUNDS", 8);
  const size_t n = static_cast<size_t>(EnvInt("NBCP_STRESS_SITES", 4));
  std::printf("runtime stress: %d txns, %d crash rounds, %zu sites\n", batch,
              rounds, n);
  for (const std::string& protocol : BuiltinProtocolNames()) {
    std::printf("  %-20s pipelined...", protocol.c_str());
    std::fflush(stdout);
    StressPipelined(protocol, n, batch, /*seed=*/11);
    std::printf(" mixed-votes...");
    std::fflush(stdout);
    StressMixedVotes(protocol, n, batch, /*seed=*/13);
    std::printf(" crash-rounds...");
    std::fflush(stdout);
    StressCrashRounds(protocol, n, rounds, /*seed_base=*/17);
    std::printf(" done\n");
  }
  if (g_failures != 0) {
    std::fprintf(stderr, "runtime stress: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("runtime stress: OK\n");
  return 0;
}
