// Pins the allocation cost of a commit's hot path: the protocol engine's
// transitions, the simulated message path (Network + Simulator) and the
// causal-clock send and merge. An executable of its
// own, because it links the global operator new/delete replacement that
// counts allocations (bench/suite/alloc_count.cc).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "common/causal_clock.h"
#include "net/network.h"
#include "protocols/engine.h"
#include "protocols/registry.h"
#include "runtime/transport.h"

namespace nbcp {
namespace {

using bench::AllocScope;

/// Delivers sends in FIFO order on the calling thread, with no delay and no
/// fault model. The queue keeps its capacity between drains, so once warm
/// it allocates nothing and every allocation counted is the engines'.
class InMemoryTransport final : public Transport {
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
    for (size_t head = 0; head < queue_.size(); ++head) {
      Message m = std::move(queue_[head]);
      handlers_[m.to - 1](m);
    }
    queue_.clear();
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
  std::vector<Message> queue_;
};

constexpr size_t kSites = 8;
constexpr size_t kTxns = 256;
constexpr size_t kWave = 32;

/// Runs transactions 1..kTxns in waves; every fourth one gets a no vote
/// from site 2, so both outcomes are exercised.
void RunTransactions(const ProtocolSpec& spec, InMemoryTransport& transport,
                     std::vector<std::unique_ptr<ProtocolEngine>>& engines) {
  const bool decentralized = spec.paradigm() == Paradigm::kDecentralized;
  for (TransactionId base = 1; base <= kTxns; base += kWave) {
    for (TransactionId txn = base; txn < base + kWave; ++txn) {
      for (auto& engine : engines) {
        (void)engine->StartTransaction(txn);
        if (!decentralized) break;
      }
    }
    transport.Drain();
  }
}

TEST(AllocTest, EngineAllocatesTwicePerTransactionAndSite) {
  for (const std::string& name : BuiltinProtocolNames()) {
    SCOPED_TRACE(name);
    auto spec = MakeProtocol(name);
    ASSERT_TRUE(spec.ok());
    InMemoryTransport transport;
    std::vector<std::unique_ptr<ProtocolEngine>> engines;
    for (SiteId site = 1; site <= kSites; ++site) {
      engines.push_back(
          std::make_unique<ProtocolEngine>(site, &*spec, kSites, &transport));
      EngineHooks hooks;
      hooks.vote = [site](TransactionId txn) {
        return site != 2 || txn % 4 != 0;
      };
      engines.back()->set_hooks(std::move(hooks));
      ProtocolEngine* engine = engines.back().get();
      (void)transport.RegisterSite(
          site, [engine](const Message& m) { engine->OnMessage(m); });
    }
    // Warm-up: the same transactions once, so the transport queue and the
    // engines' transaction tables reach their size. Clear() keeps both.
    RunTransactions(*spec, transport, engines);
    for (auto& engine : engines) engine->Clear();

    uint64_t allocs = 0;
    {
      AllocScope scope;
      RunTransactions(*spec, transport, engines);
      allocs = scope.Delta().allocs;
    }
    for (TransactionId txn = 1; txn <= kTxns; ++txn) {
      for (auto& engine : engines) {
        ASSERT_NE(engine->OutcomeOf(txn), Outcome::kUndecided)
            << "txn " << txn << " site " << engine->site();
      }
    }
    // One transaction-table node and one inbox array per transaction and
    // site; firing a transition allocates nothing.
    EXPECT_LE(allocs, 2 * kTxns * kSites)
        << static_cast<double>(allocs) / (kTxns * kSites)
        << " allocations per transaction per site";
  }
}

TEST(AllocTest, DeliveryMergeAllocatesNothing) {
  CausalClockDomain clocks(kSites);
  ClockStamp sent = clocks.OnSend(1);
  uint64_t allocs = 0;
  {
    AllocScope scope;
    for (SiteId site = 2; site <= kSites; ++site) {
      clocks.MergeDelivery(site, sent);
    }
    allocs = scope.Delta().allocs;
  }
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(clocks.Current(kSites).lamport, sent.lamport + 1);
}

TEST(AllocTest, VectorFreeSendAndMergeAllocateNothing) {
  CausalClockDomain clocks(kSites, /*vectors=*/false);
  uint64_t allocs = 0;
  uint64_t lamport = 0;
  {
    AllocScope scope;
    for (SiteId site = 2; site <= kSites; ++site) {
      ClockStamp sent = clocks.OnSend(1);
      clocks.MergeDelivery(site, sent);
      lamport = clocks.OnDeliver(1, sent).lamport;
      clocks.Tick(site);
    }
    allocs = scope.Delta().allocs;
  }
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(lamport, 2 * (kSites - 1));
}

TEST(AllocTest, SimulatedDeliveryAllocatesNothingPerMessage) {
  constexpr size_t kMessages = 2048;
  Simulator sim(1);
  Network net(&sim, DelayModel{100, 20});
  CausalClockDomain clocks(kSites, /*vectors=*/false);
  net.set_clocks(&clocks);
  uint64_t delivered = 0;
  for (SiteId site = 1; site <= kSites; ++site) {
    ASSERT_TRUE(
        net.RegisterSite(site, [&delivered](const Message&) { ++delivered; })
            .ok());
  }
  // One wave: every message in flight at once, then drained, as a
  // simulated workload's wave is.
  auto wave = [&] {
    for (size_t i = 0; i < kMessages; ++i) {
      Message m;
      m.type = "yes";
      m.from = static_cast<SiteId>(i % kSites + 1);
      m.to = static_cast<SiteId>((i + 1) % kSites + 1);
      m.txn = i / kSites + 1;
      (void)net.Send(std::move(m));
    }
    sim.Run();
  };
  wave();  // Warm-up.
  uint64_t allocs = 0;
  {
    AllocScope scope;
    wave();
    allocs = scope.Delta().allocs;
  }
  EXPECT_EQ(delivered, 2 * kMessages);
  // The queue gives its slab back when it drains, so a wave regrows it:
  // one allocation per 64-slot chunk (31 beyond the kept first one) and
  // per doubling of the heap array (12). Anything per message (a closure,
  // a label, a stamp) would be >= 2,048.
  EXPECT_LE(allocs, 64u) << allocs << " allocations for " << kMessages
                         << " messages";
}

}  // namespace
}  // namespace nbcp
