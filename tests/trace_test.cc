#include <gtest/gtest.h>

#include "core/transaction_manager.h"
#include "protocols/protocols.h"
#include "trace/trace.h"

namespace nbcp {
namespace {

TEST(TraceRecorderTest, RecordsAndFilters) {
  TraceRecorder trace;
  trace.Record(100, 1, 7, TraceEventType::kStateChange, "w");
  trace.Record(200, 2, 7, TraceEventType::kDecision, "committed");
  trace.Record(300, 2, 8, TraceEventType::kDecision, "aborted");
  EXPECT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.ForTransaction(7).size(), 2u);
  EXPECT_EQ(trace.Count(TraceEventType::kDecision), 2u);
  EXPECT_EQ(trace.Count(TraceEventType::kDecision, 8), 1u);
  trace.Clear();
  EXPECT_TRUE(trace.events().empty());
}

TEST(TraceRecorderTest, RingBufferEvictsOldestAtCapacity) {
  TraceRecorder trace(3);
  for (SimTime t = 100; t <= 500; t += 100) {
    trace.Record(t, 1, 7, TraceEventType::kStateChange, std::to_string(t));
  }
  EXPECT_EQ(trace.capacity(), 3u);
  EXPECT_EQ(trace.events().size(), 3u);
  EXPECT_EQ(trace.dropped(), 2u);
  // The oldest two events (t=100, t=200) were evicted.
  EXPECT_EQ(trace.events().front().at, 300u);
  EXPECT_EQ(trace.events().back().at, 500u);
}

TEST(TraceRecorderTest, SetCapacityTrimsExistingEvents) {
  TraceRecorder trace;  // Unbounded by default.
  for (SimTime t = 1; t <= 10; ++t) {
    trace.Record(t, 1, 7, TraceEventType::kStateChange, "s");
  }
  EXPECT_EQ(trace.events().size(), 10u);
  EXPECT_EQ(trace.dropped(), 0u);
  trace.set_capacity(4);
  EXPECT_EQ(trace.events().size(), 4u);
  EXPECT_EQ(trace.dropped(), 6u);
  EXPECT_EQ(trace.events().front().at, 7u);
}

TEST(TraceRecorderTest, RenderIncludesDetails) {
  TraceRecorder trace;
  trace.Record(150, 3, 1, TraceEventType::kVoteCast, "yes");
  std::string text = trace.Render();
  EXPECT_NE(text.find("t=150us"), std::string::npos);
  EXPECT_NE(text.find("site 3"), std::string::npos);
  EXPECT_NE(text.find("[vote]"), std::string::npos);
  EXPECT_NE(text.find("yes"), std::string::npos);
}

TEST(TraceRecorderTest, LaneViewSkipsMessageNoise) {
  TraceRecorder trace;
  trace.Record(100, 1, 1, TraceEventType::kMessageSent, "xact->2");
  trace.Record(200, 2, 1, TraceEventType::kStateChange, "w");
  std::string lanes = trace.RenderLanes(1, 2);
  EXPECT_EQ(lanes.find("xact"), std::string::npos);
  EXPECT_NE(lanes.find("state:w"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Per-site buffers and their causal merge (the threaded backend)

/// One buffered event; `label` (stored as the detail) names it in the
/// expected merge order.
TraceEvent Buffered(SiteId site, TraceEventType type, uint64_t lamport,
                    const std::string& label, uint64_t seq = 0) {
  TraceEvent e;
  e.site = site;
  e.txn = 1;
  e.type = type;
  e.detail = label;
  e.seq = seq;
  e.stamp.lamport = lamport;
  return e;
}

std::vector<std::string> Labels(const std::vector<TraceEvent>& events) {
  std::vector<std::string> labels;
  for (const TraceEvent& e : events) labels.push_back(e.detail);
  return labels;
}

using Buffers = std::vector<std::vector<TraceEvent>>;
constexpr TraceEventType kStart = TraceEventType::kProtocolStart;
constexpr TraceEventType kSend = TraceEventType::kMessageSent;
constexpr TraceEventType kRecv = TraceEventType::kMessageDelivered;
constexpr TraceEventType kDrop = TraceEventType::kMessageDropped;
constexpr TraceEventType kState = TraceEventType::kStateChange;

TEST(MergeSiteBuffersTest, DropStampedBelowItsSendWaitsForTheSend) {
  // Site 2 crashed before merging site 1's stamp: its drop carries L11,
  // below the send's L12. Lamport order alone would put the drop first.
  Buffers buffers(3);
  buffers[1] = {Buffered(1, kStart, 11, "start1"),
                Buffered(1, kSend, 12, "send5", 5)};
  buffers[2] = {Buffered(2, kDrop, 11, "drop5", 5)};
  EXPECT_EQ(Labels(MergeSiteBuffers(&buffers)),
            (std::vector<std::string>{"start1", "send5", "drop5"}));
}

TEST(MergeSiteBuffersTest, BlocksStayWholeAndSendsPrecedeDeliveries) {
  // Site 2's recv/send/state block spans L3..L5 while site 3's delivery
  // sits at L4: the block is emitted whole, and site 1's recv of seq 3
  // waits until the block holding its send is out.
  Buffers buffers(4);
  buffers[1] = {Buffered(1, kStart, 1, "start1"),
                Buffered(1, kSend, 2, "send1", 1),
                Buffered(1, kSend, 3, "send2", 2),
                Buffered(1, kRecv, 5, "recv3", 3),
                Buffered(1, kState, 5, "state1")};
  buffers[2] = {Buffered(2, kRecv, 3, "recv1", 1),
                Buffered(2, kSend, 4, "send3", 3),
                Buffered(2, kState, 5, "state2")};
  buffers[3] = {Buffered(3, kRecv, 4, "recv2", 2),
                Buffered(3, kState, 4, "state3")};
  EXPECT_EQ(Labels(MergeSiteBuffers(&buffers)),
            (std::vector<std::string>{"start1", "send1", "send2", "recv1",
                                      "send3", "state2", "recv2", "state3",
                                      "recv3", "state1"}));
}

TEST(MergeSiteBuffersTest, TimerSendJoinsThePreviousBlock) {
  // Site 1's timer fires after its delivery block and sends at L7. The
  // send joins that block, ahead of site 3's start at L6; site 2 opens the
  // batch with a block left over from a delivery in an earlier batch.
  Buffers buffers(4);
  buffers[1] = {Buffered(1, kRecv, 5, "recv1", 1),
                Buffered(1, kState, 5, "state1"),
                Buffered(1, kSend, 7, "timer-send2", 2)};
  buffers[2] = {Buffered(2, kSend, 2, "send1", 1),
                Buffered(2, kRecv, 8, "recv2", 2)};
  buffers[3] = {Buffered(3, kStart, 6, "start3")};
  EXPECT_EQ(Labels(MergeSiteBuffers(&buffers)),
            (std::vector<std::string>{"send1", "recv1", "state1",
                                      "timer-send2", "start3", "recv2"}));
}

TEST(MergeSiteBuffersTest, EqualStampsGoToTheLowerSite) {
  Buffers buffers(3);
  buffers[2] = {Buffered(2, kStart, 1, "start2")};
  buffers[1] = {Buffered(1, kStart, 1, "start1")};
  EXPECT_EQ(Labels(MergeSiteBuffers(&buffers)),
            (std::vector<std::string>{"start1", "start2"}));
}

TEST(TraceRecorderTest, PerSiteBuffersMergeAtFlushWithLinkCutsFirst) {
  CausalClockDomain clocks(2);
  TraceRecorder trace;
  trace.set_clocks(&clocks);
  trace.BufferPerSite(2);
  std::vector<std::string> fed;
  trace.set_sink([&trace, &fed](const TraceEvent& e) {
    fed.push_back(ToString(e.type) + ":" + e.detail);
    // An observer-style consumer records its own kind in response.
    if (e.type != TraceEventType::kGlobalState) {
      trace.Record(e.at, e.site, e.txn, TraceEventType::kGlobalState,
                   "after-" + e.detail);
    }
  });

  // Site 2 delivers a message site 1 sends; the link cut is recorded last
  // but belongs to no site.
  clocks.OnLocal(1);
  trace.Record(1, 1, 1, kStart, "start1");
  ClockStamp sent = clocks.OnSend(1);
  trace.Record(2, 1, 1, kSend, "send1", 1);
  clocks.OnDeliver(2, sent);
  trace.Record(3, 2, 1, kRecv, "recv1", 1);
  trace.Record(4, kNoSite, kNoTransaction, TraceEventType::kLinkCut, "1-2");
  // A site outside 1..n shares the buffer of no site.
  trace.Record(5, 9, 1, kDrop, "stray");
  EXPECT_TRUE(trace.events().empty());
  EXPECT_TRUE(fed.empty());

  trace.FlushBuffers();
  const std::vector<std::string> batch = {"1-2", "stray", "start1", "send1",
                                          "recv1"};
  std::vector<std::string> expected = batch;
  for (const std::string& label : batch) expected.push_back("after-" + label);
  std::vector<std::string> stored;
  for (const TraceEvent& e : trace.events()) stored.push_back(e.detail);
  EXPECT_EQ(stored, expected);
  ASSERT_EQ(fed.size(), expected.size());
  EXPECT_EQ(fed.front(), "link-cut:1-2");
  EXPECT_EQ(fed.back(), "global-state:after-recv1");
  // Site events carry their site's stamp at recording time.
  EXPECT_EQ(trace.events()[4].stamp.lamport, clocks.Current(2).lamport);

  // Nothing is left over for the next flush.
  trace.FlushBuffers();
  EXPECT_EQ(trace.events().size(), expected.size());
}

TEST(TraceRecorderTest, FlushWithStoringOffOnlyFeedsTheSink) {
  TraceRecorder trace;
  trace.set_store(false);
  trace.BufferPerSite(1);
  size_t fed = 0;
  trace.set_sink([&fed](const TraceEvent&) { ++fed; });
  trace.Record(1, 1, 1, kStart, "start1");
  trace.Record(2, 1, 1, kState, "w");
  trace.FlushBuffers();
  EXPECT_EQ(fed, 2u);
  EXPECT_TRUE(trace.events().empty());
}

class SystemTraceTest : public ::testing::Test {
 protected:
  std::unique_ptr<CommitSystem> Make(const std::string& protocol) {
    SystemConfig config;
    config.protocol = protocol;
    config.num_sites = 3;
    config.seed = 9;
    config.trace = true;
    auto system = CommitSystem::Create(config);
    EXPECT_TRUE(system.ok());
    return std::move(*system);
  }
};

TEST_F(SystemTraceTest, FailureFreeCommitIsFullyTraced) {
  auto system = Make("3PC-central");
  TransactionId txn = system->Begin();
  system->RunToCompletion(txn);
  TraceRecorder* trace = system->trace();
  ASSERT_NE(trace, nullptr);

  // Protocol start at the coordinator, one vote per site, one decision
  // per site, and exactly the 5(n-1)=10 protocol messages.
  EXPECT_EQ(trace->Count(TraceEventType::kProtocolStart, txn), 1u);
  EXPECT_EQ(trace->Count(TraceEventType::kVoteCast, txn), 3u);
  EXPECT_EQ(trace->Count(TraceEventType::kDecision, txn), 3u);
  EXPECT_EQ(trace->Count(TraceEventType::kMessageSent, txn), 10u);
  EXPECT_EQ(trace->Count(TraceEventType::kMessageDelivered, txn), 10u);
  EXPECT_EQ(trace->Count(TraceEventType::kMessageDropped, txn), 0u);

  // Events are time-ordered.
  SimTime last = 0;
  for (const TraceEvent& e : trace->events()) {
    EXPECT_GE(e.at, last);
    last = e.at;
  }
}

TEST_F(SystemTraceTest, CoordinatorCrashShowsTerminationMachinery) {
  auto system = Make("3PC-central");
  TransactionId txn = system->Begin();
  system->injector().CrashDuringBroadcast(1, txn, msg::kPrepare, 0);
  TxnResult result = system->RunToCompletion(txn);
  EXPECT_FALSE(result.blocked);

  TraceRecorder* trace = system->trace();
  EXPECT_EQ(trace->Count(TraceEventType::kCrash), 1u);
  EXPECT_GE(trace->Count(TraceEventType::kTerminationStart, txn), 1u);
  EXPECT_GE(trace->Count(TraceEventType::kElectionWon, txn), 1u);
  EXPECT_GE(trace->Count(TraceEventType::kTerminationDecide, txn), 1u);
  // The two surviving slaves decide.
  EXPECT_EQ(trace->Count(TraceEventType::kDecision, txn), 2u);
}

TEST_F(SystemTraceTest, BlockedTwoPcIsVisibleInTrace) {
  auto system = Make("2PC-central");
  TransactionId txn = system->Begin();
  system->injector().CrashDuringBroadcast(1, txn, msg::kCommit, 0);
  TxnResult result = system->RunToCompletion(txn);
  EXPECT_TRUE(result.blocked);
  EXPECT_GE(system->trace()->Count(TraceEventType::kBlocked, txn), 1u);
}

TEST_F(SystemTraceTest, RecoveryAppearsInTrace) {
  auto system = Make("3PC-central");
  TransactionId txn = system->Begin();
  system->injector().ScheduleCrash(3, 250);
  system->injector().ScheduleRecovery(3, 5'000'000);
  system->RunToCompletion(txn);
  EXPECT_EQ(system->trace()->Count(TraceEventType::kCrash), 1u);
  EXPECT_EQ(system->trace()->Count(TraceEventType::kRecover), 1u);
}

TEST_F(SystemTraceTest, TraceOffByDefault) {
  SystemConfig config;
  config.protocol = "2PC-central";
  config.num_sites = 3;
  auto system = CommitSystem::Create(config);
  ASSERT_TRUE(system.ok());
  EXPECT_EQ((*system)->trace(), nullptr);
}

TEST_F(SystemTraceTest, LaneRenderingShowsAllSites) {
  auto system = Make("2PC-central");
  TransactionId txn = system->Begin();
  system->RunToCompletion(txn);
  std::string lanes = system->trace()->RenderLanes(txn, 3);
  EXPECT_NE(lanes.find("site 1"), std::string::npos);
  EXPECT_NE(lanes.find("site 3"), std::string::npos);
  EXPECT_NE(lanes.find("decision"), std::string::npos);
}

}  // namespace
}  // namespace nbcp
