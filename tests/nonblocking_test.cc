#include <gtest/gtest.h>

#include "analysis/nonblocking.h"
#include "analysis/resiliency.h"
#include "protocols/protocols.h"
#include "protocols/registry.h"

namespace nbcp {
namespace {

struct ProtocolCase {
  const char* name;
  bool nonblocking;
};

// Without a printer gtest shows the raw bytes of `name`, a pointer that moves
// with address-space randomisation, and the test's listed name moves with it.
void PrintTo(const ProtocolCase& pcase, std::ostream* os) {
  *os << pcase.name;
}

class TheoremTest
    : public ::testing::TestWithParam<std::tuple<ProtocolCase, size_t>> {};

// The headline classification: both 2PC protocols (and 1PC) block; both 3PC
// protocols are nonblocking — for every population size.
TEST_P(TheoremTest, ClassifiesProtocol) {
  const auto& [pcase, n] = GetParam();
  auto spec = MakeProtocol(pcase.name);
  ASSERT_TRUE(spec.ok());
  auto report = CheckNonblocking(*spec, n);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->nonblocking, pcase.nonblocking)
      << pcase.name << " n=" << n << "\n"
      << report->ToString();
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, TheoremTest,
    ::testing::Combine(
        ::testing::Values(ProtocolCase{"1PC-central", false},
                          ProtocolCase{"2PC-central", false},
                          ProtocolCase{"2PC-decentralized", false},
                          ProtocolCase{"3PC-central", true},
                          ProtocolCase{"3PC-decentralized", true}),
        ::testing::Values(2, 3, 4)),
    [](const auto& info) {
      std::string name = std::get<0>(info.param).name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_n" + std::to_string(std::get<1>(info.param));
    });

TEST(TheoremTest, TwoPcSlaveWaitViolatesBothConditions) {
  auto report = CheckNonblocking(MakeTwoPhaseCentral(), 3);
  ASSERT_TRUE(report.ok());
  bool c1_violation = false;
  bool c2_violation = false;
  for (const Violation& v : report->violations) {
    if (v.state_name != "w") continue;
    if (v.kind == ViolationKind::kAbortAndCommitInConcurrencySet) {
      c1_violation = true;
    }
    if (v.kind == ViolationKind::kCommitInConcurrencySetOfNoncommittable) {
      c2_violation = true;
    }
  }
  EXPECT_TRUE(c1_violation) << "2PC can block for reason 1";
  EXPECT_TRUE(c2_violation) << "2PC can block for reason 2";
}

TEST(TheoremTest, TwoPcCentralCoordinatorSatisfiesConditions) {
  // The coordinator itself never blocks in central 2PC: it is the slaves
  // that get stuck. (Only a size-1 subset exists, so by the corollary the
  // protocol tolerates zero failures.)
  auto report = CheckNonblocking(MakeTwoPhaseCentral(), 3);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->satisfying_sites, (std::vector<SiteId>{1}));
}

TEST(TheoremTest, DecentralizedTwoPcHasNoSatisfyingSite) {
  auto report = CheckNonblocking(MakeTwoPhaseDecentralized(), 3);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->satisfying_sites.empty());
}

TEST(TheoremTest, ThreePcEverySiteSatisfies) {
  for (const char* name : {"3PC-central", "3PC-decentralized"}) {
    auto report = CheckNonblocking(*MakeProtocol(name), 4);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->satisfying_sites.size(), 4u) << name;
  }
}

TEST(TheoremTest, ViolationFormatting) {
  auto report = CheckNonblocking(MakeTwoPhaseDecentralized(), 2);
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->violations.empty());
  std::string text = report->ToString();
  EXPECT_NE(text.find("BLOCKING"), std::string::npos);
  EXPECT_NE(text.find("CS="), std::string::npos);
  EXPECT_NE(report->violations[0].ToString().find("site"),
            std::string::npos);
}

// --- Resiliency corollary ---------------------------------------------

TEST(ResiliencyTest, ThreePcToleratesAllButOne) {
  auto report = CheckResiliency(*MakeProtocol("3PC-central"), 4);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->max_tolerated_failures(), 3u);
  EXPECT_TRUE(report->NonblockingUnder(3));
  EXPECT_FALSE(report->NonblockingUnder(4));
}

TEST(ResiliencyTest, TwoPcToleratesNothing) {
  auto central = CheckResiliency(*MakeProtocol("2PC-central"), 4);
  ASSERT_TRUE(central.ok());
  EXPECT_EQ(central->max_tolerated_failures(), 0u);
  auto dec = CheckResiliency(*MakeProtocol("2PC-decentralized"), 4);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec->max_tolerated_failures(), 0u);
  EXPECT_TRUE(dec->NonblockingUnder(0));
  EXPECT_FALSE(dec->NonblockingUnder(1));
}

// --- Design lemma (adjacency form) -------------------------------------

TEST(LemmaTest, CanonicalTwoPcViolatesLemma) {
  Automaton canon = MakeCanonicalTwoPhase();
  auto committable = CommittableStates(canon, 3);
  ASSERT_TRUE(committable.ok());
  EXPECT_EQ(*committable,
            (std::set<StateIndex>{canon.FindState("c")}));
  LemmaReport report = CheckAdjacencyLemma(canon, *committable);
  EXPECT_FALSE(report.satisfied);
  // w is adjacent to both a and c, and w is noncommittable adjacent to c.
  ASSERT_EQ(report.states_adjacent_to_both.size(), 1u);
  EXPECT_EQ(report.states_adjacent_to_both[0], canon.FindState("w"));
  ASSERT_EQ(report.noncommittable_adjacent_to_commit.size(), 1u);
  EXPECT_EQ(report.noncommittable_adjacent_to_commit[0],
            canon.FindState("w"));
}

TEST(LemmaTest, BufferedCanonicalSatisfiesLemma) {
  Automaton buffered = MakeCanonicalBuffered();
  auto committable = CommittableStates(buffered, 3);
  ASSERT_TRUE(committable.ok());
  EXPECT_TRUE(committable->count(buffered.FindState("p")) != 0);
  EXPECT_TRUE(committable->count(buffered.FindState("c")) != 0);
  LemmaReport report = CheckAdjacencyLemma(buffered, *committable);
  EXPECT_TRUE(report.satisfied)
      << "with the buffer state inserted the lemma holds";
}

TEST(LemmaTest, ViolationKindNames) {
  EXPECT_NE(ToString(ViolationKind::kAbortAndCommitInConcurrencySet).find(
                "both"),
            std::string::npos);
  EXPECT_NE(
      ToString(ViolationKind::kCommitInConcurrencySetOfNoncommittable).find(
          "noncommittable"),
      std::string::npos);
}

}  // namespace
}  // namespace nbcp
