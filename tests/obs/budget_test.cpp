#include "dut/obs/budget.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace dut::obs {
namespace {

TEST(BudgetSpec, FactoriesMatchTheirModels) {
  const BudgetSpec congest = BudgetSpec::congest(27, 1000);
  EXPECT_EQ(congest.bits_per_edge_round, 27u);
  EXPECT_EQ(congest.max_rounds, 1000u);
  EXPECT_EQ(congest.max_messages, BudgetSpec::kUnlimited);
  EXPECT_TRUE(congest.bounded());

  const BudgetSpec local = BudgetSpec::local(12);
  EXPECT_EQ(local.bits_per_edge_round, 0u);
  EXPECT_EQ(local.max_rounds, 12u);
  EXPECT_TRUE(local.bounded());

  // The 0-round testers may send nothing: max_messages is 0, not the
  // "unbounded" sentinel.
  const BudgetSpec zero = BudgetSpec::zero_round();
  EXPECT_EQ(zero.max_messages, 0u);
  EXPECT_TRUE(zero.bounded());

  EXPECT_FALSE(BudgetSpec{}.bounded());
}

TEST(BudgetLedger, WithinBudgetRunReportsNoViolations) {
  BudgetLedger ledger;
  ledger.begin_run(3, BudgetSpec::congest(8, 10));
  EXPECT_FALSE(ledger.on_send(0, 8)) << "at the limit is legal";
  EXPECT_FALSE(ledger.on_send(1, 5));
  EXPECT_FALSE(ledger.on_send(0, 3));
  EXPECT_TRUE(ledger.finish_run(10).empty()) << "at the round cap is legal";

  const BudgetUsage& usage = ledger.usage();
  EXPECT_EQ(usage.messages, 3u);
  EXPECT_EQ(usage.max_edge_round_bits, 8u);
  EXPECT_EQ(usage.max_node_bits, 11u);
  EXPECT_EQ(usage.busiest_node, 0u);
  EXPECT_EQ(usage.violations, 0u);
}

TEST(BudgetLedger, OverWideSendIsASoftViolation) {
  BudgetLedger ledger;
  ledger.begin_run(2, BudgetSpec::congest(8, 10));
  EXPECT_TRUE(ledger.on_send(0, 9));
  EXPECT_EQ(ledger.send_breach(0, 0, 9),
            "9 bits from node 0 in round 0 exceeds the declared 8 "
            "bits/edge/round");
  EXPECT_EQ(ledger.usage().violations, 1u);
  // The ledger keeps metering after a violation (soft check, not an abort).
  EXPECT_FALSE(ledger.on_send(0, 4));
  EXPECT_EQ(ledger.usage().messages, 2u);
}

TEST(BudgetLedger, RoundOverrunIsCaughtAtFinish) {
  BudgetLedger ledger;
  ledger.begin_run(2, BudgetSpec::local(5));
  EXPECT_FALSE(ledger.on_send(0, 1000))
      << "LOCAL leaves message width unbounded";
  const std::string violation = ledger.finish_run(6);
  EXPECT_FALSE(violation.empty());
  EXPECT_EQ(ledger.usage().violations, 1u);
}

TEST(BudgetLedger, ZeroRoundSpecForbidsAnyMessage) {
  BudgetLedger ledger;
  ledger.begin_run(2, BudgetSpec::zero_round());
  EXPECT_TRUE(ledger.on_send(0, 1));
  EXPECT_EQ(ledger.send_breach(0, 0, 1),
            "message 1 exceeds the declared cap of 0 messages");
  EXPECT_EQ(ledger.usage().violations, 1u);
  EXPECT_TRUE(ledger.finish_run(0).empty());
}

TEST(BudgetLedger, UnboundedSpecNeverViolates) {
  BudgetLedger ledger;
  ledger.begin_run(2, BudgetSpec{});
  EXPECT_FALSE(ledger.on_send(0, UINT64_MAX));
  EXPECT_TRUE(ledger.finish_run(UINT64_MAX).empty());
  EXPECT_EQ(ledger.usage().violations, 0u);
}

TEST(BudgetLedger, BeginRunResetsUsageForPooledEngines) {
  BudgetLedger ledger;
  ledger.begin_run(2, BudgetSpec::congest(4, 10));
  (void)ledger.on_send(1, 4);
  (void)ledger.on_send(1, 4);
  (void)ledger.finish_run(2);
  EXPECT_EQ(ledger.usage().messages, 2u);
  EXPECT_EQ(ledger.usage().busiest_node, 1u);

  // Engines are pooled across trials; a new run must start from zero even
  // when the node count changes.
  ledger.begin_run(3, BudgetSpec::congest(4, 10));
  EXPECT_EQ(ledger.usage().messages, 0u);
  EXPECT_EQ(ledger.usage().max_node_bits, 0u);
  (void)ledger.on_send(2, 3);
  EXPECT_TRUE(ledger.finish_run(1).empty());
  EXPECT_EQ(ledger.usage().messages, 1u);
  EXPECT_EQ(ledger.usage().busiest_node, 2u);
  EXPECT_EQ(ledger.usage().max_node_bits, 3u);
}

}  // namespace
}  // namespace dut::obs
