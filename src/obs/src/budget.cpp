#include "dut/obs/budget.hpp"

#include <algorithm>
#include <string>

namespace dut::obs {

void BudgetLedger::begin_run(std::uint32_t nodes, const BudgetSpec& spec) {
  spec_ = spec;
  usage_ = BudgetUsage{};
  node_bits_.assign(nodes, 0);
}

std::string BudgetLedger::send_breach(std::uint64_t round, std::uint32_t from,
                                      std::uint64_t bits) const {
  if (over_width(bits)) {
    return std::to_string(bits) + " bits from node " + std::to_string(from) +
           " in round " + std::to_string(round) + " exceeds the declared " +
           std::to_string(spec_.bits_per_edge_round) + " bits/edge/round";
  }
  return "message " + std::to_string(usage_.messages) +
         " exceeds the declared cap of " + std::to_string(spec_.max_messages) +
         " messages";
}

std::string BudgetLedger::finish_run(std::uint64_t rounds) {
  for (std::uint32_t v = 0; v < node_bits_.size(); ++v) {
    if (node_bits_[v] > usage_.max_node_bits) {
      usage_.max_node_bits = node_bits_[v];
      usage_.busiest_node = v;
    }
  }
  if (spec_.max_rounds != 0 && rounds > spec_.max_rounds) {
    ++usage_.violations;
    return std::to_string(rounds) +
           " rounds exceeds the declared bound of " +
           std::to_string(spec_.max_rounds);
  }
  return {};
}

}  // namespace dut::obs
