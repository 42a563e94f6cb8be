#include "dut/net/transport/inproc.hpp"

namespace dut::net {

void InProcTransport::begin_run(std::uint32_t num_nodes, bool fault_mode,
                                TransportHooks& hooks) {
  fault_mode_ = fault_mode;
  hooks_ = &hooks;
  arena_.reset(0, num_nodes);
}

void InProcTransport::flip_round(std::uint64_t round) {
  // Delayed messages whose round has come join the scatter behind this
  // round's fresh sends (stable scatter ⇒ fresh-before-delayed per inbox).
  if (fault_mode_) arena_.inject_deferred(round, *hooks_);
  arena_.flip();
}

void InProcTransport::settle_run(std::uint64_t /*round*/) {
  // Delayed messages that never came due are accounted as expired. Sends
  // staged in the final round already paid their send-site expiry checks,
  // so no final flip is needed in-process.
  arena_.expire_deferred(*hooks_);
}

}  // namespace dut::net
