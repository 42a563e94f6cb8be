#pragma once

// InProcTransport: the single-process delivery backend — the engine's
// default, zero-copy for programs.
//
// Sends append to the pending side of a detail::RoundArena over the whole
// node range; flip_round() injects the delayed (fault-injected) messages
// that came due and flips the arena, which scatters the round's records
// into CSR inbox ranges touching only the nodes that received something
// (receivers() lists them, ascending, for the engine's woken set). All
// buffers are reused across rounds and runs, so a pooled engine's delivery
// machinery stays allocation-free after warm-up.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dut/net/transport/round_arena.hpp"
#include "dut/net/transport/transport.hpp"

namespace dut::net {

class InProcTransport final : public Transport {
 public:
  InProcTransport() = default;

  std::uint32_t rank() const noexcept override { return 0; }
  std::uint32_t num_ranks() const noexcept override { return 1; }
  std::pair<std::uint32_t, std::uint32_t> shard(
      std::uint32_t num_nodes) const override {
    return {0, num_nodes};
  }

  void begin_run(std::uint32_t num_nodes, bool fault_mode,
                 TransportHooks& hooks) override;
  void enqueue(const detail::ArenaRecord& rec,
               std::span<const std::uint64_t> fields, bool duplicate) override {
    arena_.push(rec, fields, duplicate);
  }
  void enqueue_delayed(const detail::ArenaRecord& rec,
                       std::span<const std::uint64_t> fields,
                       std::uint64_t due_round, bool duplicate) override {
    arena_.defer(rec, fields, due_round, duplicate);
  }
  RoundCounts exchange_round(std::uint64_t /*round*/,
                             RoundCounts local) override {
    return local;
  }
  void flip_round(std::uint64_t round) override;
  InboxView inbox(std::uint32_t node) const noexcept override {
    return arena_.inbox(node);
  }
  std::span<const std::uint32_t> receivers() const noexcept override {
    return arena_.receivers();
  }
  bool has_undelivered() const override { return arena_.has_pending(); }
  void settle_run(std::uint64_t round) override;
  void exchange_summaries(std::span<const std::uint64_t> local,
                          std::vector<std::uint64_t>& all) override {
    all.assign(local.begin(), local.end());
  }
  void abort_run(TransportAbortCode) noexcept override {}

 private:
  bool fault_mode_ = false;
  TransportHooks* hooks_ = nullptr;
  detail::RoundArena arena_;
};

}  // namespace dut::net
