#pragma once

// ProtocolDriver: the shared run-a-protocol harness behind the CONGEST and
// LOCAL experiment entry points.
//
// Every network experiment repeats the same boilerplate per Monte-Carlo
// trial: construct one program per node, run an Engine over them, and read a
// verdict out of the finished programs. The driver owns that loop's
// machinery — in particular a pool of re-runnable engines (one per
// concurrent worker, handed out under a mutex as RAII leases) so that
// parallel trials fanned out by stats::TrialRunner each reuse a warm engine
// instead of reconstructing one per trial, and so that the arena buffers
// inside each engine amortize across the whole sweep.
//
// Tracing semantics under parallel trials: run_trial(seed, traced, ...)
// opts the leased engine in or out of DUT_TRACE resolution per trial, so
// the caller designates exactly one trial (by convention trial 0) to
// produce the JSONL transcript regardless of which worker thread runs it.

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "dut/net/engine.hpp"
#include "dut/net/fault.hpp"
#include "dut/net/graph.hpp"

namespace dut::net {

class ProtocolDriver {
  struct State {
    State(const Graph& graph, const EngineConfig& config)
        : engine(graph, config) {}
    Engine engine;
    std::vector<NodeProgram*> table;  // reused raw-pointer program table
  };

 public:
  /// The driver keeps a reference to `graph`; the caller must keep it alive.
  ProtocolDriver(const Graph& graph, EngineConfig base_config);

  /// Same, with a fault plan attached from the start (the driver is
  /// non-movable, so factories that return one by prvalue cannot call
  /// set_fault_plan after construction).
  ProtocolDriver(const Graph& graph, EngineConfig base_config,
                 const FaultPlan& faults)
      : ProtocolDriver(graph, base_config) {
    fault_plan_ = faults;
  }

  ProtocolDriver(const ProtocolDriver&) = delete;
  ProtocolDriver& operator=(const ProtocolDriver&) = delete;

  /// Exclusive hold on one pooled engine; returns it on destruction.
  class Lease {
   public:
    ~Lease() {
      if (owner_ != nullptr) owner_->release(state_);
    }
    Lease(Lease&& other) noexcept
        : owner_(other.owner_), state_(other.state_) {
      other.owner_ = nullptr;
      other.state_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    Engine& engine() noexcept { return state_->engine; }
    std::vector<NodeProgram*>& program_table() noexcept {
      return state_->table;
    }

   private:
    friend class ProtocolDriver;
    Lease(ProtocolDriver* owner, State* state) noexcept
        : owner_(owner), state_(state) {}
    ProtocolDriver* owner_;
    State* state_;
  };

  /// Takes an engine from the pool, growing it if every engine is leased
  /// (steady state: one engine per concurrent worker thread).
  Lease acquire();

  const Graph& graph() const noexcept { return graph_; }
  const EngineConfig& config() const noexcept { return base_config_; }

  /// Attaches a delivery backend to every pooled engine (nullptr restores
  /// each engine's built-in InProcTransport). A transport serves one engine
  /// at a time, so an attached driver becomes single-lease: concurrent
  /// acquire() throws instead of growing the pool — run trials sequentially
  /// (a sharded sweep is parallel across rank *processes*, not threads).
  /// Must not be called while engines are leased.
  void set_transport(Transport* transport);

  /// Attaches `plan` to every pooled engine (current and future leases run
  /// in fault mode; see dut/net/fault.hpp). Not thread-safe against
  /// concurrent run_trial calls — set it before fanning out trials.
  void set_fault_plan(const FaultPlan& plan) { fault_plan_ = plan; }
  void clear_fault_plan() noexcept { fault_plan_.reset(); }
  const FaultPlan* fault_plan() const noexcept {
    return fault_plan_.has_value() ? &*fault_plan_ : nullptr;
  }

  /// Runs one trial: builds `make(v)` for every node v, runs a leased
  /// engine over them with the trial's `seed`, and returns
  /// `extract(programs, metrics, transport)`, where `transport` is the
  /// leased engine's delivery backend (the attached one, else the engine's
  /// InProcTransport): extractors that merge per-rank state use its
  /// shard() and exchange_summaries(). `traced` gates DUT_TRACE resolution
  /// for this trial (see file comment). `preamble` builds the replay
  /// metadata of the run_start trace event (trace.hpp); the engine calls it
  /// only when the trial is traced (Engine::set_run_preamble). It is set on
  /// the leased engine unconditionally, empty included, because pooled
  /// engines remember their last one. Thread-safe; concurrent callers lease
  /// distinct engines.
  template <typename MakeProgram, typename Extract>
  [[nodiscard]] auto run_trial(std::uint64_t seed, bool traced,
                               Engine::RunPreamble preamble,
                               MakeProgram&& make, Extract&& extract) {
    using ProgramPtr = std::invoke_result_t<MakeProgram&, std::uint32_t>;
    const std::uint32_t k = graph_.num_nodes();
    Lease lease = acquire();
    lease.engine().set_env_trace(traced);
    lease.engine().set_run_preamble(std::move(preamble));
    std::vector<ProgramPtr> programs;
    programs.reserve(k);
    std::vector<NodeProgram*>& table = lease.program_table();
    table.clear();
    table.reserve(k);
    for (std::uint32_t v = 0; v < k; ++v) {
      programs.push_back(make(v));
      table.push_back(programs.back().get());
    }
    lease.engine().run(table, seed);
    return extract(programs, lease.engine().metrics(),
                   lease.engine().transport());
  }

  /// Same, without replay metadata (the leased engine's preamble is
  /// blanked).
  template <typename MakeProgram, typename Extract>
  [[nodiscard]] auto run_trial(std::uint64_t seed, bool traced,
                               MakeProgram&& make, Extract&& extract) {
    return run_trial(seed, traced, {}, std::forward<MakeProgram>(make),
                     std::forward<Extract>(extract));
  }

 private:
  void release(State* state);

  const Graph& graph_;
  EngineConfig base_config_;
  Transport* transport_ = nullptr;  // nullptr = per-engine InProcTransport
  std::optional<FaultPlan> fault_plan_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<State>> pool_;  // all engines ever created
  std::vector<State*> idle_;                  // currently unleased
};

}  // namespace dut::net
