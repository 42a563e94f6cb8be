// dut_trace — the one tool over the observability artifacts: DUT_TRACE
// protocol transcripts (DESIGN.md §9, §13) and BENCH_*.json run reports.
//
//   dut_trace summary <trace.jsonl> [--report <report.json>]
//       per run: the preamble (model, level, budget, replay metadata), the
//       event census, the recount, the bandwidth headroom and the busiest
//       sender. --report adds the report's phase.*.us histograms.
//
//   dut_trace check <trace.jsonl> [--report <report.json>]
//       exit 0 iff every complete run recounts to its declared totals and
//       stays within its declared budget: no violation, no unknown event,
//       no duplicate (round, directed edge) send, no send stamped with a
//       round other than its round marker's, no send over the bandwidth,
//       no round or message count over its cap. --report also
//       requires the traced maxima to sit within the report's `budget`
//       section, and that section to record no violation.
//
//   dut_trace check-report <report.json>
//       validates a run report against schema v1.
//
//   dut_trace lineage <trace.jsonl> [--run N]
//       walks the send→deliver happens-before DAG back from the run's last
//       halt (the protocol's final decision point): which nodes and sends
//       could have influenced it, per round. Defaults to the last complete
//       run.
//
//   dut_trace critical-path <trace.jsonl> [--run N]
//       the longest causal chain of sends (each link: a message delivered in
//       the round its successor was sent). It can never exceed the round
//       count, so the round-complexity claims are auditable offline.
//
//   dut_trace replay <trace.jsonl>
//       re-executes every run from its run_start replay preamble into
//       <trace>.replay and byte-diffs that file against the trace. Exit 0
//       iff they are identical; the replay file is kept only on failure.
//
// Every subcommand streams the transcript. lineage and critical-path pick
// their run from the streamed summaries, then stream the file once more
// and hold only that run's events.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dut/congest/uniformity.hpp"
#include "dut/core/families.hpp"
#include "dut/core/sampler.hpp"
#include "dut/local/mis.hpp"
#include "dut/local/tester.hpp"
#include "dut/net/fault.hpp"
#include "dut/net/graph.hpp"
#include "dut/obs/env.hpp"
#include "dut/obs/json.hpp"
#include "dut/obs/report.hpp"
#include "dut/obs/trace_reader.hpp"

namespace {

using dut::obs::Json;
using dut::obs::TraceEvent;
using dut::obs::TraceRunSummary;

using U64 = unsigned long long;

struct Options {
  std::string path;                ///< the trace (the report for check-report)
  std::string report_path;         ///< --report; empty = none
  std::optional<std::size_t> run;  ///< --run; unset = the command's default
};

/// Reads and parses a JSON run report; prints why and returns nullopt when
/// it cannot.
std::optional<Json> load_report(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "dut_trace: cannot read %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return Json::parse(buffer.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dut_trace: %s: JSON parse error: %s\n",
                 path.c_str(), e.what());
    return std::nullopt;
  }
}

/// read_trace_file, refusing a transcript that holds no run.
std::optional<std::vector<TraceRunSummary>> read_runs(const std::string& path) {
  auto runs = dut::obs::read_trace_file(path);
  if (runs.empty()) {
    std::fprintf(stderr, "dut_trace: %s holds no runs\n", path.c_str());
    return std::nullopt;
  }
  return runs;
}

// ---------------------------------------------------------------------------
// summary
// ---------------------------------------------------------------------------

void print_summary(const TraceRunSummary& run, std::size_t index) {
  std::printf("run %zu: model=%s nodes=%u seed=%llu level=%d%s%s\n", index,
              run.info.model.c_str(), run.info.nodes,
              static_cast<U64>(run.info.seed), run.info.level,
              run.declared_tail > 0 ? " tail-mode" : "",
              run.truncated_tail ? " (tail-truncated)" : "");
  const dut::obs::BudgetSpec& budget = run.info.budget;
  if (budget.bounded()) {
    std::printf("  budget: %llu bits/edge/round, %llu round cap",
                static_cast<U64>(budget.bits_per_edge_round),
                static_cast<U64>(budget.max_rounds));
    if (budget.max_messages != dut::obs::BudgetSpec::kUnlimited) {
      std::printf(", %llu message cap",
                  static_cast<U64>(budget.max_messages));
    }
    std::printf("\n");
  }
  if (!run.info.annotations.empty()) {
    std::printf("  replay:");
    for (const auto& [key, value] : run.info.annotations) {
      std::printf(" %s=%s", key.c_str(), value.c_str());
    }
    std::printf("\n");
  }
  std::printf("  events: run_start=%d round=%llu send=%llu deliver=%llu "
              "halt=%llu fault=%llu violation=%zu run_end=%d unknown=%llu\n",
              run.truncated_tail ? 0 : 1, static_cast<U64>(run.rounds_seen),
              static_cast<U64>(run.messages), static_cast<U64>(run.delivers),
              static_cast<U64>(run.halts), static_cast<U64>(run.faults),
              run.violations.size(), run.has_end ? 1 : 0,
              static_cast<U64>(run.unknown_events));
  std::printf("  rounds: %llu   messages: %llu   total bits: %llu   "
              "max message bits: %llu\n",
              static_cast<U64>(run.rounds_seen),
              static_cast<U64>(run.messages),
              static_cast<U64>(run.total_bits),
              static_cast<U64>(run.max_message_bits));
  if (run.info.model == "congest" && run.info.bandwidth_bits > 0) {
    std::printf("  bandwidth: budget %llu bits/message, headroom %lld, "
                "over-budget sends %llu\n",
                static_cast<U64>(run.info.bandwidth_bits),
                static_cast<long long>(run.info.bandwidth_bits) -
                    static_cast<long long>(run.max_message_bits),
                static_cast<U64>(run.over_budget_sends));
  }
  if (!run.per_node_sent_bits.empty()) {
    const auto& bits = run.per_node_sent_bits;
    const auto busiest = std::max_element(bits.begin(), bits.end());
    std::uint64_t total = 0;
    std::uint64_t senders = 0;
    for (const std::uint64_t b : bits) {
      total += b;
      if (b > 0) ++senders;
    }
    std::printf("  per-node sent bits: %llu nodes sent, busiest node %llu "
                "with %llu bits (%.1f%% of traffic)\n",
                static_cast<U64>(senders),
                static_cast<U64>(busiest - bits.begin()),
                static_cast<U64>(*busiest),
                total > 0 ? 100.0 * static_cast<double>(*busiest) /
                                static_cast<double>(total)
                          : 0.0);
  }
  if (run.unknown_events > 0) {
    std::printf("  unknown events: %llu (schema drift? writer newer than "
                "this reader)\n",
                static_cast<U64>(run.unknown_events));
  }
  for (const std::string& violation : run.violations) {
    std::printf("  VIOLATION: %s\n", violation.c_str());
  }
  if (run.truncated_tail) {
    std::printf("  recount vs engine totals: skipped (tail-truncated)\n");
  } else if (run.has_end) {
    std::printf("  recount vs engine totals: %s\n",
                run.consistent() ? "consistent" : "MISMATCH");
  } else {
    std::printf("  run did not complete (no run_end event)\n");
  }
}

int print_phase_profile(const std::string& report_path) {
  const std::optional<Json> report = load_report(report_path);
  if (!report) return 1;
  const Json* metrics = report->get("metrics");
  const Json* histograms =
      metrics != nullptr ? metrics->get("histograms") : nullptr;
  std::printf("phase profile (%s):\n", report_path.c_str());
  bool any = false;
  if (histograms != nullptr && histograms->is_object()) {
    for (const auto& [name, data] : histograms->items()) {
      if (name.rfind("phase.", 0) != 0) continue;
      any = true;
      const Json* count = data.get("count");
      const Json* mean = data.get("mean");
      const Json* max = data.get("max");
      std::printf("  %-24s count=%llu mean=%.1fus max=%lluus\n", name.c_str(),
                  count != nullptr ? static_cast<U64>(count->as_u64()) : 0,
                  mean != nullptr ? mean->as_double() : 0.0,
                  max != nullptr ? static_cast<U64>(max->as_u64()) : 0);
    }
  }
  if (!any) std::printf("  (no phase.* histograms in the report)\n");
  return 0;
}

int cmd_summary(const Options& opts) {
  const auto runs = read_runs(opts.path);
  if (!runs) return 1;
  std::printf("%s: %zu run(s)\n", opts.path.c_str(), runs->size());
  for (std::size_t i = 0; i < runs->size(); ++i) print_summary((*runs)[i], i);
  return opts.report_path.empty() ? 0 : print_phase_profile(opts.report_path);
}

// ---------------------------------------------------------------------------
// check
// ---------------------------------------------------------------------------

/// The per-run checks; prints each failure and returns their number.
int check_run(const TraceRunSummary& run, std::size_t i) {
  if (!run.violations.empty()) {
    std::fprintf(stderr, "run %zu: %zu violation(s) recorded\n", i,
                 run.violations.size());
    return 1;
  }
  if (!run.has_end) {
    std::fprintf(stderr, "run %zu: no run_end event\n", i);
    return 1;
  }
  int failures = 0;
  if (!run.consistent()) {
    std::fprintf(stderr,
                 "run %zu: recount (%llu msgs / %llu bits / %llu rounds) "
                 "!= declared (%llu / %llu / %llu)\n",
                 i, static_cast<U64>(run.messages),
                 static_cast<U64>(run.total_bits),
                 static_cast<U64>(run.rounds_seen),
                 static_cast<U64>(run.declared.messages),
                 static_cast<U64>(run.declared.total_bits),
                 static_cast<U64>(run.declared.rounds));
    ++failures;
  }
  if (run.over_budget_sends > 0) {
    std::fprintf(stderr,
                 "run %zu: %llu send(s) exceed the %llu-bit bandwidth "
                 "budget\n",
                 i, static_cast<U64>(run.over_budget_sends),
                 static_cast<U64>(run.info.bandwidth_bits));
    ++failures;
  }
  if (run.unknown_events > 0) {
    std::fprintf(stderr,
                 "run %zu: %llu event(s) of unknown kind (schema drift — "
                 "the recount cannot be trusted)\n",
                 i, static_cast<U64>(run.unknown_events));
    ++failures;
  }
  if (run.duplicate_sends > 0) {
    std::fprintf(stderr,
                 "run %zu: %llu duplicate (round, edge) send(s) — the "
                 "directed-edge guard was bypassed\n",
                 i, static_cast<U64>(run.duplicate_sends));
    ++failures;
  }
  if (run.misstamped_sends > 0) {
    std::fprintf(stderr,
                 "run %zu: %llu send(s) stamped with a round other than "
                 "their round marker's\n",
                 i, static_cast<U64>(run.misstamped_sends));
    ++failures;
  }
  // With one send per directed edge per round, an edge's bits in a round
  // are that one message's bits.
  const dut::obs::BudgetSpec& spec = run.info.budget;
  if (spec.bits_per_edge_round > 0 &&
      run.max_message_bits > spec.bits_per_edge_round) {
    std::fprintf(stderr,
                 "run %zu: %llu bits/edge/round exceeds the declared %llu\n",
                 i, static_cast<U64>(run.max_message_bits),
                 static_cast<U64>(spec.bits_per_edge_round));
    ++failures;
  }
  if (spec.max_rounds > 0 && run.rounds_seen > spec.max_rounds) {
    std::fprintf(stderr,
                 "run %zu: %llu rounds exceeds the declared cap %llu\n", i,
                 static_cast<U64>(run.rounds_seen),
                 static_cast<U64>(spec.max_rounds));
    ++failures;
  }
  if (run.messages > spec.max_messages) {
    std::fprintf(stderr,
                 "run %zu: %llu messages exceeds the declared cap %llu\n", i,
                 static_cast<U64>(run.messages),
                 static_cast<U64>(spec.max_messages));
    ++failures;
  }
  return failures;
}

/// The largest figures the traced runs of one model reached.
struct TracedMaxima {
  std::uint64_t edge_round_bits = 0;
  std::uint64_t rounds = 0;
  std::uint64_t node_bits = 0;
};

/// Cross-checks the traced maxima against the report's `budget` section.
/// The report aggregates every run of the process and the trace holds the
/// traced ones, so a traced maximum can never exceed the report's.
int check_against_report(const std::map<std::string, TracedMaxima>& traced,
                         const std::string& report_path) {
  const std::optional<Json> report = load_report(report_path);
  if (!report) return 1;
  const Json* budget = report->get("budget");
  if (budget == nullptr || !budget->is_object()) {
    std::fprintf(stderr, "dut_trace: %s has no budget section\n",
                 report_path.c_str());
    return 1;
  }
  int failures = 0;
  for (const auto& entry : traced) {
    const std::string& model = entry.first;
    const TracedMaxima& maxima = entry.second;
    const Json* section = budget->get(model);
    if (section == nullptr) {
      std::fprintf(stderr,
                   "report cross-check: the trace has %s runs but the "
                   "report's budget has no %s section\n",
                   model.c_str(), model.c_str());
      ++failures;
      continue;
    }
    const auto check_max = [&](const char* key, std::uint64_t value) {
      const Json* limit = section->get(key);
      if (limit == nullptr || !limit->is_number()) return;
      if (value > limit->as_u64()) {
        std::fprintf(stderr,
                     "report cross-check: traced %s.%s %llu exceeds the "
                     "report's %llu\n",
                     model.c_str(), key, static_cast<U64>(value),
                     static_cast<U64>(limit->as_u64()));
        ++failures;
      }
    };
    check_max("bits_per_edge_round_max", maxima.edge_round_bits);
    check_max("rounds_max", maxima.rounds);
    check_max("node_bits_max", maxima.node_bits);
  }
  const Json* violations = budget->get("violations");
  if (violations == nullptr || !violations->is_number()) {
    std::fprintf(stderr, "report cross-check: budget.violations is not a "
                 "number\n");
    ++failures;
  } else if (violations->as_u64() != 0) {
    std::fprintf(stderr, "report cross-check: budget.violations = %llu\n",
                 static_cast<U64>(violations->as_u64()));
    ++failures;
  }
  if (failures == 0) {
    std::printf("report cross-check: traced maxima within %s budget\n",
                report_path.c_str());
  }
  return failures;
}

int cmd_check(const Options& opts) {
  const auto runs = read_runs(opts.path);
  if (!runs) return 1;
  int failures = 0;
  std::map<std::string, TracedMaxima> traced;  // by model
  for (std::size_t i = 0; i < runs->size(); ++i) {
    const TraceRunSummary& run = (*runs)[i];
    if (run.truncated_tail) continue;  // tail mode: totals unavailable
    failures += check_run(run, i);
    TracedMaxima& maxima = traced[run.info.model];
    maxima.edge_round_bits =
        std::max(maxima.edge_round_bits, run.max_message_bits);
    maxima.rounds = std::max(maxima.rounds, run.rounds_seen);
    for (const std::uint64_t bits : run.per_node_sent_bits) {
      maxima.node_bits = std::max(maxima.node_bits, bits);
    }
  }
  if (!opts.report_path.empty()) {
    failures += check_against_report(traced, opts.report_path);
  }
  if (failures == 0) {
    std::printf("%s: %zu run(s) consistent and within budget\n",
                opts.path.c_str(), runs->size());
  }
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// check-report
// ---------------------------------------------------------------------------

int cmd_check_report(const Options& opts) {
  const std::optional<Json> document = load_report(opts.path);
  if (!document) return 1;
  const std::string reason = dut::obs::validate_report(*document);
  if (!reason.empty()) {
    std::fprintf(stderr, "%s: invalid run report: %s\n", opts.path.c_str(),
                 reason.c_str());
    return 1;
  }
  std::printf("%s: valid run report (id=%s, %zu check(s))\n",
              opts.path.c_str(), document->get("id")->as_string().c_str(),
              document->get("checks")->size());
  return 0;
}

// ---------------------------------------------------------------------------
// lineage and critical-path
// ---------------------------------------------------------------------------

/// Picks the run to audit from the streamed summaries: --run N, else the
/// last complete run, else the last run. Returns nullopt and prints why
/// when nothing qualifies.
std::optional<std::size_t> pick_run(const std::vector<TraceRunSummary>& runs,
                                    const Options& opts) {
  if (runs.empty()) {
    std::fprintf(stderr, "dut_trace: %s holds no runs\n", opts.path.c_str());
    return std::nullopt;
  }
  if (opts.run) {
    if (*opts.run >= runs.size()) {
      std::fprintf(stderr, "dut_trace: --run %zu out of range (%zu runs)\n",
                   *opts.run, runs.size());
      return std::nullopt;
    }
    return opts.run;
  }
  for (std::size_t i = runs.size(); i > 0; --i) {
    if (runs[i - 1].has_end) return i - 1;
  }
  return runs.size() - 1;
}

/// The sends among `events`, stably sorted by round (descending when
/// `latest_first`).
std::vector<const TraceEvent*> sends_by_round(
    const std::vector<TraceEvent>& events, bool latest_first) {
  std::vector<const TraceEvent*> sends;
  for (const TraceEvent& event : events) {
    if (event.kind == TraceEvent::Kind::kSend) sends.push_back(&event);
  }
  std::stable_sort(sends.begin(), sends.end(),
                   [latest_first](const TraceEvent* a, const TraceEvent* b) {
                     return latest_first ? a->round > b->round
                                         : a->round < b->round;
                   });
  return sends;
}

int cmd_lineage(const Options& opts) {
  const auto runs = dut::obs::read_trace_file(opts.path);
  const std::optional<std::size_t> index = pick_run(runs, opts);
  if (!index) return 1;
  const TraceRunSummary& summary = runs[*index];
  const std::vector<TraceEvent> events =
      dut::obs::read_trace_events(opts.path, *index);

  // The audit target: the last halt in the run — for a completed protocol
  // that is the final decision point (in these protocols, the root's
  // verdict broadcast ends with the last nodes halting).
  const TraceEvent* target = nullptr;
  for (const TraceEvent& event : events) {
    if (event.kind == TraceEvent::Kind::kHalt) target = &event;
  }
  if (target == nullptr) {
    std::fprintf(stderr, "dut_trace: run %zu has no halt events\n", *index);
    return 1;
  }

  // Backward causal cone over the happens-before DAG. interest[v] = the
  // latest round at which v's state can still influence the target; a send
  // u->v at round r (delivered at r+1) is causal iff r+1 <= interest[v],
  // and then u's state at r matters: interest[u] >= r. One pass over the
  // sends in descending round order suffices because interest values only
  // propagate to strictly earlier rounds.
  std::map<std::uint32_t, std::uint64_t> interest;
  interest[target->from] = target->round;
  std::uint64_t causal_sends = 0;
  std::map<std::uint64_t, std::uint64_t> cone_growth;  // round -> new sends
  for (const TraceEvent* send : sends_by_round(events, /*latest_first=*/true)) {
    const auto it = interest.find(send->to);
    if (it == interest.end() || send->round + 1 > it->second) continue;
    ++causal_sends;
    ++cone_growth[send->round];
    auto [u_it, inserted] = interest.emplace(send->from, send->round);
    if (!inserted && u_it->second < send->round) u_it->second = send->round;
  }

  std::printf("run %zu: lineage of halt(node %u, round %llu)\n", *index,
              target->from, static_cast<U64>(target->round));
  std::printf("  causal cone: %zu of %u nodes, %llu of %llu sends\n",
              interest.size(), summary.info.nodes,
              static_cast<U64>(causal_sends),
              static_cast<U64>(summary.messages));
  for (const auto& [round, count] : cone_growth) {
    std::printf("  round %llu: %llu causal send(s)\n",
                static_cast<U64>(round), static_cast<U64>(count));
  }
  return 0;
}

int cmd_critical_path(const Options& opts) {
  const auto runs = dut::obs::read_trace_file(opts.path);
  const std::optional<std::size_t> index = pick_run(runs, opts);
  if (!index) return 1;
  const TraceRunSummary& summary = runs[*index];
  const std::vector<TraceEvent> events =
      dut::obs::read_trace_events(opts.path, *index);

  // depth[v] = longest chain of causally-ordered sends whose last message
  // was delivered to v. A round-r send from u extends u's chain; it reaches
  // its target at r+1, so same-round sends must all read the pre-round
  // depths — stage candidates per round and apply them at the boundary.
  std::map<std::uint32_t, std::uint64_t> depth;
  std::map<std::uint32_t, std::uint64_t> staged;
  std::uint64_t current_round = 0;
  std::uint64_t longest = 0;
  const auto flush_round = [&] {
    for (const auto& [node, d] : staged) {
      auto [it, inserted] = depth.emplace(node, d);
      if (!inserted && it->second < d) it->second = d;
      longest = std::max(longest, d);
    }
    staged.clear();
  };
  for (const TraceEvent* send : sends_by_round(events, /*latest_first=*/false)) {
    if (send->round != current_round) {
      flush_round();
      current_round = send->round;
    }
    const auto it = depth.find(send->from);
    const std::uint64_t chain = (it == depth.end() ? 0 : it->second) + 1;
    auto [s_it, inserted] = staged.emplace(send->to, chain);
    if (!inserted && s_it->second < chain) s_it->second = chain;
  }
  flush_round();

  const std::uint64_t rounds =
      summary.has_end ? summary.declared.rounds : summary.rounds_seen;
  std::printf("run %zu: critical path %llu send(s) over %llu round(s)\n",
              *index, static_cast<U64>(longest), static_cast<U64>(rounds));
  if (longest > rounds) {
    std::fprintf(stderr,
                 "dut_trace: critical path exceeds the round count — the "
                 "transcript is not causally consistent\n");
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// replay
// ---------------------------------------------------------------------------

using Annotations = std::map<std::string, std::string>;

const std::string& require(const Annotations& ann, const char* key) {
  const auto it = ann.find(key);
  if (it == ann.end()) {
    throw std::runtime_error(std::string("replay metadata missing '") + key +
                             "'");
  }
  return it->second;
}

/// Scoped environment for one replayed run. Reconstruction (planners may
/// spawn their own engine runs, e.g. plan_local's MIS ladder) happens with
/// DUT_TRACE unset so only the final re-execution writes to the replay
/// file; the original trace already holds those planner runs as separate
/// run_start entries, each replayed independently from its own metadata.
class TraceEnv {
 public:
  TraceEnv() { silence(); }
  ~TraceEnv() { silence(); }

  void silence() {
    unsetenv("DUT_TRACE");
    unsetenv("DUT_TRACE_LEVEL");
    unsetenv("DUT_TRACE_TAIL");
  }

  /// Arms DUT_TRACE for the re-execution, restoring the recorded detail
  /// level so level-2 (deliver-event) traces regenerate byte-identically.
  void arm(const std::string& path, int level) {
    setenv("DUT_TRACE", path.c_str(), 1);
    if (level != 1) {
      setenv("DUT_TRACE_LEVEL", std::to_string(level).c_str(), 1);
    }
  }
};

/// Re-executes one recorded run from its replay metadata. The engine
/// appends to `out` when armed. Protocol exceptions (e.g. strict-mode fault
/// violations) propagate — the caller treats them as reproduced if the
/// bytes match, since the original run wrote the same violation prefix.
void replay_run(const TraceRunSummary& run, const std::string& out,
                TraceEnv& env) {
  const Annotations ann(run.info.annotations.begin(),
                        run.info.annotations.end());
  const std::string& proto = require(ann, "proto");
  const std::uint64_t seed = run.info.seed;
  const int level = run.info.level;

  const dut::net::Graph graph = dut::net::Graph::from_spec(require(ann, "topo"));
  dut::net::FaultPlan faults;
  const bool has_faults = ann.count("faults") > 0;
  if (has_faults) faults = dut::net::FaultPlan::parse(ann.at("faults"));
  const dut::net::FaultPlan* fault_ptr = has_faults ? &faults : nullptr;

  if (proto == "mis") {
    const std::uint64_t cap = ann.count("cap") > 0
                                  ? std::stoull(ann.at("cap"))
                                  : UINT64_MAX;
    env.arm(out, level);
    (void)dut::local::compute_mis(graph, seed, fault_ptr, cap);
    return;
  }

  dut::congest::CongestResilience resilience;
  resilience.enabled = ann.count("retx") > 0;
  if (resilience.enabled) {
    resilience.retransmits = std::stoull(ann.at("retx"));
    resilience.quorum_nodes = std::stoull(ann.at("quorum"));
  }

  if (proto == "token_packaging") {
    auto setup = dut::congest::make_packaging_setup(
        graph, std::stoull(require(ann, "tau")), resilience, fault_ptr);
    env.arm(out, level);
    (void)dut::congest::run_token_packaging(setup, seed);
    return;
  }

  if (proto == "congest_uniformity") {
    const auto bound = require(ann, "bound") == "chernoff"
                           ? dut::core::TailBound::kChernoff
                           : dut::core::TailBound::kExactBinomial;
    const auto plan = dut::congest::plan_congest(
        std::stoull(require(ann, "n")), graph.num_nodes(),
        std::stod(require(ann, "eps")), std::stod(require(ann, "p")), bound,
        std::stoull(require(ann, "s0")));
    auto setup =
        dut::congest::make_congest_setup(plan, graph, resilience, fault_ptr);
    const dut::core::AliasSampler sampler(
        dut::core::distribution_from_spec(require(ann, "dist")));
    env.arm(out, level);
    (void)dut::congest::run_congest_uniformity(plan, setup, sampler, seed);
    return;
  }

  if (proto == "local_uniformity") {
    // plan_local reruns the MIS radius ladder from the recorded plan seed;
    // env is silent here, so those planner engines leave no trace lines.
    const auto plan = dut::local::plan_local(
        std::stoull(require(ann, "n")), graph,
        std::stod(require(ann, "eps")), std::stod(require(ann, "p")),
        std::stoull(require(ann, "s0")),
        std::stoull(require(ann, "plan_seed")),
        static_cast<std::uint32_t>(std::stoul(require(ann, "max_r"))));
    auto driver = dut::local::make_local_driver(plan, graph, fault_ptr);
    const dut::core::AliasSampler sampler(
        dut::core::distribution_from_spec(require(ann, "dist")));
    env.arm(out, level);
    (void)dut::local::run_local_uniformity(plan, driver, sampler, seed);
    return;
  }

  throw std::runtime_error("unknown replay protocol '" + proto + "'");
}

/// Streams both files line by line, printing the first divergence and a
/// line-count mismatch; returns how many of the two it found.
int compare_lines(const std::string& original_path,
                  const std::string& replay_path) {
  std::ifstream original(original_path);
  std::ifstream replayed(replay_path);
  if (!original || !replayed) {
    std::fprintf(stderr, "dut_trace: cannot read %s\n",
                 (!original ? original_path : replay_path).c_str());
    return 1;
  }
  int failures = 0;
  std::size_t original_lines = 0;
  std::size_t replayed_lines = 0;
  std::string a;
  std::string b;
  for (;;) {
    const bool has_a = static_cast<bool>(std::getline(original, a));
    const bool has_b = static_cast<bool>(std::getline(replayed, b));
    if (!has_a && !has_b) break;
    original_lines += has_a ? 1 : 0;
    replayed_lines += has_b ? 1 : 0;
    if (has_a && has_b && failures == 0 && a != b) {
      std::fprintf(stderr,
                   "dut_trace: divergence at line %zu\n  original: %s\n"
                   "  replayed: %s\n",
                   original_lines, a.c_str(), b.c_str());
      ++failures;
    }
  }
  if (original_lines != replayed_lines) {
    std::fprintf(stderr,
                 "dut_trace: original has %zu line(s), replay has %zu\n",
                 original_lines, replayed_lines);
    ++failures;
  }
  return failures;
}

int cmd_replay(const Options& opts) {
  const auto runs = read_runs(opts.path);
  if (!runs) return 1;
  // Always beside the input and never the input itself, so a failed replay
  // cannot overwrite or delete the transcript it diffs against.
  const std::string out = opts.path + ".replay";
  std::remove(out.c_str());
  TraceEnv env;
  int failures = 0;
  for (std::size_t i = 0; i < runs->size(); ++i) {
    const TraceRunSummary& run = (*runs)[i];
    if (run.truncated_tail || run.declared_tail > 0) {
      std::fprintf(stderr,
                   "dut_trace: run %zu is a tail-mode capture — ring "
                   "eviction loses the replay preamble's ordering, byte "
                   "replay is impossible\n",
                   i);
      ++failures;
      continue;
    }
    if (run.info.annotations.empty()) {
      std::fprintf(stderr,
                   "dut_trace: run %zu (model=%s seed=%llu) carries no "
                   "replay metadata — unreplayable\n",
                   i, run.info.model.c_str(),
                   static_cast<U64>(run.info.seed));
      ++failures;
      continue;
    }
    env.silence();
    try {
      replay_run(run, out, env);
    } catch (const std::exception& e) {
      // A run that died mid-protocol (strict fault mode) throws on replay
      // too; its partial transcript is already on disk and the byte diff
      // below is the arbiter. Report but keep going.
      std::fprintf(stderr, "dut_trace: run %zu raised during replay: %s\n",
                   i, e.what());
    }
    env.silence();
  }

  // The replayed runs were appended in file order, so the regenerated file
  // must equal the original line for line.
  failures += compare_lines(opts.path, out);
  if (failures == 0) {
    std::printf("%s: %zu run(s) replayed byte-identically\n",
                opts.path.c_str(), runs->size());
    std::remove(out.c_str());
    return 0;
  }
  std::fprintf(stderr, "dut_trace: %d failure(s); replay kept at %s\n",
               failures, out.c_str());
  return 1;
}

// ---------------------------------------------------------------------------
// command line
// ---------------------------------------------------------------------------

struct Command {
  const char* name;
  bool takes_report;
  bool takes_run;
  int (*run)(const Options&);
};

constexpr Command kCommands[] = {
    {"summary", true, false, cmd_summary},
    {"check", true, false, cmd_check},
    {"check-report", false, false, cmd_check_report},
    {"lineage", false, true, cmd_lineage},
    {"critical-path", false, true, cmd_critical_path},
    {"replay", false, false, cmd_replay},
};

int usage() {
  std::fprintf(stderr,
               "usage: dut_trace summary <trace.jsonl> [--report "
               "<report.json>]\n"
               "       dut_trace check <trace.jsonl> [--report "
               "<report.json>]\n"
               "       dut_trace check-report <report.json>\n"
               "       dut_trace lineage <trace.jsonl> [--run N]\n"
               "       dut_trace critical-path <trace.jsonl> [--run N]\n"
               "       dut_trace replay <trace.jsonl>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const Command* command = nullptr;
  for (const Command& candidate : kCommands) {
    if (std::strcmp(argv[1], candidate.name) == 0) command = &candidate;
  }
  if (command == nullptr) return usage();
  Options opts;
  opts.path = argv[2];
  for (int i = 3; i < argc; ++i) {
    if (command->takes_report && std::strcmp(argv[i], "--report") == 0 &&
        i + 1 < argc) {
      opts.report_path = argv[++i];
    } else if (command->takes_run && std::strcmp(argv[i], "--run") == 0 &&
               i + 1 < argc) {
      const std::optional<std::uint64_t> run =
          dut::obs::parse_u64(argv[++i], 0, SIZE_MAX);
      if (!run) return usage();
      opts.run = static_cast<std::size_t>(*run);
    } else {
      return usage();
    }
  }
  try {
    return command->run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dut_trace: %s\n", e.what());
    return 1;
  }
}
