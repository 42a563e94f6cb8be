// dut_audit — causal and budget auditing over DUT_TRACE transcripts:
//
//   dut_audit summary <trace.jsonl> [--report <report.json>]
//       per-run audit header: schema level, budget spec, replay metadata,
//       event census (including unknown kinds). With --report, also prints
//       the phase profiler's log2 histograms (phase.*.us) from the report.
//
//   dut_audit lineage <trace.jsonl> [--run N]
//       rebuilds the send→deliver happens-before DAG and walks the causal
//       cone backwards from the run's last halt (the protocol's final
//       decision point): which nodes' sends could have influenced it, per
//       round. Defaults to the last complete run.
//
//   dut_audit budget <trace.jsonl> [--report <report.json>] [--run N]
//       recomputes the communication-budget ledger offline from the send
//       events — per-edge-per-round bits, per-node bits, message and round
//       counts — and cross-checks the result against the run_start budget
//       preamble (and, with --report, against the BENCH_*.json budget
//       section). Exit 0 iff every audited run is within budget.
//
//   dut_audit critical-path <trace.jsonl> [--run N]
//       longest causal chain of sends (each link: a message delivered in
//       the round its successor was sent), the trace-level analogue of the
//       round-complexity lower bound — the chain length can never exceed
//       the round count.
//
// Traces come from DUT_TRACE=<path> (DESIGN.md §9); the budget ledger and
// replay preamble are described in DESIGN.md §13.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dut/obs/env.hpp"
#include "dut/obs/json.hpp"
#include "dut/obs/trace_reader.hpp"

namespace {

using dut::obs::Json;
using dut::obs::TraceEvent;
using dut::obs::TraceRun;

using U64 = unsigned long long;

struct Options {
  std::string trace_path;
  std::string report_path;  // empty = no report cross-check
  std::size_t run_index = SIZE_MAX;  // SIZE_MAX = default per command
};

/// Loads and parses --report; returns a null Json (is_null) on failure
/// after printing the reason.
Json load_report(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "dut_audit: cannot read %s\n", path.c_str());
    return Json();
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    return Json::parse(buffer.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dut_audit: %s: JSON parse error: %s\n",
                 path.c_str(), e.what());
    return Json();
  }
}

const char* kind_name(TraceEvent::Kind kind) {
  switch (kind) {
    case TraceEvent::Kind::kRunStart: return "run_start";
    case TraceEvent::Kind::kRound: return "round";
    case TraceEvent::Kind::kSend: return "send";
    case TraceEvent::Kind::kDeliver: return "deliver";
    case TraceEvent::Kind::kHalt: return "halt";
    case TraceEvent::Kind::kFault: return "fault";
    case TraceEvent::Kind::kViolation: return "violation";
    case TraceEvent::Kind::kRunEnd: return "run_end";
    case TraceEvent::Kind::kUnknown: return "unknown";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// summary
// ---------------------------------------------------------------------------

int cmd_summary(const Options& opts) {
  const auto runs = dut::obs::read_trace_runs(opts.trace_path);
  std::printf("%s: %zu run(s)\n", opts.trace_path.c_str(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const TraceRun& run = runs[i];
    const auto& s = run.summary;
    std::printf("run %zu: model=%s nodes=%u seed=%llu level=%d%s%s\n", i,
                s.info.model.c_str(), s.info.nodes,
                static_cast<U64>(s.info.seed), s.info.level,
                s.declared_tail > 0 ? " tail-mode" : "",
                s.truncated_tail ? " (tail-truncated)" : "");
    if (s.info.budget.bounded()) {
      std::printf("  budget: %llu bits/edge/round, %llu round cap",
                  static_cast<U64>(s.info.budget.bits_per_edge_round),
                  static_cast<U64>(s.info.budget.max_rounds));
      if (s.info.budget.max_messages != dut::obs::BudgetSpec::kUnlimited) {
        std::printf(", %llu message cap",
                    static_cast<U64>(s.info.budget.max_messages));
      }
      std::printf("\n");
    }
    if (!s.info.annotations.empty()) {
      std::printf("  replay:");
      for (const auto& [key, value] : s.info.annotations) {
        std::printf(" %s=%s", key.c_str(), value.c_str());
      }
      std::printf("\n");
    }
    std::map<std::string, std::uint64_t> census;
    for (const TraceEvent& event : run.events) ++census[kind_name(event.kind)];
    std::printf("  events:");
    for (const auto& [name, count] : census) {
      std::printf(" %s=%llu", name.c_str(), static_cast<U64>(count));
    }
    std::printf("\n");
    if (s.unknown_events > 0) {
      std::printf("  unknown events: %llu (schema drift? writer newer than "
                  "this reader)\n",
                  static_cast<U64>(s.unknown_events));
    }
  }

  if (!opts.report_path.empty()) {
    const Json report = load_report(opts.report_path);
    if (report.is_null()) return 1;
    const Json* metrics = report.get("metrics");
    const Json* histograms =
        metrics != nullptr ? metrics->get("histograms") : nullptr;
    std::printf("phase profile (%s):\n", opts.report_path.c_str());
    bool any = false;
    if (histograms != nullptr && histograms->is_object()) {
      for (const auto& [name, data] : histograms->items()) {
        if (name.rfind("phase.", 0) != 0) continue;
        any = true;
        const Json* count = data.get("count");
        const Json* mean = data.get("mean");
        const Json* max = data.get("max");
        std::printf("  %-24s count=%llu mean=%.1fus max=%lluus\n",
                    name.c_str(),
                    count != nullptr ? static_cast<U64>(count->as_u64()) : 0,
                    mean != nullptr ? mean->as_double() : 0.0,
                    max != nullptr ? static_cast<U64>(max->as_u64()) : 0);
      }
    }
    if (!any) std::printf("  (no phase.* histograms in the report)\n");
  }
  return 0;
}

// ---------------------------------------------------------------------------
// lineage
// ---------------------------------------------------------------------------

/// Picks the run to audit: --run N, else the last complete run, else the
/// last run. Returns SIZE_MAX and prints why when nothing qualifies.
std::size_t pick_run(const std::vector<TraceRun>& runs, const Options& opts) {
  if (runs.empty()) {
    std::fprintf(stderr, "dut_audit: %s holds no runs\n",
                 opts.trace_path.c_str());
    return SIZE_MAX;
  }
  if (opts.run_index != SIZE_MAX) {
    if (opts.run_index >= runs.size()) {
      std::fprintf(stderr, "dut_audit: --run %zu out of range (%zu runs)\n",
                   opts.run_index, runs.size());
      return SIZE_MAX;
    }
    return opts.run_index;
  }
  for (std::size_t i = runs.size(); i > 0; --i) {
    if (runs[i - 1].summary.has_end) return i - 1;
  }
  return runs.size() - 1;
}

int cmd_lineage(const Options& opts) {
  const auto runs = dut::obs::read_trace_runs(opts.trace_path);
  const std::size_t index = pick_run(runs, opts);
  if (index == SIZE_MAX) return 1;
  const TraceRun& run = runs[index];

  // The audit target: the last halt in the run — for a completed protocol
  // that is the final decision point (in these protocols, the root's
  // verdict broadcast ends with the last nodes halting).
  const TraceEvent* target = nullptr;
  for (const TraceEvent& event : run.events) {
    if (event.kind == TraceEvent::Kind::kHalt) target = &event;
  }
  if (target == nullptr) {
    std::fprintf(stderr, "dut_audit: run %zu has no halt events\n", index);
    return 1;
  }

  // Backward causal cone over the happens-before DAG. interest[v] = the
  // latest round at which v's state can still influence the target; a send
  // u->v at round r (delivered at r+1) is causal iff r+1 <= interest[v],
  // and then u's state at r matters: interest[u] >= r. One pass over the
  // sends in descending round order suffices because interest values only
  // propagate to strictly earlier rounds.
  std::vector<const TraceEvent*> sends;
  for (const TraceEvent& event : run.events) {
    if (event.kind == TraceEvent::Kind::kSend) sends.push_back(&event);
  }
  std::stable_sort(sends.begin(), sends.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->round > b->round;
                   });
  std::map<std::uint32_t, std::uint64_t> interest;
  interest[target->from] = target->round;
  std::uint64_t causal_sends = 0;
  std::map<std::uint64_t, std::uint64_t> cone_growth;  // round -> new sends
  for (const TraceEvent* send : sends) {
    const auto it = interest.find(send->to);
    if (it == interest.end() || send->round + 1 > it->second) continue;
    ++causal_sends;
    ++cone_growth[send->round];
    auto [u_it, inserted] = interest.emplace(send->from, send->round);
    if (!inserted && u_it->second < send->round) u_it->second = send->round;
  }

  std::printf("run %zu: lineage of halt(node %u, round %llu)\n", index,
              target->from, static_cast<U64>(target->round));
  std::printf("  causal cone: %zu of %u nodes, %llu of %llu sends\n",
              interest.size(), run.summary.info.nodes,
              static_cast<U64>(causal_sends),
              static_cast<U64>(run.summary.messages));
  for (const auto& [round, count] : cone_growth) {
    std::printf("  round %llu: %llu causal send(s)\n",
                static_cast<U64>(round), static_cast<U64>(count));
  }
  return 0;
}

// ---------------------------------------------------------------------------
// budget
// ---------------------------------------------------------------------------

struct RecomputedBudget {
  std::uint64_t messages = 0;
  std::uint64_t max_edge_round_bits = 0;
  std::uint64_t max_node_bits = 0;
  std::uint64_t rounds = 0;
  std::uint64_t duplicate_edge_sends = 0;  ///< >1 send on an edge in a round
};

RecomputedBudget recompute_budget(const TraceRun& run) {
  RecomputedBudget out;
  // The engine's directed-edge guard admits one send per directed edge per
  // round, so per-edge-per-round bits should equal single-message bits; a
  // duplicate key here means the transcript itself breaks that invariant.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> edge_bits;
  std::map<std::uint32_t, std::uint64_t> node_bits;
  for (const TraceEvent& event : run.events) {
    if (event.kind == TraceEvent::Kind::kRound) {
      out.rounds = std::max(out.rounds, event.round);
    }
    if (event.kind != TraceEvent::Kind::kSend) continue;
    ++out.messages;
    const std::uint64_t edge =
        (static_cast<std::uint64_t>(event.from) << 32) | event.to;
    std::uint64_t& slot = edge_bits[{event.round, edge}];
    if (slot != 0) ++out.duplicate_edge_sends;
    slot += event.bits;
    out.max_edge_round_bits = std::max(out.max_edge_round_bits, slot);
    node_bits[event.from] += event.bits;
  }
  for (const auto& [node, bits] : node_bits) {
    out.max_node_bits = std::max(out.max_node_bits, bits);
  }
  return out;
}

int cmd_budget(const Options& opts) {
  const auto runs = dut::obs::read_trace_runs(opts.trace_path);
  if (runs.empty()) {
    std::fprintf(stderr, "dut_audit: %s holds no runs\n",
                 opts.trace_path.c_str());
    return 1;
  }
  int failures = 0;
  std::uint64_t congest_bits_max = 0;
  std::uint64_t congest_rounds_max = 0;
  std::uint64_t local_rounds_max = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (opts.run_index != SIZE_MAX && opts.run_index != i) continue;
    const TraceRun& run = runs[i];
    if (run.summary.truncated_tail) {
      std::printf("run %zu: tail-truncated, budget recount skipped\n", i);
      continue;
    }
    const RecomputedBudget usage = recompute_budget(run);
    const dut::obs::BudgetSpec& spec = run.summary.info.budget;
    std::printf("run %zu (%s): %llu msgs, %llu rounds, max %llu "
                "bits/edge/round, max %llu bits/node\n",
                i, run.summary.info.model.c_str(),
                static_cast<U64>(usage.messages),
                static_cast<U64>(usage.rounds),
                static_cast<U64>(usage.max_edge_round_bits),
                static_cast<U64>(usage.max_node_bits));
    if (run.summary.info.model == "congest") {
      congest_bits_max =
          std::max(congest_bits_max, usage.max_edge_round_bits);
      congest_rounds_max = std::max(congest_rounds_max, usage.rounds);
    } else {
      local_rounds_max = std::max(local_rounds_max, usage.rounds);
    }
    if (usage.duplicate_edge_sends > 0) {
      std::fprintf(stderr,
                   "run %zu: %llu duplicate (round, edge) send(s) — the "
                   "directed-edge guard was bypassed\n",
                   i, static_cast<U64>(usage.duplicate_edge_sends));
      ++failures;
    }
    if (!spec.bounded()) {
      std::printf("  no budget preamble (pre-ledger trace); recount only\n");
      continue;
    }
    if (spec.bits_per_edge_round > 0 &&
        usage.max_edge_round_bits > spec.bits_per_edge_round) {
      std::fprintf(stderr,
                   "run %zu: %llu bits/edge/round exceeds the declared %llu\n",
                   i, static_cast<U64>(usage.max_edge_round_bits),
                   static_cast<U64>(spec.bits_per_edge_round));
      ++failures;
    }
    if (spec.max_rounds > 0 && usage.rounds > spec.max_rounds) {
      std::fprintf(stderr, "run %zu: %llu rounds exceeds the declared %llu\n",
                   i, static_cast<U64>(usage.rounds),
                   static_cast<U64>(spec.max_rounds));
      ++failures;
    }
    if (usage.messages > spec.max_messages) {
      std::fprintf(stderr,
                   "run %zu: %llu messages exceeds the declared cap %llu\n",
                   i, static_cast<U64>(usage.messages),
                   static_cast<U64>(spec.max_messages));
      ++failures;
    }
    if (run.summary.has_end &&
        usage.messages != run.summary.declared.messages) {
      std::fprintf(stderr,
                   "run %zu: recounted %llu messages != declared %llu\n", i,
                   static_cast<U64>(usage.messages),
                   static_cast<U64>(run.summary.declared.messages));
      ++failures;
    }
  }

  if (!opts.report_path.empty()) {
    // Cross-check: the report aggregates every trial; the trace holds the
    // designated trial(s). The traced maxima can never exceed the report's.
    const Json report = load_report(opts.report_path);
    if (report.is_null()) return 1;
    const Json* budget = report.get("budget");
    if (budget == nullptr || !budget->is_object()) {
      std::fprintf(stderr, "dut_audit: %s has no budget section\n",
                   opts.report_path.c_str());
      return 1;
    }
    const auto check_max = [&](const char* section, const char* key,
                               std::uint64_t traced) {
      const Json* sec = budget->get(section);
      if (sec == nullptr) {
        if (traced > 0) {
          std::fprintf(stderr,
                       "report cross-check: trace has %s runs but the report "
                       "budget has no %s section\n",
                       section, section);
          ++failures;
        }
        return;
      }
      const Json* value = sec->get(key);
      if (value == nullptr || !value->is_number()) return;
      if (traced > value->as_u64()) {
        std::fprintf(stderr,
                     "report cross-check: traced %s.%s %llu exceeds the "
                     "report's %llu\n",
                     section, key, static_cast<U64>(traced),
                     static_cast<U64>(value->as_u64()));
        ++failures;
      }
    };
    check_max("congest", "bits_per_edge_round_max", congest_bits_max);
    check_max("congest", "rounds_max", congest_rounds_max);
    check_max("local", "rounds_max", local_rounds_max);
    const Json* violations = budget->get("violations");
    if (violations != nullptr && violations->is_number() &&
        violations->as_u64() != 0) {
      std::fprintf(stderr, "report cross-check: budget.violations = %llu\n",
                   static_cast<U64>(violations->as_u64()));
      ++failures;
    }
    if (failures == 0) {
      std::printf("report cross-check: traced maxima within %s budget\n",
                  opts.report_path.c_str());
    }
  }

  if (failures == 0) std::printf("budget audit: all runs within budget\n");
  return failures == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// critical-path
// ---------------------------------------------------------------------------

int cmd_critical_path(const Options& opts) {
  const auto runs = dut::obs::read_trace_runs(opts.trace_path);
  const std::size_t index = pick_run(runs, opts);
  if (index == SIZE_MAX) return 1;
  const TraceRun& run = runs[index];

  // depth[v] = longest chain of causally-ordered sends whose last message
  // was delivered to v. A round-r send from u extends u's chain; it reaches
  // its target at r+1, so same-round sends must all read the pre-round
  // depths — stage candidates per round and apply them at the boundary.
  std::vector<const TraceEvent*> sends;
  for (const TraceEvent& event : run.events) {
    if (event.kind == TraceEvent::Kind::kSend) sends.push_back(&event);
  }
  std::stable_sort(sends.begin(), sends.end(),
                   [](const TraceEvent* a, const TraceEvent* b) {
                     return a->round < b->round;
                   });
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
  for (const TraceEvent* send : sends) {
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

  const std::uint64_t rounds = run.summary.has_end
                                   ? run.summary.declared.rounds
                                   : run.summary.rounds_seen;
  std::printf("run %zu: critical path %llu send(s) over %llu round(s)\n",
              index, static_cast<U64>(longest), static_cast<U64>(rounds));
  if (longest > rounds) {
    std::fprintf(stderr,
                 "dut_audit: critical path exceeds the round count — the "
                 "transcript is not causally consistent\n");
    return 1;
  }
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: dut_audit summary <trace.jsonl> [--report <report.json>]\n"
      "       dut_audit lineage <trace.jsonl> [--run N]\n"
      "       dut_audit budget <trace.jsonl> [--report <report.json>] "
      "[--run N]\n"
      "       dut_audit critical-path <trace.jsonl> [--run N]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  Options opts;
  opts.trace_path = argv[2];
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      opts.report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--run") == 0 && i + 1 < argc) {
      // SIZE_MAX is the "per-command default" sentinel, so it is out of
      // range here.
      const std::optional<std::uint64_t> run =
          dut::obs::parse_u64(argv[++i], 0, SIZE_MAX - 1);
      if (!run) return usage();
      opts.run_index = static_cast<std::size_t>(*run);
    } else {
      return usage();
    }
  }
  try {
    if (std::strcmp(argv[1], "summary") == 0) return cmd_summary(opts);
    if (std::strcmp(argv[1], "lineage") == 0) return cmd_lineage(opts);
    if (std::strcmp(argv[1], "budget") == 0) return cmd_budget(opts);
    if (std::strcmp(argv[1], "critical-path") == 0) {
      return cmd_critical_path(opts);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dut_audit: %s\n", e.what());
    return 1;
  }
  return usage();
}
