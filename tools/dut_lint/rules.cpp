// Rule implementations: the per-file token rules plus the run_lint driver,
// which also runs the corpus-wide passes (taint.cpp, concurrency.cpp).
// Everything works on scrubbed tokens, so string literals and comments can
// name any identifier freely.

#include <algorithm>
#include <map>
#include <set>

#include "dut_lint/lint.hpp"

namespace dut::lint {

namespace {

constexpr RuleInfo kRules[] = {
    {"no-random-device",
     "std::random_device draws OS entropy; seeded Xoshiro streams are the "
     "only sanctioned randomness (bit-identical sweeps, DESIGN.md §8)",
     "DESIGN.md §12",
     "Bit-identical Monte-Carlo sweeps: every random draw derives from the "
     "run seed, so a sweep replays exactly at any thread/rank count"},
    {"no-libc-rand",
     "rand()/srand()/random()/drand48() share hidden global state and break "
     "per-trial stream derivation",
     "DESIGN.md §12",
     "Per-trial stream independence: the (salt^seed, trial, round, edge, "
     "msg_index) funnel cannot coexist with hidden libc RNG state"},
    {"no-wall-clock",
     "wall-clock reads outside src/obs/ and bench/ make output depend on "
     "when it ran, not on (seed, input)",
     "DESIGN.md §12",
     "Verdicts are a pure function of (seed, input): the threshold rule's "
     "error bounds are meaningless if decisions see the clock"},
    {"clock-funnel",
     "within src/obs/ and bench/, wall-clock reads are confined to "
     "obs::StopWatch/obs::PhaseTimer in dut/obs/phase_timer.hpp — one "
     "clock for every phase histogram and perf figure",
     "DESIGN.md §12",
     "One clock for every timing figure: phase histograms and bench "
     "reports stay comparable and fakeable from a single funnel"},
    {"no-mutable-static",
     "mutable function-local statics in library code are hidden cross-trial "
     "state; immutable/const/reference latches are exempt",
     "DESIGN.md §12",
     "Trial re-runnability: engines are pooled and re-run; cross-trial "
     "state would couple trials the analysis treats as independent"},
    {"no-unordered-iteration",
     "unordered container iteration order is unspecified; verdicts, traces "
     "and reports must not depend on it (tests exempt)",
     "DESIGN.md §12",
     "Deterministic iteration: verdict streams, traces and reports must "
     "not depend on hash-table order, which varies across libraries"},
    {"seed-unkeyed-derivation",
     "RNG state built from a bare seed outside the blessed derivation "
     "funnels (no trial/round/edge/stream keying)",
     "DESIGN.md §16.2",
     "Per-trial stream independence (paper Thm. 1 error bounds): two "
     "streams built from the same bare seed are the *same* stream, and "
     "collision statistics computed from them are silently correlated"},
    {"seed-escapes-funnel",
     "a bare seed forwarded into a callee parameter that is not itself a "
     "seed (cross-TU, via the declaration call graph)",
     "DESIGN.md §16.2",
     "Seed provenance: once a seed travels under a non-seed parameter "
     "name, the next maintainer cannot know it must be keyed before "
     "re-derivation — the leak that correlates trials arrives one call "
     "later"},
    {"merge-not-rank-ordered",
     "verdict/metrics/budget merge loop iterating in a non-ascending "
     "(reversed) order",
     "DESIGN.md §16.2",
     "Rank-order merge determinism: verdict streams are bit-identical "
     "across threads, shards, ranks and transports only because every "
     "merge folds results in ascending (rank, shard, stream) order"},
    {"wire-cast-confined",
     "reinterpret_cast on wire/shared bytes is confined to net/message.hpp "
     "and the transport serialization funnel (net transport shm_session); "
     "the declared-width field API is the only wire format",
     "DESIGN.md §12",
     "Declared-width CONGEST budget: every wire field is counted by the "
     "push_field API, so the paper's communication bounds are measured, "
     "not assumed"},
    {"os-primitives-confined",
     "process, shared-memory and timing OS primitives (mmap/shm_open/fork/"
     "nanosleep/...) live only in the net transport layer; protocol and "
     "library code stays single-process and deterministic",
     "DESIGN.md §12",
     "Transport seam integrity: protocol code runs identically under "
     "every Transport backend because only the transport owns processes, "
     "shared memory and waits"},
    {"bits-funnel",
     "Message/Verdict bit totals are accumulated by push_field and "
     "Verdict::make; manual .bits writes under-report the CONGEST budget",
     "DESIGN.md §12",
     "Bit-budget accounting: the CONGEST width claims hold because "
     "push_field/Verdict::make are the only writers of .bits"},
    {"verdict-nodiscard",
     "Verdict and every *Result struct with a Verdict member must be "
     "declared struct [[nodiscard]], so that -Werror=unused-result makes "
     "the compiler refuse every discarded value of the type",
     "DESIGN.md §12",
     "No silent verdict loss: every protocol outcome is observed or "
     "visibly cast to (void) — the reject-biased fault contract only holds "
     "if rejects are seen"},
    {"shared-write-outside-owner",
     "an atomic field of a shared transport/serve struct written from more "
     "than one function without a handoff annotation",
     "DESIGN.md §16.3",
     "Single-writer SPSC discipline: ring tails belong to the writer, "
     "heads to the reader, trial controls to the coordinator — the "
     "lock-free protocol is only correct with exactly one writer scope "
     "per field"},
    {"atomic-ordering-unjustified",
     "a non-relaxed memory_order without an ordering justification comment",
     "DESIGN.md §16.3",
     "Halt-visibility and publish edges: each non-relaxed ordering is a "
     "protocol edge (publish/consume, quiescence, abort visibility) and "
     "must state which edge it establishes"},
    {"bad-suppression",
     "dut-lint allow()/handoff()/ordering() comment is malformed, names an "
     "unknown rule, lacks a justification, or covers nothing",
     "DESIGN.md §12",
     "Auditability of every exemption: a suppression or census annotation "
     "that is malformed or dangling is itself a finding"},
};

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// in_function[i]: token i sits inside a function (or lambda) body. A
/// heuristic brace tracker: frames opened after a parameter list — including
/// constructor-initializer bodies — count as functions; namespace/type
/// frames do not. Misclassification errs toward false negatives, never
/// toward flagging namespace-scope declarations.
std::vector<bool> compute_in_function(const std::vector<Token>& tokens) {
  std::vector<bool> in_function(tokens.size(), false);
  std::vector<char> frames;  // 'n'amespace, 't'ype, 'f'unction, 'b'lock
  int func_depth = 0;
  int paren_depth = 0;
  char pending = 0;
  bool after_params = false;
  bool in_ctor_init = false;

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    in_function[i] = func_depth > 0;
    const std::string& t = tokens[i].text;
    const std::string prev = i > 0 ? tokens[i - 1].text : std::string();
    if (t == "(") {
      ++paren_depth;
      continue;
    }
    if (t == ")") {
      if (paren_depth > 0) --paren_depth;
      if (paren_depth == 0) after_params = true;
      continue;
    }
    if (paren_depth > 0) continue;

    if (tokens[i].is_ident) {
      if (t == "namespace") {
        pending = 'n';
      } else if (t == "class" || t == "struct" || t == "union" ||
                 t == "enum") {
        pending = 't';
      }
      // const/noexcept/override/final/trailing-return idents keep
      // after_params alive on the way to the body brace.
      continue;
    }
    if (t == ";") {
      pending = 0;
      after_params = false;
      in_ctor_init = false;
    } else if (t == "," || t == "=") {
      if (!in_ctor_init) after_params = false;
    } else if (t == ":" && after_params) {
      in_ctor_init = true;
    } else if (t == "{") {
      char kind = 'b';
      if (pending == 'n') {
        kind = 'n';
      } else if (pending == 't') {
        kind = 't';
      } else if (in_ctor_init) {
        kind = (prev == ")" || prev == "}") ? 'f' : 'b';
        if (kind == 'f') in_ctor_init = false;
      } else if (after_params) {
        kind = 'f';
      }
      frames.push_back(kind);
      if (kind == 'f') ++func_depth;
      pending = 0;
      after_params = false;
    } else if (t == "}") {
      if (!frames.empty()) {
        if (frames.back() == 'f' && func_depth > 0) --func_depth;
        frames.pop_back();
      }
    }
  }
  return in_function;
}

// --- per-file token rules --------------------------------------------------

using Emit = std::vector<Finding>&;

void emit(Emit out, std::string rule, const ScannedFile& file,
          std::size_t line, std::string message) {
  out.push_back({std::move(rule), file.path, line, std::move(message),
                 file.excerpt(line)});
}

bool is_call(const std::vector<Token>& toks, std::size_t i) {
  return i + 1 < toks.size() && toks[i + 1].text == "(";
}

bool member_access_before(const std::vector<Token>& toks, std::size_t i) {
  return i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
}

void rule_no_random_device(const ScannedFile& file, Emit out) {
  for (std::size_t i = 0; i < file.tokens.size(); ++i) {
    if (file.tokens[i].is_ident && file.tokens[i].text == "random_device") {
      emit(out, "no-random-device", file, file.tokens[i].line,
           "std::random_device is nondeterministic; derive a "
           "stats::Xoshiro256 stream from the run seed instead");
    }
  }
}

void rule_no_libc_rand(const ScannedFile& file, Emit out) {
  static const std::set<std::string> kBanned = {"rand", "srand", "random",
                                                "drand48", "lrand48"};
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].is_ident || kBanned.count(toks[i].text) == 0) continue;
    if (!is_call(toks, i) || member_access_before(toks, i)) continue;
    emit(out, "no-libc-rand", file, toks[i].line,
         "libc '" + toks[i].text +
             "' uses hidden global state; use the seeded per-node/per-trial "
             "RNG streams");
  }
}

// Identifier sets shared by the two clock rules: no-wall-clock bans these
// outside src/obs/ and bench/; clock-funnel confines them, within those two
// layers, to the phase_timer.hpp stopwatch.
const std::set<std::string>& clock_types() {
  static const std::set<std::string> kClockTypes = {
      "system_clock", "high_resolution_clock", "steady_clock"};
  return kClockTypes;
}
const std::set<std::string>& clock_calls() {
  static const std::set<std::string> kClockCalls = {
      "time",        "clock",     "gettimeofday", "clock_gettime",
      "localtime",   "gmtime",    "mktime",       "timespec_get"};
  return kClockCalls;
}

void rule_no_wall_clock(const ScannedFile& file, Emit out) {
  if (file.cls == FileClass::kObs || file.cls == FileClass::kBench) return;
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].is_ident) continue;
    if (clock_types().count(toks[i].text) > 0) {
      emit(out, "no-wall-clock", file, toks[i].line,
           "chrono clock read outside src/obs/ and bench/: output must "
           "depend only on (seed, input), never on when it ran");
    } else if (clock_calls().count(toks[i].text) > 0 && is_call(toks, i) &&
               !member_access_before(toks, i)) {
      emit(out, "no-wall-clock", file, toks[i].line,
           "libc time call '" + toks[i].text +
               "' outside src/obs/ and bench/");
    }
  }
}

void rule_clock_funnel(const ScannedFile& file, Emit out) {
  // The layers no-wall-clock exempts still get exactly one clock source:
  // obs::StopWatch / obs::PhaseTimer in phase_timer.hpp. Everything else in
  // src/obs/ and bench/ reads time through them, so phase histograms and
  // perf figures all share one clock (and one place to fake it).
  if (file.cls != FileClass::kObs && file.cls != FileClass::kBench) return;
  if (file.path == "src/obs/include/dut/obs/phase_timer.hpp") return;
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].is_ident) continue;
    if (clock_types().count(toks[i].text) > 0) {
      emit(out, "clock-funnel", file, toks[i].line,
           "direct chrono clock read in src/obs//bench/: go through "
           "obs::StopWatch / obs::PhaseTimer (dut/obs/phase_timer.hpp), the "
           "single wall-clock funnel");
    } else if (clock_calls().count(toks[i].text) > 0 && is_call(toks, i) &&
               !member_access_before(toks, i)) {
      emit(out, "clock-funnel", file, toks[i].line,
           "libc time call '" + toks[i].text +
               "' in src/obs//bench/: go through obs::StopWatch / "
               "obs::PhaseTimer (dut/obs/phase_timer.hpp)");
    }
  }
}

void rule_no_mutable_static(const ScannedFile& file, Emit out) {
  if (file.cls != FileClass::kLibrary && file.cls != FileClass::kObs) return;
  const std::vector<Token>& toks = file.tokens;
  const std::vector<bool> in_function = compute_in_function(toks);
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].is_ident || toks[i].text != "static" || !in_function[i]) {
      continue;
    }
    bool exempt = false;
    for (std::size_t j = i + 1; j < toks.size(); ++j) {
      const std::string& t = toks[j].text;
      if (t == ";" || t == "=" || t == "(" || t == "{") break;
      if (t == "const" || t == "constexpr" || t == "constinit" || t == "&" ||
          t == "&&") {
        exempt = true;
        break;
      }
    }
    if (!exempt) {
      emit(out, "no-mutable-static", file, toks[i].line,
           "mutable function-local static in library code: hidden "
           "cross-trial state breaks the bit-identical contract (const/"
           "reference latches are exempt)");
    }
  }
}

void rule_no_unordered_iteration(const ScannedFile& file, Emit out) {
  if (file.cls == FileClass::kTest) return;
  static const std::set<std::string> kBanned = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (std::size_t i = 0; i < file.tokens.size(); ++i) {
    if (file.tokens[i].is_ident && kBanned.count(file.tokens[i].text) > 0) {
      emit(out, "no-unordered-iteration", file, file.tokens[i].line,
           "'" + file.tokens[i].text +
               "' iteration order is unspecified; verdicts/traces/reports "
               "must use std::map or a sorted vector");
    }
  }
}

/// The transport layer's serialization funnel: the one .cpp that may view a
/// mapped shared-memory segment as the layout structs (see
/// ShmSession::control()). Everything else in the transport works on
/// typed records and word buffers.
bool in_transport_layer(std::string_view path) {
  return path.rfind("src/net/src/transport/", 0) == 0 ||
         path.rfind("src/net/include/dut/net/transport/", 0) == 0;
}

void rule_wire_cast_confined(const ScannedFile& file, Emit out) {
  if (file.path == "src/net/include/dut/net/message.hpp" ||
      file.path == "src/net/src/transport/shm_session.cpp") {
    return;
  }
  for (std::size_t i = 0; i < file.tokens.size(); ++i) {
    if (file.tokens[i].is_ident &&
        file.tokens[i].text == "reinterpret_cast") {
      emit(out, "wire-cast-confined", file, file.tokens[i].line,
           "reinterpret_cast outside net/message.hpp and the transport "
           "serialization funnel: wire payloads go through the "
           "declared-width field API only");
    }
  }
}

void rule_os_primitives_confined(const ScannedFile& file, Emit out) {
  if (in_transport_layer(file.path)) return;
  static const std::set<std::string> kBanned = {
      "mmap",       "munmap",     "mremap",      "mprotect",
      "shm_open",   "shm_unlink", "ftruncate",   "fork",
      "vfork",      "execv",      "execve",      "execvp",
      "waitpid",    "socket",     "socketpair",  "nanosleep",
      "usleep",     "sched_yield", "sleep_for",  "sleep_until"};
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!toks[i].is_ident || kBanned.count(toks[i].text) == 0) continue;
    if (!is_call(toks, i)) continue;
    // this_thread::sleep_for / std::... qualifications still count; a
    // member call on some unrelated type's .fork() does not.
    if (member_access_before(toks, i)) continue;
    emit(out, "os-primitives-confined", file, toks[i].line,
         "OS primitive '" + toks[i].text +
             "' outside the net transport layer: protocol and library code "
             "must stay single-process and deterministic (src/net/"
             "*/transport/ owns processes, shared memory and waits)");
  }
}

void rule_bits_funnel(const ScannedFile& file, Emit out) {
  // shm_transport.cpp deserializes records whose .bits were accounted by
  // push_field on the sending rank; restoring the field from the wire is
  // not new accounting.
  if (file.path == "src/net/include/dut/net/message.hpp" ||
      file.path == "src/net/src/engine.cpp" ||
      file.path == "src/net/src/transport/shm_transport.cpp" ||
      file.path == "src/core/include/dut/core/verdict.hpp") {
    return;
  }
  static const std::set<std::string> kAssign = {"=",  "+=", "-=", "|=",
                                                "&=", "^=", "<<=", ">>="};
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (!toks[i].is_ident || toks[i].text != "bits") continue;
    if (!member_access_before(toks, i)) continue;
    if (kAssign.count(toks[i + 1].text) == 0) continue;
    emit(out, "bits-funnel", file, toks[i].line,
         "manual '.bits' write bypasses the push_field/Verdict::make bit "
         "accounting; size payloads through the bit-budget helpers");
  }
}

/// The verdict contract belongs to the compiler: a type declared
/// `struct [[nodiscard]]` makes every discarded value of it a hard error
/// under the build's -Werror=unused-result, at every call site — macro
/// arguments included. This rule only keeps the attribute in place on the
/// verdict-carrying types: Verdict, and each *Result struct (definition,
/// in any scanned file) with a Verdict member.
void rule_verdict_nodiscard(const ScannedFile& file, Emit out) {
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!toks[i].is_ident ||
        (toks[i].text != "struct" && toks[i].text != "class")) {
      continue;
    }
    // Read the attributes between the keyword and the name.
    std::size_t j = i + 1;
    bool nodiscard = false;
    while (j < toks.size() && toks[j].text == "[") {
      while (j < toks.size() && toks[j].text != "]") {
        if (toks[j].text == "nodiscard") nodiscard = true;
        ++j;
      }
      while (j < toks.size() && toks[j].text == "]") ++j;
    }
    if (j >= toks.size() || !toks[j].is_ident) continue;
    const std::string& name = toks[j].text;
    const bool verdict_named = name == "Verdict";
    if (!verdict_named && !ends_with(name, "Result")) continue;

    // Only a definition is checked: find its body.
    std::size_t k = j + 1;
    while (k < toks.size() && toks[k].text != "{" && toks[k].text != ";") ++k;
    if (k >= toks.size() || toks[k].text == ";") continue;
    bool carries_verdict = verdict_named;
    int depth = 0;
    for (std::size_t b = k; b < toks.size() && !carries_verdict; ++b) {
      if (toks[b].text == "{") ++depth;
      if (toks[b].text == "}" && --depth == 0) break;
      carries_verdict = toks[b].is_ident && toks[b].text == "Verdict";
    }
    if (carries_verdict && !nodiscard) {
      emit(out, "verdict-nodiscard", file, toks[j].line,
           "'" + name +
               "' carries a verdict but is not declared struct "
               "[[nodiscard]]; only the type-level attribute makes the "
               "compiler refuse a discarded value at every call site");
    }
  }
}

void apply_suppressions(ScannedFile& file, std::vector<Finding>& candidates,
                        LintResult& result) {
  for (Finding& f : candidates) {
    bool covered = false;
    if (f.rule != "bad-suppression") {
      for (Suppression& s : file.suppressions) {
        if (s.rule == f.rule && s.target_line == f.line) {
          s.used = true;
          covered = true;
          result.suppressed.push_back({std::move(f), s.justification});
          break;
        }
      }
    }
    if (!covered) result.findings.push_back(std::move(f));
  }
}

}  // namespace

std::span<const RuleInfo> rule_table() { return kRules; }

bool is_known_rule(std::string_view name) {
  return find_rule_info(name) != nullptr;
}

const RuleInfo* find_rule_info(std::string_view name) {
  for (const RuleInfo& r : kRules) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

LintResult run_lint(const std::vector<ScannedFile>& files) {
  LintResult result;
  result.files_scanned = files.size();

  // All semantic passes share one scratch copy of the corpus so suppression
  // and annotation bookkeeping stays per-run: the call graph is built once,
  // the census runs corpus-wide (marking used annotations), then the
  // per-file token rules run and suppressions are applied.
  std::vector<ScannedFile> scratch(files.begin(), files.end());
  const CallGraph graph = build_call_graph(scratch);
  std::map<std::string, std::vector<Finding>> census;
  run_concurrency_census(scratch, graph, census);

  for (std::size_t fi = 0; fi < scratch.size(); ++fi) {
    ScannedFile& file = scratch[fi];
    std::vector<Finding> candidates = file.scan_findings;
    rule_no_random_device(file, candidates);
    rule_no_libc_rand(file, candidates);
    rule_no_wall_clock(file, candidates);
    rule_clock_funnel(file, candidates);
    rule_no_mutable_static(file, candidates);
    rule_no_unordered_iteration(file, candidates);
    rule_wire_cast_confined(file, candidates);
    rule_os_primitives_confined(file, candidates);
    rule_bits_funnel(file, candidates);
    rule_verdict_nodiscard(file, candidates);
    run_taint_rules(file, graph, graph.files[fi], candidates);
    if (const auto it = census.find(file.path); it != census.end()) {
      candidates.insert(candidates.end(), it->second.begin(),
                        it->second.end());
      census.erase(it);
    }
    for (const Annotation& a : file.annotations) {
      if (a.used) continue;
      candidates.push_back(
          {"bad-suppression", file.path, a.comment_line,
           "dut-lint " + a.kind + "(" + a.arg + ") annotation covers no " +
               (a.kind == "handoff" ? std::string("atomic write to that "
                                                  "field on its line")
                                    : std::string("non-relaxed memory "
                                                  "ordering on its line")),
           file.excerpt(a.comment_line)});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Finding& a, const Finding& b) {
                return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
              });
    apply_suppressions(file, candidates, result);
  }

  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.path, a.line, a.rule) <
                     std::tie(b.path, b.line, b.rule);
            });
  return result;
}

}  // namespace dut::lint
