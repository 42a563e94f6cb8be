#pragma once

// dut_lint: the repo-native determinism & protocol-safety static checker
// (DESIGN.md §12).
//
// Every guarantee this reproduction makes — bit-identical Monte-Carlo sweeps
// at any DUT_THREADS, CONGEST messages bounded through the declared-width
// bit-budget, reject-biased fault handling — depends on source-level
// disciplines that no runtime test can prove exhaustively. dut_lint checks
// them at review time with a token/decl-level scanner (comments and string
// literals are scrubbed before any rule runs, so rules only ever see code):
//
//  D-rules (determinism):
//    no-random-device        std::random_device anywhere
//    no-libc-rand            rand()/srand()/random()/drand48() calls
//    no-wall-clock           wall-clock reads outside src/obs/ and bench/
//    clock-funnel            wall-clock reads inside src/obs/ and bench/
//                            outside the obs::PhaseTimer/StopWatch funnel
//                            (dut/obs/phase_timer.hpp)
//    no-mutable-static       mutable function-local statics in src/
//    no-unordered-iteration  unordered containers outside tests/
//    seed-unkeyed-derivation RNG state built from a bare seed outside the
//                            blessed derivation funnels (no trial/round/
//                            edge/stream keying)
//    seed-escapes-funnel     a bare seed forwarded into a callee parameter
//                            that is not itself a seed (cross-TU, via the
//                            declaration call graph)
//    merge-not-rank-ordered  verdict/metrics/budget merge loop iterating in
//                            a non-ascending (reversed) order
//  P-rules (protocol safety):
//    wire-cast-confined      reinterpret_cast outside net/message.hpp
//    os-primitives-confined  process/shared-memory/timing OS calls outside
//                            the net transport layer
//    bits-funnel             manual writes to a `.bits` member outside the
//                            push_field/Verdict::make funnels
//    verdict-nodiscard       a verdict-carrying type (Verdict, or a *Result
//                            struct with a Verdict member) not declared
//                            struct [[nodiscard]] — the attribute through
//                            which -Werror=unused-result makes the compiler
//                            refuse every discarded value of the type
//    shared-write-outside-owner
//                            an atomic field of a shared transport/serve
//                            struct written from more than one function
//                            without a handoff annotation
//    atomic-ordering-unjustified
//                            a non-relaxed memory_order without an
//                            ordering justification comment
//  and the meta rule bad-suppression for malformed directives.
//
// Suppression: `// dut-lint: allow(<rule>): <justification>` on the finding
// line (or alone on the line above it). The justification is mandatory and
// must be at least 8 characters; bad-suppression findings cannot themselves
// be suppressed. In-source allow() is the only way to suppress a finding.
//
// Two further directive kinds feed the concurrency census rather than
// suppressing findings:
//   `// dut-lint: handoff(<field>): <justification>`  sanctions an atomic
//     write outside the owning function (quiescence barriers, shutdown
//     wake-ups); the annotated line's writes leave the single-writer census.
//   `// dut-lint: ordering(<tag>): <justification>`   justifies the
//     non-relaxed memory orderings on the covered line.
// Both use the allow() placement rules and both are bad-suppression
// findings when they cover nothing.

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dut::lint {

/// Path-derived rule scope. The distinction matters because several rules
/// apply only to library code (src/) or exempt the observability and bench
/// layers, whose whole job is reading clocks.
enum class FileClass { kLibrary, kObs, kBench, kTest, kTool, kExample, kOther };

/// Classifies a repo-relative, '/'-separated path.
FileClass classify_path(std::string_view rel_path);

/// One lexical token of scrubbed code. Multi-character operators that rules
/// care about (::, ->, ==, +=, ...) arrive merged as single tokens.
struct Token {
  std::string text;
  std::size_t line = 0;  ///< 1-based source line
  bool is_ident = false;
};

struct Finding {
  std::string rule;
  std::string path;
  std::size_t line = 0;  ///< 1-based; 0 for file-level findings
  std::string message;
  std::string excerpt;  ///< trimmed raw source line
};

/// A parsed `// dut-lint: allow(rule): justification` comment.
struct Suppression {
  std::string rule;
  std::string justification;
  std::size_t target_line = 0;  ///< line whose findings it covers
  bool used = false;
};

/// A parsed `// dut-lint: handoff(field): ...` or `ordering(tag): ...`
/// annotation. Unlike a Suppression it does not silence a finding — it is
/// an input to the concurrency census (and unused annotations are findings).
struct Annotation {
  std::string kind;  ///< "handoff" or "ordering"
  std::string arg;   ///< field name (handoff) or free tag (ordering)
  std::string justification;
  std::size_t target_line = 0;
  std::size_t comment_line = 0;  ///< where the directive itself sits
  bool used = false;
};

struct ScannedFile {
  std::string path;
  FileClass cls = FileClass::kOther;
  std::vector<std::string> raw_lines;
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
  std::vector<Annotation> annotations;
  /// Findings produced during scanning itself (bad-suppression).
  std::vector<Finding> scan_findings;

  /// Trimmed raw source line (1-based; empty when out of range).
  std::string excerpt(std::size_t line) const;
};

/// Scrubs comments/literals, tokenizes, and parses suppression comments.
/// `rel_path` decides the FileClass; `text` is the file contents.
ScannedFile scan_file(std::string rel_path, std::string_view text);

struct RuleInfo {
  std::string_view name;
  std::string_view summary;
  /// DESIGN.md anchor for `--explain` ("DESIGN.md §16.2").
  std::string_view design_ref;
  /// The paper/system guarantee the rule protects, one sentence.
  std::string_view guarantee;
};
std::span<const RuleInfo> rule_table();
bool is_known_rule(std::string_view name);
/// nullptr when unknown.
const RuleInfo* find_rule_info(std::string_view name);

// --- Declaration-level call graph (graph.cpp) ------------------------------
// Built once per corpus; feeds the cross-TU seed-flow pass and the
// concurrency census (writer scopes are function declarations).

struct FunctionDecl {
  std::string name;       ///< unqualified ("begin_trial")
  std::string qualifier;  ///< enclosing class or A::B prefix ("" when free)
  std::string path;
  std::size_t line = 0;
  /// Parameter names by position; "" when the declaration omits the name.
  std::vector<std::string> params;
  bool is_definition = false;
};

struct CallSite {
  std::string callee;
  std::size_t token_index = 0;  ///< index of the callee identifier
  std::size_t line = 0;
  int caller = -1;  ///< index into FileGraph::decls, -1 at namespace scope
  /// Top-level argument token ranges [begin, end) inside the call parens.
  std::vector<std::pair<std::size_t, std::size_t>> args;
};

/// Per-file slice of the graph. `func_of[i]` is the index (into decls) of
/// the function definition whose body contains token i, or -1; `record_of`
/// is the innermost struct/class/union name enclosing token i ("" outside).
struct FileGraph {
  const ScannedFile* file = nullptr;
  std::vector<FunctionDecl> decls;
  std::vector<CallSite> calls;
  std::vector<int> func_of;
  std::vector<std::string> record_of;
};

struct CallGraph {
  std::vector<FileGraph> files;  ///< parallel to the scanned corpus
  /// Every declaration/definition of a given unqualified name, corpus-wide.
  std::map<std::string, std::vector<const FunctionDecl*>, std::less<>> by_name;
};

CallGraph build_call_graph(const std::vector<ScannedFile>& files);

// --- Rule passes implemented outside rules.cpp -----------------------------

/// Seed-flow taint pass (taint.cpp): seed-unkeyed-derivation,
/// seed-escapes-funnel and merge-not-rank-ordered over one file, using the
/// corpus-wide graph for cross-TU parameter lookups.
void run_taint_rules(const ScannedFile& file, const CallGraph& graph,
                     const FileGraph& fg, std::vector<Finding>& out);

/// Concurrency single-writer census (concurrency.cpp). Runs corpus-wide:
/// collects the atomic fields of shared structs in the census scope
/// (src/net transport + src/serve), then checks one writer function per
/// field (handoff-annotated lines exempt) and ordering justifications.
/// Marks used annotations in `files`; run_lint flushes unused-annotation
/// findings afterwards. Emits findings keyed by file path into `out`.
void run_concurrency_census(std::vector<ScannedFile>& files,
                            const CallGraph& graph,
                            std::map<std::string, std::vector<Finding>>& out);

struct SuppressedFinding {
  Finding finding;
  std::string justification;
};

struct LintResult {
  std::vector<Finding> findings;  ///< active, i.e. not suppressed
  std::vector<SuppressedFinding> suppressed;
  std::size_t files_scanned = 0;
};

/// Runs every rule over the corpus: the corpus-wide call graph and
/// concurrency census first, then the per-file token rules, with
/// suppressions applied at the end. Findings are ordered by (path, line,
/// rule) so output is deterministic.
LintResult run_lint(const std::vector<ScannedFile>& files);

/// Walks `rel_paths` (files or directories) under `root` and returns every
/// C++ source (.hpp/.h/.cpp/.cc), sorted. Directories named "fixtures" and
/// build trees (build*, CMakeFiles, .git, Testing) are skipped so lint
/// fixtures with intentional violations never leak into the repo gate.
std::vector<std::filesystem::path> collect_sources(
    const std::filesystem::path& root, const std::vector<std::string>& rel_paths);

/// Human-readable report, the gate's stdout: one entry per unsuppressed
/// finding, then a summary line.
std::string human_report(const LintResult& result);

}  // namespace dut::lint
