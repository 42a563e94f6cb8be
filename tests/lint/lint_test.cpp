// dut_lint self-tests: per-rule detection on fixtures with known violations,
// suppression round-trips and the gate's report. Fixtures live in
// tests/lint/fixtures/ — a directory name the repo gate's source walk skips,
// so their intentional violations never fail the real gate (that property is
// itself tested below).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dut_lint/lint.hpp"

namespace dut::lint {
namespace {

namespace fs = std::filesystem;

fs::path fixture_dir() { return fs::path(DUT_LINT_FIXTURE_DIR); }

std::string read_fixture(const std::string& name) {
  std::ifstream in(fixture_dir() / name, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << name;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Scans one fixture under a pretend repo-relative path (the path decides
/// the FileClass and therefore which rules apply).
ScannedFile scan_fixture(const std::string& name, std::string rel_path) {
  return scan_file(std::move(rel_path), read_fixture(name));
}

std::size_t count_rule(const LintResult& result, std::string_view rule) {
  return static_cast<std::size_t>(
      std::count_if(result.findings.begin(), result.findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

const Finding* find_rule(const LintResult& result, std::string_view rule) {
  for (const Finding& f : result.findings) {
    if (f.rule == rule) return &f;
  }
  return nullptr;
}

// --- rule detection --------------------------------------------------------

TEST(LintRules, DeterminismRulesFireOnLibraryCode) {
  const LintResult result =
      run_lint({scan_fixture("d_rules.cpp", "src/core/src/d_rules.cpp")});

  EXPECT_EQ(count_rule(result, "no-random-device"), 1u);
  EXPECT_EQ(count_rule(result, "no-libc-rand"), 1u);
  EXPECT_EQ(count_rule(result, "no-wall-clock"), 1u);
  EXPECT_EQ(count_rule(result, "no-mutable-static"), 1u);
  EXPECT_EQ(count_rule(result, "no-unordered-iteration"), 1u);
  EXPECT_EQ(result.findings.size(), 5u);

  const Finding* f = find_rule(result, "no-mutable-static");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->line, 22u);
  EXPECT_EQ(f->excerpt.rfind("static int counter", 0), 0u);
}

TEST(LintRules, DeterminismRulesRespectFileClassExemptions) {
  // The same violations in a test file: static/unordered are allowed there,
  // and in a bench file the clock read is allowed too.
  const LintResult as_test =
      run_lint({scan_fixture("d_rules.cpp", "tests/core/d_rules.cpp")});
  EXPECT_EQ(count_rule(as_test, "no-mutable-static"), 0u);
  EXPECT_EQ(count_rule(as_test, "no-unordered-iteration"), 0u);
  EXPECT_EQ(count_rule(as_test, "no-wall-clock"), 1u);
  EXPECT_EQ(count_rule(as_test, "no-random-device"), 1u);

  const LintResult as_bench =
      run_lint({scan_fixture("d_rules.cpp", "bench/d_rules.cpp")});
  EXPECT_EQ(count_rule(as_bench, "no-wall-clock"), 0u);
  EXPECT_EQ(count_rule(as_bench, "no-random-device"), 1u);

  // ... but within the exempted layers the clock-funnel rule takes over:
  // the raw clock read must go through obs::StopWatch/PhaseTimer instead.
  EXPECT_EQ(count_rule(as_bench, "clock-funnel"), 1u);
  EXPECT_EQ(count_rule(as_test, "clock-funnel"), 0u);
}

TEST(LintRules, ClockFunnelExemptsThePhaseTimerHeader) {
  // The same clock read under the funnel's own path is the one sanctioned
  // wall-clock source in the whole repo.
  const LintResult funnel = run_lint({scan_fixture(
      "d_rules.cpp", "src/obs/include/dut/obs/phase_timer.hpp")});
  EXPECT_EQ(count_rule(funnel, "clock-funnel"), 0u);
  EXPECT_EQ(count_rule(funnel, "no-wall-clock"), 0u);

  // Any other src/obs/ file gets flagged.
  const LintResult obs_file =
      run_lint({scan_fixture("d_rules.cpp", "src/obs/src/d_rules.cpp")});
  EXPECT_EQ(count_rule(obs_file, "clock-funnel"), 1u);
  EXPECT_EQ(count_rule(obs_file, "no-wall-clock"), 0u);
}

TEST(LintRules, ProtocolRulesFireOutsideTheFunnelFiles) {
  const LintResult result =
      run_lint({scan_fixture("p_rules.cpp", "src/net/src/p_rules.cpp")});
  EXPECT_EQ(count_rule(result, "wire-cast-confined"), 1u);
  EXPECT_EQ(count_rule(result, "bits-funnel"), 1u);

  // The exact same content under the message.hpp path is the sanctioned
  // funnel and produces neither finding.
  const LintResult funnel = run_lint(
      {scan_fixture("p_rules.cpp", "src/net/include/dut/net/message.hpp")});
  EXPECT_EQ(count_rule(funnel, "wire-cast-confined"), 0u);
  EXPECT_EQ(count_rule(funnel, "bits-funnel"), 0u);
}

TEST(LintRules, OsPrimitivesAreConfinedToTheTransportLayer) {
  // mmap / fork / nanosleep in library code are findings; the member call
  // `helper.fork()` is not. The digit separator in 120'000 must not hide
  // the violations after it behind a phantom char literal.
  const LintResult result =
      run_lint({scan_fixture("os_prims.cpp", "src/core/src/os_prims.cpp")});
  EXPECT_EQ(count_rule(result, "os-primitives-confined"), 3u);

  // The same content inside the transport layer (either tree) is the
  // sanctioned home for these primitives.
  const LintResult in_src = run_lint({scan_fixture(
      "os_prims.cpp", "src/net/src/transport/os_prims.cpp")});
  EXPECT_EQ(count_rule(in_src, "os-primitives-confined"), 0u);
  const LintResult in_hdr = run_lint({scan_fixture(
      "os_prims.cpp", "src/net/include/dut/net/transport/os_prims.hpp")});
  EXPECT_EQ(count_rule(in_hdr, "os-primitives-confined"), 0u);
}

TEST(LintRules, WireCastFunnelCoversTheShmSerializationFile) {
  // p_rules.cpp carries one reinterpret_cast; under the shm serialization
  // funnel path it is sanctioned, anywhere else in the transport it is not.
  const LintResult funnel = run_lint({scan_fixture(
      "p_rules.cpp", "src/net/src/transport/shm_session.cpp")});
  EXPECT_EQ(count_rule(funnel, "wire-cast-confined"), 0u);

  const LintResult elsewhere = run_lint({scan_fixture(
      "p_rules.cpp", "src/net/src/transport/shm_transport.cpp")});
  EXPECT_EQ(count_rule(elsewhere, "wire-cast-confined"), 1u);
  // ... though that file is part of the bits funnel (wire deserialization
  // restores sender-side accounting).
  EXPECT_EQ(count_rule(elsewhere, "bits-funnel"), 0u);
}

TEST(LintScan, DigitSeparatorsAreNotCharLiterals) {
  // Regression: `120'000 ... 1'000'000` used to scrub everything between
  // the two separators as one char literal, hiding real violations.
  const std::string text =
      "constexpr unsigned long long a = 120'000;\n"
      "std::random_device entropy;\n"
      "constexpr unsigned long long b = 1'000'000;\n"
      "char c = 'x';  // a real char literal still scrubs\n";
  const LintResult result =
      run_lint({scan_file("src/core/src/seps.cpp", text)});
  EXPECT_EQ(count_rule(result, "no-random-device"), 1u);
}

TEST(LintRules, VerdictTypesMustBeNodiscardAtTypeLevel) {
  // Verdict, TrialResult and EpochScanResult carry a verdict without the
  // type-level attribute. AnytimeResult has it, PackagingResult carries no
  // verdict, and neither a forward declaration nor a function-level
  // [[nodiscard]] counts.
  const std::string text = read_fixture("verdict_api.hpp");
  const LintResult result = run_lint(
      {scan_file("src/core/include/dut/core/verdict_api.hpp", text)});
  ASSERT_EQ(count_rule(result, "verdict-nodiscard"), 3u);
  EXPECT_EQ(result.findings.size(), 3u);
  std::vector<std::string> types;
  for (const Finding& f : result.findings) {
    types.push_back(f.message.substr(1, f.message.find('\'', 1) - 1));
  }
  EXPECT_EQ(types, (std::vector<std::string>{"Verdict", "TrialResult",
                                             "EpochScanResult"}));

  // Every scanned file is covered, tests included.
  const LintResult as_test =
      run_lint({scan_file("tests/core/verdict_api.hpp", text)});
  EXPECT_EQ(count_rule(as_test, "verdict-nodiscard"), 3u);

  // Dropping the attribute from AnytimeResult makes it a fourth finding.
  const std::string attribute = "[[nodiscard]] ";
  std::string stripped = text;
  const std::size_t at = stripped.find(attribute + "AnytimeResult");
  ASSERT_NE(at, std::string::npos);
  stripped.erase(at, attribute.size());
  const LintResult unprotected = run_lint(
      {scan_file("src/core/include/dut/core/verdict_api.hpp", stripped)});
  EXPECT_EQ(count_rule(unprotected, "verdict-nodiscard"), 4u);
}

TEST(LintRules, CleanFileWithCommentAndStringMentionsHasNoFindings) {
  const LintResult result =
      run_lint({scan_fixture("clean.cpp", "src/core/src/clean.cpp")});
  EXPECT_TRUE(result.findings.empty())
      << "unexpected: " << result.findings.front().rule << " at line "
      << result.findings.front().line;
  EXPECT_TRUE(result.suppressed.empty());
}

// --- suppression -----------------------------------------------------------

TEST(LintSuppression, RoundTripCoversBothPlacements) {
  const LintResult result = run_lint(
      {scan_fixture("suppressed.cpp", "src/core/src/suppressed.cpp")});
  EXPECT_TRUE(result.findings.empty())
      << "unexpected: " << result.findings.front().rule;
  ASSERT_EQ(result.suppressed.size(), 2u);

  std::vector<std::string> rules;
  for (const SuppressedFinding& s : result.suppressed) {
    rules.push_back(s.finding.rule);
    EXPECT_GE(s.justification.size(), 8u);
  }
  std::sort(rules.begin(), rules.end());
  EXPECT_EQ(rules[0], "no-libc-rand");
  EXPECT_EQ(rules[1], "no-random-device");
}

TEST(LintSuppression, RemovingTheDirectiveReactivatesTheFinding) {
  std::string text = read_fixture("suppressed.cpp");
  const std::size_t at = text.find("dut-lint:");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 9, "disabled:");  // same length: line numbers unchanged

  const LintResult result =
      run_lint({scan_file("src/core/src/suppressed.cpp", text)});
  EXPECT_EQ(count_rule(result, "no-random-device"), 1u);
  EXPECT_EQ(result.suppressed.size(), 1u);  // the same-line one still works
}

TEST(LintSuppression, MalformedDirectivesAreFindingsAndUnsuppressible) {
  const LintResult result = run_lint({scan_fixture(
      "bad_suppression.cpp", "src/core/src/bad_suppression.cpp")});
  // unknown rule, too-short justification, missing allow clause, and the
  // attempt to allow(bad-suppression) itself — all four must surface.
  EXPECT_EQ(count_rule(result, "bad-suppression"), 4u);
  EXPECT_TRUE(result.suppressed.empty());
}

TEST(LintSuppression, DirectiveMustStartTheComment) {
  const LintResult result =
      run_lint({scan_fixture("clean.cpp", "src/core/src/clean.cpp")});
  // clean.cpp quotes the allow() syntax mid-comment; no directive, no
  // bad-suppression.
  EXPECT_EQ(count_rule(result, "bad-suppression"), 0u);
}

// --- report --------------------------------------------------------------

TEST(LintReport, HumanReportSummarizesCounts) {
  const LintResult result =
      run_lint({scan_fixture("d_rules.cpp", "src/core/src/d_rules.cpp")});
  const std::string report = human_report(result);
  EXPECT_NE(report.find("dut_lint: 5 findings (0 suppressed) across 1 files"),
            std::string::npos);
  EXPECT_NE(report.find("[no-random-device]"), std::string::npos);
}

// --- source walking --------------------------------------------------------

TEST(LintWalk, CollectSourcesSkipsFixtureAndBuildDirectories) {
  const std::vector<fs::path> sources =
      collect_sources(fixture_dir() / "collect", {"src"});
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0].filename(), "real.cpp");
}

TEST(LintWalk, TheRepoGateNeverSeesTheseFixtures) {
  // Walk the real tests/ tree the way the gate does and assert nothing from
  // the fixtures directory (all intentional violations) is picked up.
  const fs::path repo_tests = fixture_dir().parent_path().parent_path();
  ASSERT_EQ(repo_tests.filename(), "tests");
  for (const fs::path& p : collect_sources(repo_tests.parent_path(),
                                           {"tests"})) {
    EXPECT_EQ(p.string().find("fixtures"), std::string::npos) << p;
  }
}

TEST(LintWalk, ClassifyPathCoversEveryLayer) {
  EXPECT_EQ(classify_path("src/obs/src/metrics.cpp"), FileClass::kObs);
  EXPECT_EQ(classify_path("src/core/src/gap_tester.cpp"),
            FileClass::kLibrary);
  EXPECT_EQ(classify_path("bench/bench_main.cpp"), FileClass::kBench);
  EXPECT_EQ(classify_path("tests/core/gap_test.cpp"), FileClass::kTest);
  EXPECT_EQ(classify_path("tools/dut_cli/main.cpp"), FileClass::kTool);
  EXPECT_EQ(classify_path("examples/demo.cpp"), FileClass::kExample);
  EXPECT_EQ(classify_path("README.md"), FileClass::kOther);
}

TEST(LintRules, RuleTableAndKnownRulesAgree) {
  ASSERT_FALSE(rule_table().empty());
  for (const RuleInfo& r : rule_table()) {
    EXPECT_TRUE(is_known_rule(r.name));
    EXPECT_FALSE(r.summary.empty());
  }
  EXPECT_FALSE(is_known_rule("no-such-rule"));
}

TEST(LintRules, EveryRuleCitesItsDesignSectionAndGuarantee) {
  // --explain renders summary/guarantee/design_ref for any rule; none of
  // the fields may be empty and every reference must point into DESIGN.md.
  for (const RuleInfo& r : rule_table()) {
    EXPECT_FALSE(r.guarantee.empty()) << r.name;
    EXPECT_EQ(r.design_ref.rfind("DESIGN.md", 0), 0u) << r.name;
    EXPECT_EQ(find_rule_info(r.name), &r);
  }
  const RuleInfo* taint = find_rule_info("seed-unkeyed-derivation");
  ASSERT_NE(taint, nullptr);
  EXPECT_NE(taint->design_ref.find("16.2"), std::string_view::npos);
  const RuleInfo* census = find_rule_info("shared-write-outside-owner");
  ASSERT_NE(census, nullptr);
  EXPECT_NE(census->design_ref.find("16.3"), std::string_view::npos);
  EXPECT_EQ(find_rule_info("no-such-rule"), nullptr);
}

// --- tokenizer edge cases --------------------------------------------------

TEST(LintScan, RawStringEdgeCasesDoNotHideFollowingViolations) {
  // FIXTURE_R"..." is a plain string after an identifier that merely ends
  // in R (the old scanner treated it as a raw-string prefix and swallowed
  // everything up to the next parenthesis); R"ab(...)a...)ab" only ends at
  // the full )ab" terminator; digit separators never open char literals.
  const LintResult result = run_lint({scan_fixture(
      "tokenizer_edge.cpp", "src/core/src/tokenizer_edge.cpp")});
  EXPECT_EQ(count_rule(result, "no-random-device"), 1u);
  EXPECT_EQ(count_rule(result, "no-libc-rand"), 1u);
  EXPECT_EQ(result.findings.size(), 2u);

  const Finding* rd = find_rule(result, "no-random-device");
  ASSERT_NE(rd, nullptr);
  EXPECT_EQ(rd->line, 13u);  // the declaration right after FIXTURE_R"..."
  const Finding* lr = find_rule(result, "no-libc-rand");
  ASSERT_NE(lr, nullptr);
  EXPECT_EQ(lr->line, 16u);  // the call right after the raw string
}

// --- semantic pass: seed-flow taint ----------------------------------------

TEST(LintTaint, UnkeyedDerivationAndEscapeFireKeyedFormsStayClean) {
  const LintResult result = run_lint(
      {scan_fixture("seed_taint.cpp", "src/core/src/seed_taint.cpp")});
  EXPECT_EQ(count_rule(result, "seed-unkeyed-derivation"), 1u);
  EXPECT_EQ(count_rule(result, "seed-escapes-funnel"), 1u);
  EXPECT_EQ(result.findings.size(), 2u);

  const Finding* d = find_rule(result, "seed-unkeyed-derivation");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("SplitMix64(sweep_seed)"), std::string::npos);
  const Finding* e = find_rule(result, "seed-escapes-funnel");
  ASSERT_NE(e, nullptr);
  EXPECT_NE(e->message.find("'epoch'"), std::string::npos);
}

TEST(LintTaint, BlessedFunnelFilesMayDeriveFromBareSeeds) {
  // Same content under the rng.cpp funnel path: derivations are sanctioned
  // there, but an escape into a non-seed parameter is still an escape.
  const LintResult result =
      run_lint({scan_fixture("seed_taint.cpp", "src/stats/src/rng.cpp")});
  EXPECT_EQ(count_rule(result, "seed-unkeyed-derivation"), 0u);
  EXPECT_EQ(count_rule(result, "seed-escapes-funnel"), 1u);
}

TEST(LintTaint, TaintRulesAreLibraryOnly) {
  const LintResult result = run_lint(
      {scan_fixture("seed_taint.cpp", "tests/core/seed_taint.cpp")});
  EXPECT_TRUE(result.findings.empty());
}

TEST(LintTaint, EscapeIsDetectedAcrossTranslationUnits) {
  // The declaration of record_epoch lives in the fixture TU; the bare-seed
  // call sits in another file and must still resolve through the corpus
  // call graph.
  const LintResult result = run_lint(
      {scan_fixture("seed_taint.cpp", "src/core/src/seed_taint.cpp"),
       scan_file("src/net/src/user.cpp",
                 "void relay(unsigned long long trial_seed) {\n"
                 "  record_epoch(trial_seed);\n"
                 "}\n")});
  EXPECT_EQ(count_rule(result, "seed-escapes-funnel"), 2u);
  bool cross_tu = false;
  for (const Finding& f : result.findings) {
    if (f.rule == "seed-escapes-funnel" &&
        f.path == "src/net/src/user.cpp") {
      cross_tu = true;
      // the message names the TU that declared the non-seed parameter
      EXPECT_NE(f.message.find("src/core/src/seed_taint.cpp"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(cross_tu);
}

TEST(LintTaint, MergeLoopsMustWalkAscendingOrder) {
  const LintResult result = run_lint(
      {scan_fixture("merge_order.cpp", "src/core/src/merge_order.cpp")});
  EXPECT_EQ(count_rule(result, "merge-not-rank-ordered"), 2u);
  EXPECT_EQ(result.findings.size(), 2u);
  for (const Finding& f : result.findings) {
    EXPECT_NE(f.message.find("reverse"), std::string::npos);
  }
}

// --- semantic pass: concurrency census -------------------------------------

TEST(LintCensus, SecondWriterFlaggedHandoffAndOrderingJustify) {
  const LintResult result =
      run_lint({scan_fixture("census.cpp", "src/net/src/census.cpp")});

  // tail: producer (2 writes) owns it, rogue_reset is the finding. head:
  // consumer owns it and quiesce's write carries a handoff annotation.
  EXPECT_EQ(count_rule(result, "shared-write-outside-owner"), 1u);
  const Finding* w = find_rule(result, "shared-write-outside-owner");
  ASSERT_NE(w, nullptr);
  EXPECT_NE(w->message.find("'tail'"), std::string::npos);
  EXPECT_NE(w->message.find("producer"), std::string::npos);
  EXPECT_NE(w->message.find("rogue_reset"), std::string::npos);

  // observe()'s acquire is justified by ordering(ring-consume); the one in
  // unjustified() is the finding.
  EXPECT_EQ(count_rule(result, "atomic-ordering-unjustified"), 1u);
  const Finding* o = find_rule(result, "atomic-ordering-unjustified");
  ASSERT_NE(o, nullptr);
  EXPECT_EQ(o->line, 39u);

  // Both annotations were consumed, so no bad-suppression noise.
  EXPECT_EQ(count_rule(result, "bad-suppression"), 0u);
  EXPECT_EQ(result.findings.size(), 2u);
}

TEST(LintCensus, CensusIsScopedToNetServeAndStats) {
  // Outside the census scope the same content produces no census findings
  // — and the now-pointless annotations surface as bad-suppression.
  const LintResult result =
      run_lint({scan_fixture("census.cpp", "src/core/src/census.cpp")});
  EXPECT_EQ(count_rule(result, "shared-write-outside-owner"), 0u);
  EXPECT_EQ(count_rule(result, "atomic-ordering-unjustified"), 0u);
  EXPECT_EQ(count_rule(result, "bad-suppression"), 2u);
}

TEST(LintCensus, RemovingTheHandoffReactivatesTheFinding) {
  std::string text = read_fixture("census.cpp");
  const std::size_t at = text.find("dut-lint: handoff");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 8, "disabled");  // same length: line numbers unchanged

  const LintResult result =
      run_lint({scan_file("src/net/src/census.cpp", text)});
  // head now has two writer scopes (consumer and quiesce) and no handoff;
  // scan order makes consumer the owner, so quiesce joins rogue_reset.
  EXPECT_EQ(count_rule(result, "shared-write-outside-owner"), 2u);
}

TEST(LintCensus, UnusedAndMalformedAnnotationsAreFindings) {
  const std::string text =
      "// dut-lint: handoff(tail): justified but covering a plain line\n"
      "int x = 0;\n"
      "// dut-lint: ordering(): missing tag with a long justification\n"
      "int y = 1;\n"
      "// dut-lint: handoff(head): short\n"
      "int z = 2;\n";
  const LintResult result =
      run_lint({scan_file("src/net/src/annot.cpp", text)});
  // one well-formed handoff that covers nothing + one empty argument + one
  // too-short justification
  EXPECT_EQ(count_rule(result, "bad-suppression"), 3u);
  EXPECT_TRUE(result.suppressed.empty());
}

// --- call graph ------------------------------------------------------------

TEST(LintGraph, RecordsDeclsParamsQualifiersAndCallSites) {
  const std::vector<ScannedFile> files = {scan_file(
      "src/core/src/g.cpp",
      "int helper(int value);\n"
      "struct Widget {\n"
      "  void poke(int times);\n"
      "};\n"
      "void Widget::poke(int times) { helper(times + 1); }\n")};
  const CallGraph graph = build_call_graph(files);
  ASSERT_EQ(graph.files.size(), 1u);
  const FileGraph& fg = graph.files[0];

  ASSERT_EQ(fg.decls.size(), 3u);
  EXPECT_EQ(fg.decls[0].name, "helper");
  EXPECT_FALSE(fg.decls[0].is_definition);
  ASSERT_EQ(fg.decls[0].params.size(), 1u);
  EXPECT_EQ(fg.decls[0].params[0], "value");
  EXPECT_EQ(fg.decls[1].name, "poke");
  EXPECT_EQ(fg.decls[1].qualifier, "Widget");
  EXPECT_EQ(fg.decls[2].name, "poke");
  EXPECT_EQ(fg.decls[2].qualifier, "Widget");
  EXPECT_TRUE(fg.decls[2].is_definition);

  ASSERT_EQ(fg.calls.size(), 1u);
  EXPECT_EQ(fg.calls[0].callee, "helper");
  EXPECT_EQ(fg.calls[0].caller, 2);
  ASSERT_EQ(fg.calls[0].args.size(), 1u);

  ASSERT_EQ(graph.by_name.count("helper"), 1u);
  EXPECT_EQ(graph.by_name.find("helper")->second.size(), 1u);
}

}  // namespace
}  // namespace dut::lint
