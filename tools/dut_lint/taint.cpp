// Seed-flow taint pass (DESIGN.md §16.2). The determinism contract says a
// raw sweep seed may become RNG state only inside the blessed derivation
// funnels (stats::derive_stream and the engine/fault/serve fan-outs that
// call it); everywhere else a seed must be *keyed* — mixed with trial /
// round / edge / stream context — before re-derivation, and merge loops
// that fold per-rank or per-stream results must walk ascending order so
// floating-point and tally accumulation is bit-identical everywhere.
//
// Three rules, all cross-checked against the declaration call graph:
//   seed-unkeyed-derivation  RNG state (SplitMix64 / Xoshiro256) built from
//                            a single bare seed-like identifier outside the
//                            funnels. `SplitMix64(seed ^ r)` is keyed; bare
//                            `SplitMix64(seed)` is the bug.
//   seed-escapes-funnel      a bare seed-like identifier passed into a
//                            callee position whose declared parameter (in
//                            every declaration of that name, corpus-wide)
//                            is not itself seed-like — the seed leaves the
//                            funnel under a non-seed name and the next
//                            reader cannot tell it must be keyed.
//   merge-not-rank-ordered   a loop that iterates in reverse (`--`, rbegin/
//                            rend) around a merge/absorb call — rank-order
//                            merges must ascend.
//
// The pass is deliberately lenient at the edges: unknown callees, unnamed
// parameters and variadic positions never fire. A seed that is *expressed*
// (`seed ^ r`, `derive(seed, t)`) is already keyed or funneled and is fine.

#include <algorithm>
#include <cctype>
#include <set>

#include "dut_lint/lint.hpp"

namespace dut::lint {

namespace {

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool seed_like(std::string_view name) {
  const std::string l = lower(name);
  return l.find("seed") != std::string::npos ||
         l.find("salt") != std::string::npos;
}

/// Files allowed to turn a bare seed into RNG state: the derivation funnel
/// itself plus the engine trial fan-out, FaultPlan counter draws and
/// serve::plan_stream — the places DESIGN.md names as seed origins.
bool blessed_funnel(std::string_view path) {
  static const std::set<std::string, std::less<>> kFunnels = {
      "src/stats/include/dut/stats/rng.hpp",
      "src/stats/src/rng.cpp",
      "src/stats/include/dut/stats/engine.hpp",
      "src/stats/src/engine.cpp",
      "src/net/src/engine.cpp",
      "src/net/src/fault.cpp",
      "src/serve/src/sequential_collision.cpp",
  };
  return kFunnels.count(path) > 0;
}

/// Functions that accept a bare seed by design: the funnel entry points.
bool funnel_callee(std::string_view name) {
  return name == "derive_stream" || name == "SplitMix64" ||
         name == "Xoshiro256";
}

/// True when the argument range is exactly one bare seed-like identifier.
/// Any expression (`seed ^ r`, `ctx.seed`, `derive(seed)`) is multi-token
/// and therefore keyed or funneled on its own terms.
bool bare_seed_arg(const std::vector<Token>& toks,
                   std::pair<std::size_t, std::size_t> range) {
  if (range.second != range.first + 1) return false;
  const Token& t = toks[range.first];
  return t.is_ident && seed_like(t.text);
}

/// Index of the token after the `}` matching the `{` at `open` (or after
/// the `;` ending a single statement when `open` is not a brace).
std::size_t body_end(const std::vector<Token>& toks, std::size_t open) {
  if (open >= toks.size()) return toks.size();
  if (toks[open].text != "{") {
    for (std::size_t i = open; i < toks.size(); ++i) {
      if (toks[i].text == ";") return i + 1;
    }
    return toks.size();
  }
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == "{") ++depth;
    if (toks[i].text == "}" && --depth == 0) return i + 1;
  }
  return toks.size();
}

std::size_t matching_close(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == "(") ++depth;
    if (toks[i].text == ")" && --depth == 0) return i;
  }
  return toks.size();
}

void check_derivations(const ScannedFile& file, const FileGraph& fg,
                       std::vector<Finding>& out) {
  if (blessed_funnel(file.path)) return;
  const std::vector<Token>& toks = file.tokens;
  for (const CallSite& call : fg.calls) {
    if (call.callee != "SplitMix64" && call.callee != "Xoshiro256") continue;
    if (call.args.size() != 1 || !bare_seed_arg(toks, call.args[0])) continue;
    Finding f;
    f.rule = "seed-unkeyed-derivation";
    f.path = file.path;
    f.line = call.line;
    f.message = call.callee + "(" + toks[call.args[0].first].text +
                ") builds RNG state from a bare seed outside the blessed "
                "funnels; key it with trial/round/edge/stream context "
                "(e.g. derive_stream) first";
    f.excerpt = file.excerpt(call.line);
    out.push_back(std::move(f));
  }
}

void check_escapes(const ScannedFile& file, const CallGraph& graph,
                   const FileGraph& fg, std::vector<Finding>& out) {
  const std::vector<Token>& toks = file.tokens;
  for (const CallSite& call : fg.calls) {
    if (funnel_callee(call.callee) || seed_like(call.callee)) continue;
    auto it = graph.by_name.find(call.callee);
    if (it == graph.by_name.end()) continue;  // unknown callee: lenient
    for (std::size_t k = 0; k < call.args.size(); ++k) {
      if (!bare_seed_arg(toks, call.args[k])) continue;
      // Fire only when *every* declaration of this name declares position k
      // with a known, non-seed-like parameter name. One seed-like or
      // unnamed declaration anywhere gives the call the benefit of doubt.
      bool all_reject = true;
      for (const FunctionDecl* decl : it->second) {
        if (decl->params.size() <= k || decl->params[k].empty() ||
            seed_like(decl->params[k])) {
          all_reject = false;
          break;
        }
      }
      if (!all_reject) continue;
      const FunctionDecl* decl = it->second.front();
      Finding f;
      f.rule = "seed-escapes-funnel";
      f.path = file.path;
      f.line = call.line;
      f.message = "bare seed '" + toks[call.args[k].first].text +
                  "' passed to " + call.callee + "() parameter '" +
                  decl->params[k] + "' (" + decl->path +
                  "): the seed escapes the derivation funnel under a "
                  "non-seed name";
      f.excerpt = file.excerpt(call.line);
      out.push_back(std::move(f));
    }
  }
}

void check_merge_order(const ScannedFile& file, std::vector<Finding>& out) {
  const std::vector<Token>& toks = file.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!toks[i].is_ident || toks[i].text != "for") continue;
    if (toks[i + 1].text != "(") continue;
    const std::size_t open = i + 1;
    const std::size_t close = matching_close(toks, open);
    if (close >= toks.size()) continue;
    bool reversed = false;
    for (std::size_t j = open + 1; j < close; ++j) {
      const std::string& t = toks[j].text;
      if (t == "--" || (t == "-" && j + 1 < close && toks[j + 1].text == "-")) {
        reversed = true;
      }
      if (toks[j].is_ident &&
          (t == "rbegin" || t == "rend" || t == "crbegin" || t == "crend")) {
        reversed = true;
      }
    }
    if (!reversed) continue;
    const std::size_t end = body_end(toks, close + 1);
    for (std::size_t j = close + 1; j + 1 < end; ++j) {
      if (!toks[j].is_ident || toks[j + 1].text != "(") continue;
      const std::string l = lower(toks[j].text);
      if (l.find("merge") == std::string::npos &&
          l.find("absorb") == std::string::npos) {
        continue;
      }
      Finding f;
      f.rule = "merge-not-rank-ordered";
      f.path = file.path;
      f.line = toks[j].line;
      f.message = toks[j].text +
                  "() called from a loop iterating in reverse; rank-order "
                  "merges must walk ascending (rank, shard, stream) order "
                  "for bit-identical accumulation";
      f.excerpt = file.excerpt(toks[j].line);
      out.push_back(std::move(f));
      break;  // one finding per loop
    }
  }
}

}  // namespace

void run_taint_rules(const ScannedFile& file, const CallGraph& graph,
                     const FileGraph& fg, std::vector<Finding>& out) {
  if (file.cls != FileClass::kLibrary && file.cls != FileClass::kObs) return;
  check_derivations(file, fg, out);
  check_escapes(file, graph, fg, out);
  check_merge_order(file, out);
}

}  // namespace dut::lint
