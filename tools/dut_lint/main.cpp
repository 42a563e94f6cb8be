// dut_lint CLI — the review-time gate (registered as the lint_repo,
// lint_repo_sarif and smoke_lint ctest entries).
//
//   dut_lint [--root DIR] [--baseline FILE] [--write-baseline] [--json]
//            [--sarif FILE] [--list-rules] [--explain RULE]
//            [--validate-sarif FILE] [paths...]
//
// Scans the given files/directories (default: src bench tests tools
// examples) under --root (default: cwd). Exit code 0 when every finding is
// suppressed or baselined, 1 when new findings exist, 2 on usage/IO errors.
//
// --validate-sarif FILE structurally checks a SARIF 2.1.0 log and exits.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "dut_lint/lint.hpp"

namespace {

int usage(std::ostream& out, int code) {
  out << "usage: dut_lint [--root DIR] [--baseline FILE] [--write-baseline]\n"
         "                [--json] [--sarif FILE]\n"
         "                [--list-rules] [--explain RULE]\n"
         "                [--validate-sarif FILE] [paths...]\n";
  return code;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string rel_to(const std::filesystem::path& root,
                   const std::filesystem::path& p) {
  return std::filesystem::relative(p, root).generic_string();
}

int explain_rule(const std::string& name) {
  using dut::lint::RuleInfo;
  const RuleInfo* info = dut::lint::find_rule_info(name);
  if (info == nullptr) {
    std::cerr << "dut_lint: unknown rule '" << name
              << "' (see --list-rules)\n";
    return 2;
  }
  std::cout << info->name << "\n\n  what:      " << info->summary
            << "\n  protects:  " << info->guarantee
            << "\n  reference: " << info->design_ref << "\n";
  return 0;
}

int validate_sarif_file(const std::string& path) {
  const std::vector<std::string> errors =
      dut::lint::sarif_validate(read_file(path));
  for (const std::string& e : errors) {
    std::cerr << "dut_lint: sarif: " << e << "\n";
  }
  if (errors.empty()) {
    std::cout << "dut_lint: " << path << " is structurally valid SARIF "
              << "2.1.0\n";
    return 0;
  }
  std::cerr << "dut_lint: " << path << ": " << errors.size()
            << " schema violation" << (errors.size() == 1 ? "" : "s") << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dut::lint;
  std::filesystem::path root = std::filesystem::current_path();
  std::string baseline_path;
  std::string sarif_path;
  std::string validate_path;
  std::string explain;
  bool write_baseline = false;
  bool json_output = false;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg == "--validate-sarif" && i + 1 < argc) {
      validate_path = argv[++i];
    } else if (arg == "--explain" && i + 1 < argc) {
      explain = argv[++i];
    } else if (arg == "--write-baseline") {
      write_baseline = true;
    } else if (arg == "--json") {
      json_output = true;
    } else if (arg == "--list-rules") {
      for (const RuleInfo& r : rule_table()) {
        std::cout << r.name << "\n    " << r.summary << "\n    -> "
                  << r.design_ref << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "dut_lint: unknown option '" << arg << "'\n";
      return usage(std::cerr, 2);
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    paths = {"src", "bench", "tests", "tools", "examples"};
  }

  try {
    if (!explain.empty()) return explain_rule(explain);
    if (!validate_path.empty()) return validate_sarif_file(validate_path);

    root = std::filesystem::absolute(root);
    std::vector<ScannedFile> files;
    for (const std::filesystem::path& p : collect_sources(root, paths)) {
      files.push_back(scan_file(rel_to(root, p), read_file(p)));
    }
    const LintResult result = run_lint(files);

    std::vector<BaselineEntry> baseline;
    if (!baseline_path.empty() && !write_baseline) {
      if (std::filesystem::exists(baseline_path)) {
        baseline = parse_baseline(read_file(baseline_path));
      } else {
        std::cerr << "dut_lint: baseline file '" << baseline_path
                  << "' not found (treating as empty)\n";
      }
    }
    const BaselineDiff diff = diff_baseline(result.findings, baseline);

    if (write_baseline) {
      if (baseline_path.empty()) {
        std::cerr << "dut_lint: --write-baseline needs --baseline FILE\n";
        return 2;
      }
      // Stale entries in the previous baseline are pruned by construction
      // (the file is rewritten from live findings); count them for the log.
      std::size_t pruned = 0;
      if (std::filesystem::exists(baseline_path)) {
        const auto old = parse_baseline(read_file(baseline_path));
        pruned = diff_baseline(result.findings, old).stale.size();
      }
      std::vector<BaselineEntry> refused;
      const std::vector<Finding> eligible =
          baselineable_findings(result, &refused);
      std::ofstream out(baseline_path, std::ios::binary);
      out << baseline_json(eligible);
      if (!out) {
        std::cerr << "dut_lint: cannot write " << baseline_path << "\n";
        return 2;
      }
      for (const BaselineEntry& r : refused) {
        std::cerr << "dut_lint: refused baseline entry [" << r.rule << "] "
                  << r.path << " '" << r.excerpt
                  << "': a suppressed finding shares this key (fix or widen "
                     "the suppression instead of baselining)\n";
      }
      std::cout << "dut_lint: wrote " << eligible.size() << " entries to "
                << baseline_path << " (" << refused.size() << " refused, "
                << pruned << " stale pruned)\n";
      return 0;
    }

    if (!sarif_path.empty()) {
      std::ofstream out(sarif_path, std::ios::binary);
      out << sarif_report(result, diff);
      if (!out) {
        std::cerr << "dut_lint: cannot write " << sarif_path << "\n";
        return 2;
      }
    }

    if (json_output) {
      std::cout << result_json(result, diff);
    } else {
      std::cout << human_report(result, diff);
    }
    return diff.fresh.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "dut_lint: " << e.what() << "\n";
    return 2;
  }
}
