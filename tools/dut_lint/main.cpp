// dut_lint CLI — the review-time gate (registered as the lint_repo ctest
// entry; the lint_gate_detects_* entries run it on fixture mini-repos).
//
//   dut_lint [--root DIR] [--list-rules] [--explain RULE] [paths...]
//
// Scans the given files/directories (default: src bench tests tools
// examples) under --root (default: cwd). Exit code 0 when every finding is
// suppressed in source, 1 when any finding is not, 2 on usage/IO errors —
// among them a missing root, a named path that does not exist, or a scan
// that finds no source file, so a mistyped gate never passes by scanning
// nothing. Default paths missing under a root are skipped.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "dut_lint/lint.hpp"

namespace {

int usage(std::ostream& out, int code) {
  out << "usage: dut_lint [--root DIR] [--list-rules] [--explain RULE] "
         "[paths...]\n";
  return code;
}

/// A usage error: the reason, then the usage text, exit status 2.
int refuse(const std::string& why) {
  std::cerr << "dut_lint: " << why << "\n";
  return usage(std::cerr, 2);
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
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

}  // namespace

int main(int argc, char** argv) {
  using namespace dut::lint;
  namespace fs = std::filesystem;
  fs::path root = fs::current_path();
  std::string explain;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--explain" && i + 1 < argc) {
      explain = argv[++i];
    } else if (arg == "--list-rules") {
      for (const RuleInfo& r : rule_table()) {
        std::cout << r.name << "\n    " << r.summary << "\n    -> "
                  << r.design_ref << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      return usage(std::cout, 0);
    } else if (!arg.empty() && arg[0] == '-') {
      return refuse("unknown option '" + arg + "'");
    } else {
      paths.push_back(arg);
    }
  }

  if (!explain.empty()) return explain_rule(explain);

  try {
    root = fs::absolute(root);
    if (!fs::is_directory(root)) {
      return refuse("root '" + root.string() + "' is not a directory");
    }
    for (const std::string& p : paths) {
      if (!fs::exists(root / p)) {
        return refuse("path '" + p + "' does not exist under " +
                      root.string());
      }
    }
    if (paths.empty()) paths = {"src", "bench", "tests", "tools", "examples"};

    std::vector<ScannedFile> files;
    for (const fs::path& p : collect_sources(root, paths)) {
      files.push_back(scan_file(fs::relative(p, root).generic_string(),
                                read_file(p)));
    }
    if (files.empty()) {
      return refuse("no C++ source file under " + root.string());
    }
    const LintResult result = run_lint(files);
    std::cout << human_report(result);
    return result.findings.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "dut_lint: " << e.what() << "\n";
    return 2;
  }
}
