// The gate's report: every unsuppressed finding with its source line, then
// one summary line.

#include <sstream>

#include "dut_lint/lint.hpp"

namespace dut::lint {

std::string human_report(const LintResult& result) {
  std::ostringstream out;
  for (const Finding& f : result.findings) {
    out << f.path << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
    if (!f.excerpt.empty()) out << "    " << f.excerpt << "\n";
  }
  out << "dut_lint: " << result.findings.size() << " finding"
      << (result.findings.size() == 1 ? "" : "s") << " ("
      << result.suppressed.size() << " suppressed) across "
      << result.files_scanned << " files\n";
  return out.str();
}

}  // namespace dut::lint
