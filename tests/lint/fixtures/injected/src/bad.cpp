// Intentional violation: the lint_gate_detects_injection ctest points
// dut_lint at this mini-repo and requires exit status 1 with a
// [no-random-device] finding.

#include <random>

int main() {
  std::random_device rd;
  return static_cast<int>(rd() % 2);
}
