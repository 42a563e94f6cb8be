// Compile-must-fail probe for the verdict contract (DESIGN.md §12). It
// discards one value of DUT_DISCARDED_TYPE, a verdict-carrying type declared
// `struct [[nodiscard]]`; under the build's -Werror=unused-result that is a
// hard error naming the type. The compile_fails_discarding_* ctest entries
// build it once per type and pass only on that diagnostic. Should the
// attribute go, this compiles cleanly and the entry fails.

#include "dut/congest/uniformity.hpp"
#include "dut/core/verdict.hpp"
#include "dut/local/tester.hpp"

namespace {

template <typename T>
T produce() {
  return T{};
}

}  // namespace

int discard_one_value() {
  produce<DUT_DISCARDED_TYPE>();
  return 0;
}
