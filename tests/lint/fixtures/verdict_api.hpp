// Lint fixture: verdict-carrying types. Scanned as a src/ public header by
// lint_test.cpp; never compiled.

namespace fixture {

struct Verdict {  // -> verdict-nodiscard
  bool accepts = true;
};

// A *Result type qualifies because it carries a Verdict member.
struct TrialResult {  // -> verdict-nodiscard
  Verdict verdict;
  unsigned long rounds = 0;
};

// The type-level attribute: the compiler refuses every discarded value.
struct [[nodiscard]] AnytimeResult {
  Verdict verdict;
  unsigned long samples = 0;
};

// A *Result type without a Verdict member carries no verdict.
struct PackagingResult {
  unsigned long packages = 0;
};

// A forward declaration and a function-level attribute do not count: the
// definition must carry the attribute for every producer to be covered.
struct EpochScanResult;
[[nodiscard]] EpochScanResult close_fixture_epoch(int epoch);

struct EpochScanResult {  // -> verdict-nodiscard
  Verdict verdict;
};

}  // namespace fixture
