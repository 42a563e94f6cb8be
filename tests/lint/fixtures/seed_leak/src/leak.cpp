// Mini-repo for the lint_gate_detects_seed_taint ctest: a bare sweep seed
// turned into RNG state outside the blessed derivation funnels. The gate
// must exit 1 on this tree with a [seed-unkeyed-derivation] finding.

#include <cstdint>

std::uint64_t SplitMix64(std::uint64_t x);

std::uint64_t leak_state(std::uint64_t sweep_seed) {
  return SplitMix64(sweep_seed);  // seed-unkeyed-derivation
}
