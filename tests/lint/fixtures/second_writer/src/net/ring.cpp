// Mini-repo for the lint_gate_detects_second_writer ctest: the ring tail
// gains a second writer scope with no handoff annotation, so the census
// must flag it and the gate must exit 1 with a [shared-write-outside-owner]
// finding.

#include <atomic>

struct LeakyRing {
  std::atomic<unsigned> tail{0};
};

void owner_push(LeakyRing& r, unsigned v) {
  r.tail.store(v);
  r.tail.store(v + 1);
}

void rogue_push(LeakyRing& r, unsigned v) {
  r.tail.store(v);
}
