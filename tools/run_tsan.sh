#!/usr/bin/env bash
# Race-checks the parallel Monte-Carlo engine and the observability layer:
# builds the stats + core + obs + net test binaries (and the traced
# experiments) under ThreadSanitizer, then runs them with a worker pool
# large enough to exercise every chunk-handoff path even on small CI
# machines. Tracing is exercised concurrently: DUT_TRACE points every
# parallel trial's engine at one transcript file, so the writer's
# process-wide lock and the lock-free metrics registry both get contended.
# dut_net_tests includes the ShmSession suites, whose thread-based
# participants contend on the session's lockstep atomics (exchange parity
# buffers, trial mailbox, rings) — the shm transport's synchronization
# primitives under TSan; e16_transport then drives the forked multi-process
# backend end to end with a traced, merged 2-rank trial.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset tsan -DDUT_BUILD_BENCH=ON
cmake --build --preset tsan -j "$(nproc)" \
  --target dut_stats_tests dut_core_tests dut_obs_tests dut_net_tests \
           dut_serve_tests dut_integration_tests e7_token_packaging \
           e8_congest e9_local e15_fault_tolerance e16_transport e17_serve \
           dut_trace dut_lint

export DUT_THREADS="${DUT_THREADS:-8}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"

echo "== dut_obs_tests (DUT_THREADS=${DUT_THREADS}) =="
./build-tsan/tests/dut_obs_tests

echo "== dut_stats_tests (DUT_THREADS=${DUT_THREADS}) =="
./build-tsan/tests/dut_stats_tests

echo "== dut_core_tests engine-facing slices (DUT_THREADS=${DUT_THREADS}) =="
./build-tsan/tests/dut_core_tests \
  --gtest_filter='CollisionKernel*:AliasSampler*:GapTester*'

echo "== dut_net_tests engine + tracing (DUT_THREADS=${DUT_THREADS}) =="
./build-tsan/tests/dut_net_tests

echo "== dut_integration_tests trial-parallel determinism (DUT_THREADS=${DUT_THREADS}) =="
./build-tsan/tests/dut_integration_tests --gtest_filter='NetTrials*'

# The verdict service fans each epoch's shards over a private worker pool
# (shared-nothing by construction); the determinism gate cases force the
# thread x shard matrix through the contended pool under TSan.
echo "== dut_serve_tests shard fan-out (DUT_THREADS=${DUT_THREADS}) =="
./build-tsan/tests/dut_serve_tests

# The network experiments fan trials over the worker pool with one
# designated traced trial each; every transcript and run report must
# validate even when the traced trial lands on a contended worker. E15 runs
# the fault-injection sweeps, so the deferred-delivery slab, crash
# schedule and fault-event tracing all get exercised under contention too.
# E16 runs the multi-process shm transport (forked single-threaded rank
# children over the shared session) and validates the merged transcript.
# run_smoke.sh makes the same dut_trace calls as the smoke_* entries:
# check-report on the report, check on the transcript against it.
tsan_trace_dir=$(mktemp -d)
trap 'rm -rf "$tsan_trace_dir"' EXIT
# E17 drives the sharded verdict service's epoch loop (the one engine-free
# bench here: no transcript, but its run report must still validate).
for exp in e7_token_packaging e8_congest e9_local e15_fault_tolerance \
           e16_transport e17_serve; do
  echo "== traced $exp quick run (DUT_THREADS=${DUT_THREADS}, DUT_TRACE on) =="
  bash tools/run_smoke.sh "$PWD/build-tsan/tools/dut_trace" \
    "$tsan_trace_dir/$exp" "$PWD/build-tsan/bench/$exp" --quick > /dev/null
done

# The single-writer census (dut_lint) and TSan must agree: the schedules
# above just ran race-free, so the structural census over the same sources
# must come back clean too. A fresh census finding here means an ownership
# or ordering change landed without its handoff/ordering annotation — fail
# loudly instead of letting the dynamic and static checks drift apart.
echo "== dut_lint concurrency census vs TSan =="
if ! ./build-tsan/tools/dut_lint/dut_lint --root . src/net src/serve src/stats; then
  echo "tsan: dut_lint census disagrees with TSan (fresh findings above):" \
       "a shared-write or ordering change landed without its annotation" >&2
  exit 1
fi

echo "tsan: all engine + observability checks passed"
