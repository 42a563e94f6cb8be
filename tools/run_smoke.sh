#!/usr/bin/env bash
# Smoke-runs one experiment binary in a scratch workdir with protocol
# tracing on, then validates everything it emitted:
#   * every BENCH_*.json run report parses and passes schema v1, and
#   * the DUT_TRACE transcript (if the binary ran any engine) recounts to
#     the engine's totals and stays within its declared budget (dut_trace
#     check), cross-checked against the report when there is exactly one.
#
# Usage: run_smoke.sh [--replay] <dut_trace-binary> <workdir> <binary> [args...]
#        run_smoke.sh --detects <text> <binary> [args...]
#        run_smoke.sh --serve <dut_cli-binary>
#        run_smoke.sh --workers <dut_cli-binary>
#        run_smoke.sh --usage-error <binary> [args...]
# Registered per experiment as the smoke_* ctest entries (bench/CMakeLists);
# --replay additionally re-executes the transcript with `dut_trace replay`
# and byte-diffs it (the smoke_replay entries); the --detects mode is the
# lint_gate_detects_* and trace_*_detects_* entries (tools/dut_lint and
# tools/CMakeLists); the --serve and --workers modes are the smoke_serve
# and smoke_cli_workers entries, and --usage-error the *_rejects_* entries
# (tools/CMakeLists).
set -euo pipefail

# Usage-error mode: a malformed command line must be refused with exit
# status 2 and the usage text on stderr. A crash or any other failure would
# also satisfy ctest's WILL_FAIL, so the status and the text are checked.
if [ "${1:-}" = "--usage-error" ]; then
  if [ "$#" -lt 2 ]; then
    echo "usage: $0 --usage-error <binary> [args...]" >&2
    exit 2
  fi
  binary=$2
  shift 2
  status=0
  stderr=$("$binary" "$@" 2>&1 >/dev/null) || status=$?
  if [ "$status" -ne 2 ] || ! grep -q '^usage:' <<<"$stderr"; then
    echo "smoke: expected exit status 2 and the usage text, got status" \
         "$status:" >&2
    echo "$stderr" >&2
    exit 1
  fi
  echo "smoke: refused with the usage text (exit status 2)"
  exit 0
fi

# Serve mode: the `dut_cli serve` output is a pure function of its flags
# except the "timing:" trailer, so a serial single-shard run and an
# 8-thread 4-shard run must print byte-identical reports — per-epoch
# verdict tallies, sample means, latency percentiles and the FNV verdict
# digest all included (DESIGN.md §15's determinism contract, end to end
# through the CLI).
if [ "${1:-}" = "--serve" ]; then
  if [ "$#" -ne 2 ]; then
    echo "usage: $0 --serve <dut_cli-binary>" >&2
    exit 2
  fi
  dut_cli=$2
  flags=(--n 4096 --eps 1.6 --p 0.4 --streams 2048 --zipf 0.99
         --duration-epochs 6)
  # "serve shape:" echoes the shard/thread flags themselves; "timing:" is
  # wall clock. Everything else must match byte for byte.
  serial=$(DUT_THREADS=1 "$dut_cli" serve "${flags[@]}" --shards 1 \
    | grep -v -e '^timing:' -e '^serve shape:')
  sharded=$(DUT_THREADS=8 "$dut_cli" serve "${flags[@]}" --shards 4 \
    | grep -v -e '^timing:' -e '^serve shape:')
  if [ "$serial" != "$sharded" ]; then
    echo "smoke: serve output diverged between 1-thread/1-shard and" \
         "8-thread/4-shard runs" >&2
    diff <(echo "$serial") <(echo "$sharded") >&2 || true
    exit 1
  fi
  echo "$serial" | grep '^verdict digest:'
  echo "smoke: serve verdict stream identical across threads and shards"
  exit 0
fi

# Workers mode: `dut_cli run-congest --workers N` forks N-1 worker ranks
# over an anonymous shm segment (congest::run_congest_uniformity_sharded)
# and must print exactly what the single-process run prints, apart from its
# "sharded over" banner. Both flag sets of the
# cli_run_congest and cli_run_congest_faults entries are checked at 2
# workers, so the resilient protocol's quorum and fault tallies must match
# too. The faults set runs again at 3 workers under a crash plan that stops
# a node on every rank, two of them in one round: the round exchange then
# sums live and crash counts over more than one peer. (Every crashed node's
# ring neighbours share its shard at 2 and 3 ranks, so the drop and dup
# draws stay rank-independent; see DESIGN.md §14.)
if [ "${1:-}" = "--workers" ]; then
  if [ "$#" -ne 2 ]; then
    echo "usage: $0 --workers <dut_cli-binary>" >&2
    exit 2
  fi
  dut_cli=$2
  check_workers() {
    local name=$1
    local workers=$2
    shift 2
    local single sharded
    single=$("$dut_cli" run-congest "$@")
    sharded=$("$dut_cli" run-congest "$@" --workers "$workers" \
      | grep -v '^sharded over')
    if [ "$single" != "$sharded" ]; then
      echo "smoke: run-congest ($name) output diverged under --workers" \
           "$workers" >&2
      diff <(echo "$single") <(echo "$sharded") >&2 || true
      exit 1
    fi
  }
  check_workers plain 2 --n 4096 --k 1024 --eps 1.6 --topology ring \
    --family paninski --trials 5
  check_workers faults 2 --n 4096 --k 1024 --eps 1.6 --topology ring \
    --trials 5 --faults drop=0.02,dup=0.01,crash=3@0 --quorum 1000
  # Ranks at 3 workers: [0, 342), [342, 683), [683, 1024).
  check_workers faults 3 --n 4096 --k 1024 --eps 1.6 --topology ring \
    --trials 5 --faults drop=0.02,dup=0.01,crash=3@0+400@5+800@5 \
    --quorum 1000
  echo "smoke: run-congest output identical with and without --workers 2" \
       "and 3"
  exit 0
fi

# Detects mode: a checker run on a fixture with one planted fault must fail
# for that reason: exit status 1 (a finding; 2 is a usage or IO error) with
# the expected text in its output. A crash or a missing fixture would also
# satisfy WILL_FAIL, so the status and the text are checked.
if [ "${1:-}" = "--detects" ]; then
  if [ "$#" -lt 3 ]; then
    echo "usage: $0 --detects <text> <binary> [args...]" >&2
    exit 2
  fi
  text=$2
  binary=$3
  shift 3
  status=0
  output=$("$binary" "$@" 2>&1) || status=$?
  if [ "$status" -ne 1 ] || ! grep -qF -- "$text" <<<"$output"; then
    echo "smoke: expected exit status 1 and \"$text\" in the output, got" \
         "status $status:" >&2
    echo "$output" >&2
    exit 1
  fi
  echo "smoke: failed on the planted fault: $text"
  exit 0
fi

replay=0
if [ "${1:-}" = "--replay" ]; then
  replay=1
  shift
fi

if [ "$#" -lt 3 ]; then
  echo "usage: $0 [--replay] <dut_trace-binary> <workdir> <binary>" \
       "[args...]" >&2
  exit 2
fi

dut_trace=$1
workdir=$2
binary=$3
shift 3

rm -rf "$workdir"
mkdir -p "$workdir"
cd "$workdir"

export DUT_TRACE="$workdir/trace.jsonl"
"$binary" "$@"

reports=()
for report in BENCH_*.json; do
  [ -e "$report" ] || continue
  reports+=("$report")
  "$dut_trace" check-report "$report"
done
if [ "${#reports[@]}" -eq 0 ]; then
  echo "smoke: $binary wrote no BENCH_*.json report" >&2
  exit 1
fi

# Binaries that never construct a network engine legitimately leave no
# transcript; when one exists it must check out — against the binary's one
# report when it wrote exactly one — and, in --replay mode, re-execute
# byte-identically from its run_start replay preambles.
if [ -s "$DUT_TRACE" ]; then
  check_args=("$DUT_TRACE")
  if [ "${#reports[@]}" -eq 1 ]; then
    check_args+=(--report "${reports[0]}")
  fi
  "$dut_trace" check "${check_args[@]}"
  if [ "$replay" -eq 1 ]; then
    trace_file="$DUT_TRACE"
    unset DUT_TRACE
    "$dut_trace" replay "$trace_file"
  fi
fi
