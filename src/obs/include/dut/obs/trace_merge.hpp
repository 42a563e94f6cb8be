#pragma once

// Merging per-rank JSONL trace shards back into one transcript.
//
// A sharded run (ShmTransport) writes one trace file per rank,
// `<base>.rank0` .. `<base>.rank<N-1>`: every rank logs the shared round
// markers plus the events of its own node shard. Because shards are
// contiguous ascending id ranges and each rank executes its nodes in id
// order, splicing the shards back together in rank order reproduces the
// transcript an in-process run of the same seed writes — byte for byte for
// strict runs, so every `dut_trace` subcommand, replay included, works on
// merged transcripts unchanged. (Fault-mode caveat, DESIGN.md §14: expire events for cross-rank
// sends to halted nodes land one round later than in-process.)
//
// Per run, the merged line order is:
//   run_start                       (identical on every rank; verified)
//   for each round R:
//     pre-marker lines              (crash faults/halts; rank order — the
//                                    crash schedule is (round, node)-sorted
//                                    so this equals global node order)
//     round marker                  (identical on every rank; verified)
//     deliver lines                 (level 2 only; rank order)
//     execution lines               (sends/faults/halts; rank order)
//   post-loop lines                 (quiescence/budget violations)
//   run_end                         (identical on every rank; verified)

#include <cstddef>
#include <cstdint>
#include <string>

namespace dut::obs {

/// Merges `<base>.rank0` .. `<base>.rank<num_ranks-1>` into `<base>`
/// (appending, like the tracing engine itself) and removes the shard files
/// unless `keep_shards`. Returns the number of runs merged. Throws
/// std::runtime_error on missing shards, mismatched run/round structure, or
/// ranks disagreeing on a shared line (run_start, round marker, run_end) —
/// any of which means the determinism contract was broken.
std::size_t merge_trace_shards(const std::string& base_path,
                               std::uint32_t num_ranks,
                               bool keep_shards = false);

}  // namespace dut::obs
