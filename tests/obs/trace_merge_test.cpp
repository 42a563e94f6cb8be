// merge_trace_shards: splices per-rank JSONL transcript shards back into
// the single global transcript, verifying the shared lines (run_start,
// round markers, run_end) agree across ranks.

#include "dut/obs/trace_merge.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace dut::obs {
namespace {

std::string shard_path(const std::string& base, std::uint32_t rank) {
  return base + ".rank" + std::to_string(rank);
}

void write_lines(const std::string& path,
                 const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  for (const std::string& line : lines) out << line << '\n';
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

const std::string kRunStart =
    R"({"ev":"run_start","schema":1,"model":"congest","nodes":4,"seed":1,"level":2})";
const std::string kMarker0 = R"({"ev":"round","round":0,"active":4})";
const std::string kMarker1 = R"({"ev":"round","round":1,"active":4})";
const std::string kRunEnd =
    R"({"ev":"run_end","rounds":2,"messages":2,"total_bits":16,"max_message_bits":8})";

class TraceMerge : public ::testing::Test {
 protected:
  // Per-process names: ctest runs every case as its own process, in
  // parallel, and a shared base would let one case clobber another's
  // shards.
  void SetUp() override {
    base_ = testing::TempDir() + "trace_merge_test_" +
            std::to_string(::getpid()) + ".jsonl";
    remove_files();
  }
  void TearDown() override { remove_files(); }

  void remove_files() const {
    std::remove(base_.c_str());
    for (std::uint32_t r = 0; r < 4; ++r) {
      std::remove(shard_path(base_, r).c_str());
    }
  }

  std::string base_;
};

TEST_F(TraceMerge, SplicesRoundsInRankOrder) {
  write_lines(shard_path(base_, 0),
              {kRunStart, kMarker0,
               R"({"ev":"send","round":0,"from":0,"to":2,"bits":8})",
               kMarker1,
               R"({"ev":"deliver","round":1,"from":3,"to":0,"bits":8})",
               R"({"ev":"halt","round":1,"node":0})",
               R"({"ev":"halt","round":1,"node":1})", kRunEnd});
  write_lines(shard_path(base_, 1),
              {kRunStart, kMarker0,
               R"({"ev":"send","round":0,"from":3,"to":0,"bits":8})",
               kMarker1,
               R"({"ev":"deliver","round":1,"from":0,"to":2,"bits":8})",
               R"({"ev":"halt","round":1,"node":2})",
               R"({"ev":"halt","round":1,"node":3})", kRunEnd});

  ASSERT_EQ(merge_trace_shards(base_, 2), 1u);

  EXPECT_EQ(slurp(base_),
            joined({kRunStart, kMarker0,
                    R"({"ev":"send","round":0,"from":0,"to":2,"bits":8})",
                    R"({"ev":"send","round":0,"from":3,"to":0,"bits":8})",
                    kMarker1,
                    R"({"ev":"deliver","round":1,"from":3,"to":0,"bits":8})",
                    R"({"ev":"deliver","round":1,"from":0,"to":2,"bits":8})",
                    R"({"ev":"halt","round":1,"node":0})",
                    R"({"ev":"halt","round":1,"node":1})",
                    R"({"ev":"halt","round":1,"node":2})",
                    R"({"ev":"halt","round":1,"node":3})", kRunEnd}));

  // The shard files were consumed.
  EXPECT_TRUE(slurp(shard_path(base_, 0)).empty());
  EXPECT_TRUE(slurp(shard_path(base_, 1)).empty());
}

TEST_F(TraceMerge, PreMarkerLinesSpliceBeforeTheirRound) {
  // A crash fault for round 1 is emitted before round 1's marker; it must
  // land between marker 0's execution block and marker 1, in rank order.
  const std::string crash0 =
      R"({"ev":"fault","kind":"crash","round":1,"node":1})";
  const std::string crash1 =
      R"({"ev":"fault","kind":"crash","round":1,"node":3})";
  write_lines(shard_path(base_, 0),
              {kRunStart, kMarker0,
               R"({"ev":"send","round":0,"from":0,"to":2,"bits":8})", crash0,
               kMarker1, kRunEnd});
  write_lines(shard_path(base_, 1),
              {kRunStart, kMarker0, crash1, kMarker1,
               R"({"ev":"halt","round":1,"node":3})", kRunEnd});

  ASSERT_EQ(merge_trace_shards(base_, 2), 1u);
  EXPECT_EQ(slurp(base_),
            joined({kRunStart, kMarker0,
                    R"({"ev":"send","round":0,"from":0,"to":2,"bits":8})",
                    crash0, crash1, kMarker1,
                    R"({"ev":"halt","round":1,"node":3})", kRunEnd}));
}

TEST_F(TraceMerge, MergesMultipleRunsAndKeepsShardsOnRequest) {
  const std::vector<std::string> run = {kRunStart, kMarker0, kRunEnd};
  write_lines(shard_path(base_, 0), {kRunStart, kMarker0, kRunEnd,
                                     kRunStart, kMarker0, kRunEnd});
  write_lines(shard_path(base_, 1), {kRunStart, kMarker0, kRunEnd,
                                     kRunStart, kMarker0, kRunEnd});
  ASSERT_EQ(merge_trace_shards(base_, 2, /*keep_shards=*/true), 2u);
  EXPECT_EQ(slurp(base_), joined(run) + joined(run));
  EXPECT_FALSE(slurp(shard_path(base_, 0)).empty());
}

TEST_F(TraceMerge, RejectsDivergingSharedLines) {
  // A rank that disagrees on a round marker (different active count) means
  // the determinism contract broke; the merge must refuse, not guess.
  write_lines(shard_path(base_, 0), {kRunStart, kMarker0, kRunEnd});
  write_lines(shard_path(base_, 1),
              {kRunStart, R"({"ev":"round","round":0,"active":3})", kRunEnd});
  EXPECT_THROW(merge_trace_shards(base_, 2), std::runtime_error);

  write_lines(shard_path(base_, 0), {kRunStart, kMarker0, kRunEnd});
  write_lines(
      shard_path(base_, 1),
      {R"({"ev":"run_start","schema":1,"model":"congest","nodes":4,"seed":2,"level":2})",
       kMarker0, kRunEnd});
  EXPECT_THROW(merge_trace_shards(base_, 2), std::runtime_error);
}

TEST_F(TraceMerge, RejectsMissingShardAndRunCountMismatch) {
  write_lines(shard_path(base_, 0), {kRunStart, kMarker0, kRunEnd});
  EXPECT_THROW(merge_trace_shards(base_, 2), std::runtime_error);

  write_lines(shard_path(base_, 1),
              {kRunStart, kMarker0, kRunEnd, kRunStart, kMarker0, kRunEnd});
  EXPECT_THROW(merge_trace_shards(base_, 2), std::runtime_error);

  EXPECT_THROW(merge_trace_shards(base_, 0), std::invalid_argument);
}

}  // namespace
}  // namespace dut::obs
