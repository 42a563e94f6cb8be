#include "dut/obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>

#include "dut/obs/trace_reader.hpp"

namespace dut::obs {
namespace {

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

TraceRunInfo congest_info(std::uint32_t nodes, std::uint64_t bandwidth) {
  TraceRunInfo info;
  info.model = "congest";
  info.nodes = nodes;
  info.bandwidth_bits = bandwidth;
  info.max_rounds = 100;
  info.seed = 42;
  return info;
}

TEST(JsonlTraceWriter, StreamModeRoundTripsThroughReader) {
  const std::string path = temp_path("trace_stream.jsonl");
  std::remove(path.c_str());
  {
    JsonlTraceWriter writer(path);
    writer.on_run_start(congest_info(3, 8));
    writer.on_round(0, 3);
    writer.on_send(0, 0, 1, 5);
    writer.on_send(0, 2, 1, 8);
    writer.on_round(1, 3);
    writer.on_halt(1, 0);
    writer.on_halt(1, 1);
    writer.on_halt(1, 2);
    writer.on_run_end(TraceRunTotals{2, 2, 13, 8});
  }
  const auto runs = read_trace_file(path);
  ASSERT_EQ(runs.size(), 1u);
  const TraceRunSummary& run = runs[0];
  EXPECT_EQ(run.info.model, "congest");
  EXPECT_EQ(run.info.nodes, 3u);
  EXPECT_EQ(run.info.bandwidth_bits, 8u);
  EXPECT_EQ(run.info.seed, 42u);
  EXPECT_EQ(run.rounds_seen, 2u);
  EXPECT_EQ(run.messages, 2u);
  EXPECT_EQ(run.total_bits, 13u);
  EXPECT_EQ(run.max_message_bits, 8u);
  EXPECT_EQ(run.halts, 3u);
  EXPECT_EQ(run.over_budget_sends, 0u);
  ASSERT_EQ(run.per_node_sent_bits.size(), 3u);
  EXPECT_EQ(run.per_node_sent_bits[0], 5u);
  EXPECT_EQ(run.per_node_sent_bits[1], 0u);
  EXPECT_EQ(run.per_node_sent_bits[2], 8u);
  EXPECT_TRUE(run.has_end);
  EXPECT_FALSE(run.truncated_tail);
  EXPECT_TRUE(run.consistent());
}

TEST(JsonlTraceWriter, RecountMismatchIsNotConsistent) {
  const std::string path = temp_path("trace_mismatch.jsonl");
  std::remove(path.c_str());
  {
    JsonlTraceWriter writer(path);
    writer.on_run_start(congest_info(2, 8));
    writer.on_round(0, 2);
    writer.on_send(0, 0, 1, 4);
    writer.on_run_end(TraceRunTotals{1, 5, 99, 4});  // wrong totals
  }
  const auto runs = read_trace_file(path);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs[0].has_end);
  EXPECT_FALSE(runs[0].consistent());
}

TEST(JsonlTraceWriter, ViolationAndOverBudgetSendsAreRecorded) {
  const std::string path = temp_path("trace_violation.jsonl");
  std::remove(path.c_str());
  {
    JsonlTraceWriter writer(path);
    writer.on_run_start(congest_info(2, 8));
    writer.on_round(0, 2);
    writer.on_send(0, 0, 1, 4);
    writer.on_send(0, 0, 1, 4);  // the same directed edge again this round
    writer.on_send(0, 1, 0, 4);
    writer.on_round(1, 2);
    writer.on_deliver(1, 0, 1, 4);
    writer.on_send(1, 0, 1, 9);  // a new round; beyond the 8-bit budget
    writer.on_violation(1, "bandwidth", "9 bits > 8 on edge 0->1");
    // No run_end: the engine threw.
  }
  const auto runs = read_trace_file(path);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].over_budget_sends, 1u);
  EXPECT_EQ(runs[0].duplicate_sends, 1u);
  EXPECT_EQ(runs[0].delivers, 1u);
  ASSERT_EQ(runs[0].violations.size(), 1u);
  EXPECT_NE(runs[0].violations[0].find("bandwidth"), std::string::npos);
  EXPECT_FALSE(runs[0].has_end);
  EXPECT_FALSE(runs[0].consistent());
}

TEST(JsonlTraceWriter, AppendedRunsSplitIntoSummaries) {
  const std::string path = temp_path("trace_multi.jsonl");
  std::remove(path.c_str());
  for (std::uint64_t seed : {1u, 2u}) {
    JsonlTraceWriter writer(path);
    TraceRunInfo info = congest_info(2, 8);
    info.seed = seed;
    writer.on_run_start(info);
    writer.on_round(0, 2);
    writer.on_run_end(TraceRunTotals{1, 0, 0, 0});
  }
  const auto runs = read_trace_file(path);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].info.seed, 1u);
  EXPECT_EQ(runs[1].info.seed, 2u);
  EXPECT_TRUE(runs[0].consistent());
  EXPECT_TRUE(runs[1].consistent());
}

TEST(JsonlTraceWriter, TailModeKeepsOnlyTheLastRounds) {
  const std::string path = temp_path("trace_tail.jsonl");
  std::remove(path.c_str());
  constexpr std::uint64_t kTail = 2;
  constexpr std::uint64_t kRounds = 10;
  {
    JsonlTraceWriter writer(path, kTail);
    writer.on_run_start(congest_info(2, 8));
    for (std::uint64_t r = 0; r < kRounds; ++r) {
      writer.on_round(r, 2);
      writer.on_send(r, 0, 1, 4);
    }
    writer.on_run_end(TraceRunTotals{kRounds, kRounds, 4 * kRounds, 4});
  }
  const auto runs = read_trace_file(path);
  ASSERT_EQ(runs.size(), 1u);
  const TraceRunSummary& run = runs[0];
  // run_start (round 0) scrolled out of the window -> truncated marker.
  // The run_end marker (emitted at round kRounds) may evict one more
  // round line, so the window holds kTail or kTail-1 rounds.
  EXPECT_TRUE(run.truncated_tail);
  EXPECT_LE(run.rounds_seen, kTail);
  EXPECT_GE(run.rounds_seen, kTail - 1);
  EXPECT_EQ(run.messages, run.rounds_seen);
  EXPECT_EQ(run.misstamped_sends, 0u);
  EXPECT_TRUE(run.has_end);
  EXPECT_FALSE(run.consistent()) << "tail traces never consistency-match";
}

TEST(JsonlTraceWriter, TailModeShortRunStaysComplete) {
  const std::string path = temp_path("trace_tail_short.jsonl");
  std::remove(path.c_str());
  {
    JsonlTraceWriter writer(path, /*tail_rounds=*/100);
    writer.on_run_start(congest_info(2, 8));
    writer.on_round(0, 2);
    writer.on_send(0, 0, 1, 4);
    writer.on_run_end(TraceRunTotals{1, 1, 4, 4});
  }
  const auto runs = read_trace_file(path);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_FALSE(runs[0].truncated_tail);
  EXPECT_TRUE(runs[0].consistent());
}

TEST(TraceReader, MalformedLinesThrowWithLineNumber) {
  try {
    read_trace_text("{\"ev\":\"round\",\"round\":0,\"active\":1}\nnot json\n");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("line 2"), std::string::npos);
  }
  EXPECT_THROW(read_trace_text("{\"round\":0}\n"), std::runtime_error);
  EXPECT_THROW(read_trace_file("/nonexistent/trace.jsonl"),
               std::runtime_error);
}

TEST(TraceReader, SendsOutsideTheirMarkersRoundAreCounted) {
  const auto runs = read_trace_text(
      "{\"ev\":\"run_start\",\"model\":\"congest\",\"nodes\":3,"
      "\"bandwidth_bits\":8,\"max_rounds\":10,\"seed\":1}\n"
      "{\"ev\":\"round\",\"round\":0,\"active\":3}\n"
      "{\"ev\":\"send\",\"round\":0,\"from\":0,\"to\":1,\"bits\":4}\n"
      "{\"ev\":\"send\",\"round\":1,\"from\":1,\"to\":2,\"bits\":4}\n"
      "{\"ev\":\"round\",\"round\":1,\"active\":3}\n"
      "{\"ev\":\"send\",\"round\":1,\"from\":2,\"to\":1,\"bits\":4}\n"
      "{\"ev\":\"run_end\",\"rounds\":2,\"messages\":3,\"total_bits\":12,"
      "\"max_message_bits\":4}\n");
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].misstamped_sends, 1u) << "round 1's send under marker 0";
  EXPECT_TRUE(runs[0].consistent());

  // A tail-truncated run starts mid-round: sends before its first marker
  // have no marker to disagree with.
  const auto tail = read_trace_text(
      "{\"ev\":\"send\",\"round\":6,\"from\":0,\"to\":1,\"bits\":4}\n"
      "{\"ev\":\"round\",\"round\":7,\"active\":2}\n"
      "{\"ev\":\"send\",\"round\":7,\"from\":0,\"to\":1,\"bits\":4}\n");
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_TRUE(tail[0].truncated_tail);
  EXPECT_EQ(tail[0].misstamped_sends, 0u);
}

TEST(TraceReader, UnknownEventKindsAreCountedNotFatal) {
  // A kind this reader does not know (a newer writer, schema drift) must
  // not abort the whole summary — it is counted and surfaced instead.
  const auto runs = read_trace_text("{\"ev\":\"martian\"}\n");
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].unknown_events, 1u);
  EXPECT_TRUE(runs[0].truncated_tail);  // no run_start was ever seen

  // Inside a run, the known events still recount normally around the
  // unknown one.
  const auto mixed = read_trace_text(
      "{\"ev\":\"run_start\",\"v\":1,\"model\":\"congest\",\"nodes\":2,"
      "\"bandwidth_bits\":8,\"max_rounds\":10,\"seed\":7}\n"
      "{\"ev\":\"round\",\"round\":0,\"active\":2}\n"
      "{\"ev\":\"martian\",\"payload\":3}\n"
      "{\"ev\":\"run_end\",\"rounds\":1,\"messages\":0,\"total_bits\":0,"
      "\"max_message_bits\":0}\n");
  ASSERT_EQ(mixed.size(), 1u);
  EXPECT_EQ(mixed[0].unknown_events, 1u);
  EXPECT_EQ(mixed[0].rounds_seen, 1u);
  EXPECT_TRUE(mixed[0].has_end);

  // After a completed run, a trailing unknown event is attributed to that
  // run rather than fabricating a phantom partial run.
  const auto trailing = read_trace_text(
      "{\"ev\":\"run_start\",\"v\":1,\"model\":\"congest\",\"nodes\":2,"
      "\"bandwidth_bits\":8,\"max_rounds\":10,\"seed\":7}\n"
      "{\"ev\":\"run_end\",\"rounds\":0,\"messages\":0,\"total_bits\":0,"
      "\"max_message_bits\":0}\n"
      "{\"ev\":\"martian\"}\n");
  ASSERT_EQ(trailing.size(), 1u);
  EXPECT_EQ(trailing[0].unknown_events, 1u);
}

TEST(JsonlTraceWriter, BudgetAndReplayPreambleRoundTrips) {
  const std::string path = temp_path("trace_preamble.jsonl");
  std::remove(path.c_str());
  {
    JsonlTraceWriter writer(path);
    TraceRunInfo info = congest_info(3, 8);
    info.level = 2;
    info.budget.bits_per_edge_round = 27;
    info.budget.max_rounds = 100;
    info.annotations = {{"proto", "congest_uniformity"},
                        {"topo", "ring:3"},
                        {"eps", "1.2"}};
    writer.on_run_start(info);
    writer.on_send(0, 0, 1, 5);
    writer.on_deliver(1, 0, 1, 5);
    writer.on_run_end(TraceRunTotals{1, 1, 5, 5});
  }
  const auto runs = read_trace_file(path);
  ASSERT_EQ(runs.size(), 1u);
  const TraceRunSummary& s = runs[0];
  EXPECT_EQ(s.info.level, 2);
  EXPECT_TRUE(s.info.budget.bounded());
  EXPECT_EQ(s.info.budget.bits_per_edge_round, 27u);
  EXPECT_EQ(s.info.budget.max_rounds, 100u);
  ASSERT_EQ(s.info.annotations.size(), 3u);
  EXPECT_EQ(s.info.annotations[0].first, "proto");
  EXPECT_EQ(s.info.annotations[0].second, "congest_uniformity");
  EXPECT_EQ(s.info.annotations[1].second, "ring:3");
  EXPECT_EQ(s.info.annotations[2].second, "1.2");

  // read_trace_events gives the run's events in file order.
  const auto events = read_trace_events(path, 0);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, TraceEvent::Kind::kRunStart);
  EXPECT_EQ(events[1].kind, TraceEvent::Kind::kSend);
  EXPECT_EQ(events[1].bits, 5u);
  EXPECT_EQ(events[2].kind, TraceEvent::Kind::kDeliver);
  EXPECT_EQ(events[3].kind, TraceEvent::Kind::kRunEnd);
}

TEST(TraceReader, EventsAreReadForOneRunOnly) {
  const std::string path = temp_path("trace_events_two_runs.jsonl");
  std::remove(path.c_str());
  {
    JsonlTraceWriter writer(path);
    writer.on_run_start(congest_info(2, 8));
    writer.on_round(0, 2);
    writer.on_send(0, 0, 1, 5);
    writer.on_run_end(TraceRunTotals{1, 1, 5, 5});
    writer.on_run_start(congest_info(3, 8));
    writer.on_round(0, 3);
    writer.on_send(0, 1, 2, 7);
    writer.on_send(0, 2, 0, 6);
    writer.on_halt(0, 2);
    writer.on_run_end(TraceRunTotals{1, 2, 13, 7});
  }
  const auto second = read_trace_events(path, 1);
  ASSERT_EQ(second.size(), 6u);
  EXPECT_EQ(second.front().kind, TraceEvent::Kind::kRunStart);
  EXPECT_EQ(second[2].kind, TraceEvent::Kind::kSend);
  EXPECT_EQ(second[2].from, 1u);
  EXPECT_EQ(second[2].bits, 7u);
  EXPECT_EQ(second[4].kind, TraceEvent::Kind::kHalt);
  EXPECT_EQ(second.back().kind, TraceEvent::Kind::kRunEnd);
  EXPECT_EQ(read_trace_events(path, 0).size(), 4u);
  EXPECT_THROW((void)read_trace_events(path, 2), std::runtime_error);
  std::remove(path.c_str());
}

TEST(JsonlTraceWriterDeathTest, TerminateHandlerFlushesTailBuffer) {
  const std::string path = temp_path("trace_terminate.jsonl");
  std::remove(path.c_str());
  // Tail mode buffers rounds in memory; an uncaught std::terminate must
  // still drain them to disk via the registered terminate handler.
  EXPECT_DEATH(
      {
        JsonlTraceWriter writer(path, /*tail_rounds=*/100);
        writer.on_run_start(congest_info(2, 8));
        writer.on_round(0, 2);
        writer.on_send(0, 0, 1, 4);
        std::terminate();
      },
      "");
  const auto runs = read_trace_file(path);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].rounds_seen, 1u);
  EXPECT_EQ(runs[0].messages, 1u);
  EXPECT_FALSE(runs[0].has_end) << "the run died before run_end";
}

TEST(TraceReader, WriterUnavailablePathThrows) {
  EXPECT_THROW(JsonlTraceWriter("/nonexistent/dir/trace.jsonl"),
               std::runtime_error);
}

}  // namespace
}  // namespace dut::obs
