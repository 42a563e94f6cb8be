// M1 — micro-benchmarks (google-benchmark) for the hot paths underneath
// every experiment: sampling, collision detection, tester runs, the
// parallel trial engine, code encoders, and the network engine.
//
// Besides the google-benchmark suite, main() times the three kernels the
// perf work targets — trial-engine scaling, sorted vs bitmap collision,
// legacy two-draw vs batched single-draw sampling — and writes the results
// to BENCH_M1.json so successive PRs have a machine-readable perf
// trajectory (EXPERIMENTS.md archives the numbers).
//
// Quick JSON-only run:  m1_micro --benchmark_filter=NONE

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dut/codes/concatenated.hpp"
#include "dut/codes/reed_solomon.hpp"
#include "dut/congest/uniformity.hpp"
#include "dut/core/families.hpp"
#include "dut/core/gap_tester.hpp"
#include "dut/core/zero_round.hpp"
#include "dut/local/mis.hpp"
#include "dut/obs/phase_timer.hpp"
#include "dut/obs/report.hpp"
#include "dut/smp/equality.hpp"
#include "dut/stats/engine.hpp"

namespace {

using namespace dut;

void BM_AliasSampler(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const core::AliasSampler sampler(core::zipf(n, 1.0));
  stats::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
}
BENCHMARK(BM_AliasSampler)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_AliasSamplerBatch(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const core::AliasSampler sampler(core::zipf(n, 1.0));
  stats::Xoshiro256 rng(1);
  std::vector<std::uint64_t> out;
  constexpr std::uint64_t kBatch = 1024;
  for (auto _ : state) {
    sampler.sample_into(rng, kBatch, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBatch);
}
BENCHMARK(BM_AliasSamplerBatch)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

void BM_CollisionSorted(benchmark::State& state) {
  const auto s = static_cast<std::uint64_t>(state.range(0));
  const core::AliasSampler sampler(core::uniform(1 << 16));
  stats::Xoshiro256 rng(2);
  const auto samples = sampler.sample_many(rng, s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::has_collision(samples));
  }
}
BENCHMARK(BM_CollisionSorted)->Arg(16)->Arg(128)->Arg(1024);

void BM_CollisionBitmap(benchmark::State& state) {
  const auto s = static_cast<std::uint64_t>(state.range(0));
  constexpr std::uint64_t kDomain = 1 << 16;
  const core::AliasSampler sampler(core::uniform(kDomain));
  stats::Xoshiro256 rng(2);
  const auto samples = sampler.sample_many(rng, s);
  core::CollisionWorkspace workspace;
  for (auto _ : state) {
    benchmark::DoNotOptimize(workspace.has_collision(samples, kDomain));
  }
}
BENCHMARK(BM_CollisionBitmap)->Arg(16)->Arg(128)->Arg(1024);

void BM_GapTesterRun(benchmark::State& state) {
  const std::uint64_t n = 1 << 16;
  const auto params = core::solve_gap_tester(n, 0.9, 0.01);
  const core::SingleCollisionTester tester(params);
  const core::AliasSampler sampler(core::uniform(n));
  stats::Xoshiro256 rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tester.run(sampler, rng));
  }
  state.SetLabel("s=" + std::to_string(params.s));
}
BENCHMARK(BM_GapTesterRun);

void BM_TrialEngine(benchmark::State& state) {
  const auto threads = static_cast<unsigned>(state.range(0));
  const std::uint64_t n = 1 << 16;
  const core::SingleCollisionTester tester(core::solve_gap_tester(n, 0.9,
                                                                  0.01));
  const core::AliasSampler sampler(core::uniform(n));
  stats::TrialRunner runner(threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runner.estimate_probability(
        1, 2000,
        [&](stats::Xoshiro256& rng) { return tester.run(sampler, rng); }));
  }
}
BENCHMARK(BM_TrialEngine)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_RsEncodeGf256(benchmark::State& state) {
  const codes::ReedSolomon rs(codes::GaloisField::gf256(), 200, 100);
  std::vector<std::uint32_t> message(100);
  for (std::size_t i = 0; i < message.size(); ++i) {
    message[i] = static_cast<std::uint32_t>(i * 37 % 256);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.encode(message));
  }
}
BENCHMARK(BM_RsEncodeGf256);

void BM_EqualityCodeEncode(benchmark::State& state) {
  const auto bits = static_cast<std::uint64_t>(state.range(0));
  const auto bundle = codes::make_equality_code(bits);
  codes::Bits message(bundle.code->message_bits(), 0);
  for (std::size_t i = 0; i < message.size(); i += 3) message[i] = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bundle.code->encode(message));
  }
}
BENCHMARK(BM_EqualityCodeEncode)->Arg(512)->Arg(8192);

void BM_EqualityProtocolMessage(benchmark::State& state) {
  const smp::EqualityProtocol protocol(4096, 2.0, 0.01);
  std::vector<std::uint8_t> x(4096, 0);
  const auto codeword = protocol.encode_input(x);
  stats::Xoshiro256 rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol.alice_encoded(codeword, rng));
  }
}
BENCHMARK(BM_EqualityProtocolMessage);

void BM_TokenPackaging(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const net::Graph g = net::Graph::random_connected(k, 2.0, 7);
  congest::PackagingSetup setup = congest::make_packaging_setup(g, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(congest::run_token_packaging(setup, 5));
  }
  state.SetLabel("rounds incl. leader election");
}
BENCHMARK(BM_TokenPackaging)->Arg(256)->Arg(1024);

void BM_LubyMis(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const net::Graph g = net::Graph::random_connected(k, 4.0, 8);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(local::compute_mis(g, ++seed));
  }
}
BENCHMARK(BM_LubyMis)->Arg(256)->Arg(1024);

void BM_ThresholdNetworkTrial(benchmark::State& state) {
  const std::uint64_t n = 1 << 14;
  const auto plan = core::plan_threshold(n, 1024, 0.9, 1.0 / 3.0,
                                         core::TailBound::kExactBinomial);
  const core::AliasSampler sampler(core::uniform(n));
  stats::Xoshiro256 rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_threshold_network(plan, sampler, rng));
  }
  state.SetLabel("k=1024");
}
BENCHMARK(BM_ThresholdNetworkTrial);

// ---------------------------------------------------------------------------
// BENCH_M1.json: hand-timed kernels for the cross-PR perf trajectory.
// ---------------------------------------------------------------------------

/// The pre-engine alias kernel, kept verbatim as the baseline for the
/// sampling row of BENCH_M1.json: split probability/alias arrays and two
/// RNG advances (below + uniform01) per draw, vs the library's interleaved
/// single-draw kernel.
class LegacyAliasSampler {
 public:
  explicit LegacyAliasSampler(const core::Distribution& distribution) {
    const std::span<const double> weights = distribution.pmf();
    const std::size_t n = weights.size();
    double total = 0.0;
    for (const double w : weights) total += w;
    prob_.resize(n);
    alias_.resize(n);
    std::vector<double> scaled(n);
    std::vector<std::uint64_t> small, large;
    for (std::size_t i = 0; i < n; ++i) {
      scaled[i] = weights[i] * static_cast<double>(n) / total;
      (scaled[i] < 1.0 ? small : large).push_back(i);
    }
    while (!small.empty() && !large.empty()) {
      const std::uint64_t s = small.back(), l = large.back();
      small.pop_back();
      large.pop_back();
      prob_[s] = scaled[s];
      alias_[s] = l;
      scaled[l] = scaled[l] + scaled[s] - 1.0;
      (scaled[l] < 1.0 ? small : large).push_back(l);
    }
    for (const std::uint64_t l : large) prob_[l] = 1.0;
    for (const std::uint64_t s : small) prob_[s] = 1.0;
  }

  std::uint64_t sample(stats::Xoshiro256& rng) const {
    const std::uint64_t column = rng.below(prob_.size());
    return rng.uniform01() < prob_[column] ? column : alias_[column];
  }

 private:
  std::vector<double> prob_;
  std::vector<std::uint64_t> alias_;
};

/// Median-of-repeats wall time of fn(), in seconds.
template <typename Fn>
double time_seconds(Fn&& fn, int repeats = 5) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    const obs::StopWatch watch;
    fn();
    times.push_back(watch.seconds());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

void write_bench_json() {
  obs::RunReport report(
      "m1", "micro-benchmarks: hot-path kernels and engine scaling");
  report.set_engine("threads", stats::default_thread_count());
  report.set_engine("hardware_concurrency",
                    std::thread::hardware_concurrency());
  report.set_engine("obs_enabled", obs::enabled());

  // 1. E1-style trial loop (gap tester on uniform, n = 2^16, 4000 trials)
  //    across engine widths. speedup is serial-time / parallel-time.
  {
    const std::uint64_t n = 1 << 16;
    const core::SingleCollisionTester tester(
        core::solve_gap_tester(n, 0.9, 0.01));
    const core::AliasSampler sampler(core::uniform(n));
    const auto loop = [&](stats::TrialRunner& runner) {
      benchmark::DoNotOptimize(runner.estimate_probability(
          1, 4000,
          [&](stats::Xoshiro256& rng) { return tester.run(sampler, rng); }));
    };
    obs::Json rows = obs::Json::array();
    double serial_seconds = 0.0;
    for (const unsigned width : {1u, 2u, 4u, 8u}) {
      stats::TrialRunner runner(width);
      const double seconds = time_seconds([&] { loop(runner); });
      if (width == 1) serial_seconds = seconds;
      obs::Json row = obs::Json::object();
      row.set("threads", width);
      row.set("seconds", seconds);
      row.set("speedup", serial_seconds / seconds);
      rows.push(std::move(row));
    }
    report.set_value("trial_engine", std::move(rows));
  }

  // 2. Collision kernels: sorted vs bitmap at the (n, s) the gap tester
  //    actually visits.
  {
    obs::Json rows = obs::Json::array();
    for (const std::uint64_t n : {1ULL << 12, 1ULL << 16, 1ULL << 20}) {
      const auto params = core::solve_gap_tester(n, 0.9, 0.01);
      const core::AliasSampler sampler(core::uniform(n));
      stats::Xoshiro256 rng(7);
      const auto samples = sampler.sample_many(rng, params.s);
      core::CollisionWorkspace workspace;
      constexpr int kReps = 20000;
      const double sorted_seconds = time_seconds([&] {
        for (int r = 0; r < kReps; ++r) {
          benchmark::DoNotOptimize(core::has_collision(samples));
        }
      });
      const double bitmap_seconds = time_seconds([&] {
        for (int r = 0; r < kReps; ++r) {
          benchmark::DoNotOptimize(workspace.has_collision(samples, n));
        }
      });
      obs::Json row = obs::Json::object();
      row.set("n", n);
      row.set("s", params.s);
      row.set("sorted_ns", sorted_seconds / kReps * 1e9);
      row.set("bitmap_ns", bitmap_seconds / kReps * 1e9);
      row.set("speedup", sorted_seconds / bitmap_seconds);
      rows.push(std::move(row));
      if (n == (1ULL << 16)) {
        report.check("collision_bitmap_speedup[n=2^16]", 1.0,
                     sorted_seconds / bitmap_seconds,
                     "bitmap kernel at least matches the sorted kernel");
      }
    }
    report.set_value("collision", std::move(rows));
  }

  // 3. Sampling: the legacy two-draw kernel (below + uniform01, separate
  //    per-call vector growth) vs the batched single-draw sample_into.
  {
    obs::Json rows = obs::Json::array();
    constexpr std::uint64_t kDraws = 1 << 16;
    for (const std::uint64_t n : {1ULL << 10, 1ULL << 16, 1ULL << 20}) {
      const core::Distribution dist = core::zipf(n, 1.0);
      const core::AliasSampler sampler(dist);
      const LegacyAliasSampler legacy(dist);
      stats::Xoshiro256 rng(9);
      std::vector<std::uint64_t> out_buf;
      const double legacy_seconds = time_seconds([&] {
        std::vector<std::uint64_t> fresh;
        fresh.reserve(kDraws);
        for (std::uint64_t d = 0; d < kDraws; ++d) {
          fresh.push_back(legacy.sample(rng));
        }
        benchmark::DoNotOptimize(fresh.data());
      });
      const double batched_seconds = time_seconds([&] {
        sampler.sample_into(rng, kDraws, out_buf);
        benchmark::DoNotOptimize(out_buf.data());
      });
      obs::Json row = obs::Json::object();
      row.set("n", n);
      row.set("legacy_ns_per_sample", legacy_seconds / kDraws * 1e9);
      row.set("batched_ns_per_sample", batched_seconds / kDraws * 1e9);
      row.set("speedup", legacy_seconds / batched_seconds);
      rows.push(std::move(row));
      if (n == (1ULL << 16)) {
        report.check("sampling_batched_speedup[n=2^16]", 1.0,
                     legacy_seconds / batched_seconds,
                     "batched single-draw kernel at least matches legacy");
      }
    }
    report.set_value("sampling", std::move(rows));
  }

  report.attach_metrics();
  const std::string path = report.default_path();
  report.write(path);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_bench_json();
  return 0;
}
