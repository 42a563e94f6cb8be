// serve_zipf: the streaming VerdictService in E17's regime (n = 4096,
// eps = 1.6, p = 0.4: 32 windows x 11 samples, T = 1). 65,536 streams on 8
// shards and kPoolThreads threads, Zipf theta = 0.99, every 16th stream
// far, 65,536 arrivals per epoch. WorkloadGenerator::generate_epoch makes
// each epoch's tape outside the timed span; VerdictService::ingest is what
// is timed.
// Epoch e's tape is generate_epoch(seed, e, ...), exactly what run_epoch
// would draw, so ingest and run_epoch produce the same verdict stream.
//
// Latency is taken per block of kTapeBlock back-to-back ingests (about
// 40 ms). A single 2-3 ms epoch spans all pool lanes, so on a shared host
// whether a scheduling gap lands in it is close to a coin flip at the 95th
// percentile, and per-epoch p95 swung between runs by 0.4 of its median;
// the per-epoch figures stay in the record line.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "dut/core/families.hpp"
#include "dut/core/sampler.hpp"
#include "dut/serve/sequential_collision.hpp"
#include "dut/serve/service.hpp"
#include "dut/serve/workload.hpp"
#include "dut/stats/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace dut;

struct Config {
  std::uint64_t streams;
  std::uint32_t shards;
  unsigned threads;
  std::uint64_t batch;        ///< arrivals per epoch
  std::uint64_t warm_epochs;  ///< generated epochs ingested during setup
  /// Epochs per traced-run pass per second of --seconds (see zero_round.cpp's
  /// traced_trials_per_s).
  double traced_epochs_per_s;
};

Config config_for(Size size) {
  if (size == Size::kTiny) return Config{4096, 4, kPoolThreads, 4096, 2, 100};
  return Config{1 << 16, 8, kPoolThreads, 1 << 16, 4, 90};
}

constexpr std::uint64_t kDomain = 4096;
constexpr double kEpsilon = 1.6;
constexpr double kError = 0.4;
constexpr std::uint64_t kServeTag = 0x5E7E;
constexpr std::uint64_t kTouchTag = 0x70C4;
/// Epoch tapes generated ahead of each block of ingests.
constexpr std::uint64_t kTapeBlock = 16;
/// Timed epochs included in the ingest-vs-run_epoch digest comparison.
constexpr std::uint64_t kDigestTimedEpochs = 2;
/// Epoch tapes serve.shard_skew is measured on.
constexpr std::uint64_t kSkewEpochs = 64;

serve::ServeConfig service_config(const Config& c, std::uint64_t seed) {
  serve::ServeConfig config;
  config.domain = kDomain;
  config.epsilon = kEpsilon;
  config.error = kError;
  config.streams = c.streams;
  config.shards = c.shards;
  config.threads = c.threads;
  config.zipf_theta = 0.99;
  config.far_every = 16;
  config.batch_per_epoch = c.batch;
  config.seed = mix_seed(seed, kServeTag);
  return config;
}

/// Order-sensitive digest of one epoch's canonical verdict stream.
std::uint64_t digest(const serve::EpochResult& r) {
  std::uint64_t h = mix_seed(r.epoch, r.arrivals, r.accepts * 31 + r.rejects);
  for (const serve::StreamVerdict& v : r.verdicts) {
    h = mix_seed(h, v.stream * 0x10001 + v.cycle,
                 v.first_epoch * 0x10001 + v.epoch);
    h = mix_seed(h,
                 (v.verdict.accepts ? 1 : 0) +
                     2 * static_cast<std::uint64_t>(v.verdict.status),
                 v.verdict.votes_reject * 0x10001 + v.verdict.votes_total);
    h = mix_seed(h, v.verdict.samples_consumed);
  }
  return h;
}

struct Setup {
  std::unique_ptr<serve::VerdictService> service;
  std::vector<serve::Arrival> touch;
  std::vector<std::uint64_t> digests;  ///< every ingested epoch, in order
  double build_ms = 0;
  double setup_s = 0;
};

/// One arrival per stream, drawn from that stream's own family: the first
/// touch of every stream state happens here rather than in a timed epoch.
std::vector<serve::Arrival> touch_tape(const serve::VerdictService& service,
                                       std::uint64_t seed) {
  const core::AliasSampler uniform(core::uniform(kDomain));
  const core::AliasSampler far(core::far_instance(kDomain, kEpsilon));
  stats::Xoshiro256 rng = stats::derive_stream(seed, kTouchTag);
  std::vector<serve::Arrival> tape(service.config().streams);
  for (std::uint64_t i = 0; i < tape.size(); ++i) {
    const core::AliasSampler& values =
        service.workload().is_far(i) ? far : uniform;
    tape[i] = serve::Arrival{static_cast<std::uint32_t>(i),
                             static_cast<std::uint32_t>(values.sample(rng))};
  }
  return tape;
}

/// Fails the epoch if one of its verdicts consumed more than the fixed
/// budget.
void check_budget(const serve::VerdictService& service,
                  const serve::EpochResult& r, Ledger& ledger) {
  const std::uint64_t budget = service.plan().fixed_budget();
  for (const serve::StreamVerdict& v : r.verdicts) {
    if (v.verdict.samples_consumed > budget) {
      ledger.fail("epoch " + std::to_string(r.epoch) + " stream " +
                  std::to_string(v.stream) + " consumed " +
                  std::to_string(v.verdict.samples_consumed) +
                  " samples over the fixed budget " + std::to_string(budget));
      return;
    }
  }
}

std::unique_ptr<Setup> build_setup(const Config& c, std::uint64_t seed) {
  auto s = std::make_unique<Setup>();
  const std::int64_t start = now_ns();
  s->service =
      std::make_unique<serve::VerdictService>(service_config(c, seed));
  s->build_ms = ms_since(start);

  serve::VerdictService& service = *s->service;
  s->touch = touch_tape(service, seed);
  s->digests.push_back(digest(service.ingest(s->touch)));
  std::vector<serve::Arrival> tape;
  for (std::uint64_t e = 0; e < c.warm_epochs; ++e) {
    tape.clear();
    service.workload().generate_epoch(service.config().seed,
                                      service.epochs_run(), c.batch, tape);
    s->digests.push_back(digest(service.ingest(tape)));
  }
  s->setup_s = static_cast<double>(now_ns() - start) * 1e-9;
  return s;
}

/// Epoch outcome of the timed loop or a replay.
struct EpochRecord {
  std::uint64_t digest = 0;
  std::uint64_t arrivals = 0;
  double ingest_ms = 0;
  double generate_ms = 0;
};

/// Generates the service's next `count` epoch tapes, then ingests them in
/// order, appending one record per epoch. Ingesting a block back to back is
/// how a saturated feed delivers epochs: the pool never idles through a
/// generation between two ingests. With a trace, every call is a span.
void next_epochs(Setup& s, const Config& c, std::uint64_t count,
                 std::vector<std::vector<serve::Arrival>>& tapes,
                 std::vector<EpochRecord>& out, Ledger& ledger,
                 Trace* trace) {
  serve::VerdictService& service = *s.service;
  if (tapes.size() < count) tapes.resize(count);
  const std::size_t first = out.size();
  for (std::uint64_t i = 0; i < count; ++i) {
    EpochRecord rec;
    tapes[i].clear();
    const std::int64_t start = now_ns();
    const std::uint32_t span =
        trace != nullptr ? trace->open("serve.generate_epoch", Trace::kRoot)
                         : 0;
    service.workload().generate_epoch(service.config().seed,
                                      service.epochs_run() + i, c.batch,
                                      tapes[i]);
    if (trace != nullptr) trace->close(span, tapes[i].size());
    rec.generate_ms = ms_since(start);
    out.push_back(rec);
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    EpochRecord& rec = out[first + i];
    const std::uint32_t span =
        trace != nullptr ? trace->open("serve.ingest", Trace::kRoot) : 0;
    const std::int64_t start = now_ns();
    try {
      const serve::EpochResult r = service.ingest(tapes[i]);
      rec.ingest_ms = ms_since(start);
      if (trace != nullptr) trace->close(span, r.arrivals);
      rec.digest = digest(r);
      rec.arrivals = r.arrivals;
      check_budget(service, r, ledger);
    } catch (const std::exception& e) {
      rec.ingest_ms = ms_since(start);
      if (trace != nullptr) trace->close(span, 0);
      ledger.fail("ingest threw: " + std::string(e.what()));
    }
  }
}

/// Mean over epochs [first, first + count) of the busiest shard's arrivals
/// over the mean shard's, from the regenerated tapes (at most kSkewEpochs).
double shard_skew(const serve::VerdictService& service, const Config& c,
                  std::uint64_t first, std::uint64_t count) {
  std::vector<serve::Arrival> tape;
  double sum = 0;
  count = std::min(count, kSkewEpochs);
  for (std::uint64_t e = first; e < first + count; ++e) {
    tape.clear();
    service.workload().generate_epoch(service.config().seed, e, c.batch, tape);
    std::vector<std::uint64_t> per_shard(c.shards, 0);
    for (const serve::Arrival& a : tape) ++per_shard[a.stream % c.shards];
    sum += static_cast<double>(
               *std::max_element(per_shard.begin(), per_shard.end())) *
           c.shards / static_cast<double>(tape.size());
  }
  return sum / static_cast<double>(count);
}

/// The ingest digests of the first epochs must equal those of a fresh
/// service that draws the same epochs itself through run_epoch.
void check_against_run_epoch(const Config& c, std::uint64_t seed,
                             const Setup& s, Ledger& ledger) {
  serve::VerdictService reference(service_config(c, seed));
  std::vector<std::uint64_t> expected;
  expected.push_back(digest(reference.ingest(s.touch)));
  while (expected.size() < s.digests.size()) {
    expected.push_back(digest(reference.run_epoch()));
  }
  ledger.check("ingest_matches_run_epoch", expected == s.digests,
               std::to_string(s.digests.size()) +
                   " epoch digests compared (first-touch epoch, " +
                   std::to_string(c.warm_epochs) + " warm-up, " +
                   std::to_string(s.digests.size() - 1 - c.warm_epochs) +
                   " timed)");
}

}  // namespace

void run_serve_zipf(const Options& options, RunReport& report) {
  const Config c = config_for(options.size);
  report.threads = c.threads;
  report.ranks = 1;
  require_hardware(c.threads, 1);

  std::vector<double> setup_s;
  std::vector<double> build_ms;
  const auto record_setup = [&](const Setup& built) {
    setup_s.push_back(built.setup_s);
    build_ms.push_back(built.build_ms);
  };
  std::unique_ptr<Setup> setup = build_setup(c, options.seed);
  record_setup(*setup);
  for (unsigned rep = 1; options.trace && rep < setup_count(options.size);
       ++rep) {
    record_setup(*build_setup(c, options.seed));
  }
  report.warmup.push_back(
      "ingest of a first-touch tape with one arrival per stream (every "
      "stream state allocated)");
  report.warmup.push_back(
      "generate_epoch + ingest of " + std::to_string(c.warm_epochs) +
      " epochs (shard buffers and verdict vectors grow)");
  Setup& s = *setup;
  report.details.push_back(Metric{
      "plan.fixed_budget",
      static_cast<double>(s.service->plan().fixed_budget()), "samples"});
  // The first timed epochs join the digests compared against run_epoch.
  const auto extend_digests = [&](const std::vector<EpochRecord>& epochs) {
    for (std::size_t i = 0; i < kDigestTimedEpochs && i < epochs.size(); ++i) {
      s.digests.push_back(epochs[i].digest);
    }
  };
  std::vector<std::vector<serve::Arrival>> tapes;

  if (!options.trace) {
    std::vector<EpochRecord> epochs;
    SetupProbes probes(options.seconds, setup_count(options.size) - 1);
    std::int64_t measured_ns = 0;
    const auto budget_ns = static_cast<std::int64_t>(options.seconds * 1e9);
    while (epochs.size() < kMinOps * kTapeBlock || measured_ns < budget_ns) {
      probes.between(measured_ns,
                     [&] { record_setup(*build_setup(c, options.seed)); });
      const std::int64_t start = now_ns();
      next_epochs(s, c, kTapeBlock, tapes, epochs, report.ledger, nullptr);
      measured_ns += now_ns() - start;
      report.ledger.attempt(kTapeBlock);
    }
    const double rss = probes.peak_rss_mib();
    const serve::ServeTotals& totals = s.service->totals();
    report.ledger.check("verdicts_emitted", totals.verdicts() > 0,
                        std::to_string(totals.verdicts()) + " verdicts");
    extend_digests(epochs);
    check_against_run_epoch(c, options.seed, s, report.ledger);
    std::vector<double> epoch_ms;
    std::vector<double> block_ms(epochs.size() / kTapeBlock, 0.0);
    std::vector<Step> steps(block_ms.size());
    double ingest_ms = 0;
    std::uint64_t arrivals = 0;
    for (std::size_t i = 0; i < epochs.size(); ++i) {
      epoch_ms.push_back(epochs[i].ingest_ms);
      block_ms[i / kTapeBlock] += epochs[i].ingest_ms;
      steps[i / kTapeBlock].wall_ms += epochs[i].ingest_ms;
      steps[i / kTapeBlock].work += static_cast<double>(epochs[i].arrivals);
      ingest_ms += epochs[i].ingest_ms;
      arrivals += epochs[i].arrivals;
    }
    for (std::size_t b = 0; b < steps.size(); ++b) {
      steps[b].latency_ms = {block_ms[b]};
    }
    const double per_s = static_cast<double>(arrivals) / (ingest_ms * 1e-3);
    emit_end_to_end(report, median(setup_s), steps, rss);
    report.details.push_back(Metric{"arrivals_per_s", per_s, "arrivals/s"});
    report.details.push_back(
        Metric{"block_ms_p50", quantile(block_ms, 0.50), "ms"});
    report.details.push_back(
        Metric{"block_ms_p95", quantile(block_ms, 0.95), "ms"});
    report.details.push_back(
        Metric{"epoch_ms_p50", quantile(epoch_ms, 0.50), "ms"});
    report.details.push_back(
        Metric{"epoch_ms_p95", quantile(epoch_ms, 0.95), "ms"});
    report.details.push_back(Metric{
        "timed_epochs", static_cast<double>(epoch_ms.size()), "count"});
    return;
  }

  // Traced: a fixed epoch count, untraced on this service, then traced on
  // a second one built from the same seed (same state after warm-up).
  const std::uint64_t blocks = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(
             c.traced_epochs_per_s * options.seconds / kTapeBlock)));
  const std::uint64_t epochs = blocks * kTapeBlock;
  std::vector<EpochRecord> plain;
  const std::int64_t plain_start = now_ns();
  for (std::uint64_t b = 0; b < blocks; ++b) {
    next_epochs(s, c, kTapeBlock, tapes, plain, report.ledger, nullptr);
  }
  const double plain_ms = ms_since(plain_start);
  extend_digests(plain);
  check_against_run_epoch(c, options.seed, s, report.ledger);

  std::unique_ptr<Setup> replay = build_setup(c, options.seed);
  const serve::ServeTotals before = replay->service->totals();
  const std::uint64_t first_epoch = replay->service->epochs_run();
  std::vector<EpochRecord> traced;
  const std::int64_t traced_start = now_ns();
  Trace trace(1);
  for (std::uint64_t b = 0; b < blocks; ++b) {
    next_epochs(*replay, c, kTapeBlock, tapes, traced, report.ledger, &trace);
  }
  trace.finish();
  const double traced_loop_ms = ms_since(traced_start);
  const serve::ServeTotals& after = replay->service->totals();
  report.ledger.attempt(plain.size() + traced.size());

  bool same = plain.size() == traced.size();
  for (std::size_t i = 0; same && i < plain.size(); ++i) {
    same = plain[i].digest == traced[i].digest;
  }
  report.ledger.check("traced_outcomes_match_untraced", same,
                      std::to_string(epochs) + " epoch digests compared");

  double ingest_ns = 0;
  double generate_ms = 0;
  std::uint64_t arrivals = 0;
  for (const EpochRecord& rec : traced) {
    ingest_ns += rec.ingest_ms * 1e6;
    generate_ms += rec.generate_ms;
    arrivals += rec.arrivals;
  }
  const double n_epochs = static_cast<double>(traced.size());
  const std::uint64_t accepts = after.accepts - before.accepts;
  const std::uint64_t rejects = after.rejects - before.rejects;
  const double wall_ms = trace.wall_ms();
  const double gap = trace.closure_gap();
  report.ledger.check("trace_closure", gap <= kClosureTolerance,
                      "unattributed share " + std::to_string(gap));
  report.ledger.check("verdicts_emitted", accepts + rejects > 0,
                      std::to_string(accepts + rejects) + " verdicts");

  const std::int64_t plan_start = now_ns();
  const serve::StreamPlan plan = serve::plan_stream(kDomain, kEpsilon, kError);
  const double plan_ms = ms_since(plan_start);
  report.ledger.check("plan_matches_service",
                      plan.fixed_budget() == s.service->plan().fixed_budget(),
                      "plan_stream budget " +
                          std::to_string(plan.fixed_budget()));

  emit_per_layer(
      report,
      {{"core.plan_ms", plan_ms},
       {"serve.build_ms", median(build_ms)},
       {"serve.arrival_ns", ingest_ns / static_cast<double>(arrivals)},
       {"serve.shard_skew", shard_skew(*replay->service, c, first_epoch,
                                        epochs)},
       {"serve.generate_ms", generate_ms / n_epochs},
       {"serve.verdicts", static_cast<double>(accepts + rejects) / n_epochs},
       {"serve.samples_per_accept",
        accepts == 0 ? 0.0
                     : static_cast<double>(after.accept_samples -
                                           before.accept_samples) /
                           static_cast<double>(accepts)},
       {"serve.samples_per_reject",
        rejects == 0 ? 0.0
                     : static_cast<double>(after.reject_samples -
                                           before.reject_samples) /
                           static_cast<double>(rejects)},
       {"obs.trace_overhead_share", traced_loop_ms / plain_ms - 1.0},
       {"obs.closure_gap", gap}});
  report.details.push_back(Metric{"traced_epochs", n_epochs, "count"});
  report.details.push_back(Metric{"untraced_wall_ms", plain_ms, "ms"});
  report.details.push_back(Metric{"traced_wall_ms", wall_ms, "ms"});
  for (const auto& [name, layer] : trace.layers()) {
    report.details.push_back(
        Metric{"self_ms." + name, layer.self_ns * 1e-6, "ms"});
  }
  if (!options.trace_out.empty()) trace.write_jsonl(options.trace_out);
}

}  // namespace perfbench
