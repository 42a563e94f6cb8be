// E15 — fault tolerance: the resilient protocol variants under the
// deterministic fault-injection layer (net::FaultPlan).
//
// The paper's protocols assume a lossless synchronous network; this
// experiment measures what the hardened variants preserve when that
// assumption breaks. The design target is one-sided: faults may push a
// uniform input toward rejection (completeness degrades gracefully), but a
// far input must keep getting caught (soundness holds, up to the 4-bit
// checksum's escape probability) — DESIGN.md §11.
//
// Tables:
//  1. CONGEST sweep: fault rate x topology. At rate 0 the resilient
//     protocol's verdict stream is bit-identical to the plain protocol's
//     (checked per trial against the E8 seeds).
//  2. Crash-stop quorum: star network, crashes stepping across the quorum
//     threshold — coverage and the reject-bias of a missed quorum.
//  3. LOCAL sweep: gather-message faults on the ring; MIS shortfalls
//     convert to reject votes.
//  4. MIS phase-cap fallback: Luby under heavy drop rates terminates
//     within the cap instead of hanging.

#include <string>

#include "bench_util.hpp"
#include "dut/core/families.hpp"
#include "dut/congest/uniformity.hpp"
#include "dut/local/mis.hpp"
#include "dut/local/tester.hpp"
#include "net_bench.hpp"

namespace {

using namespace dut;
using net::Graph;

net::FaultRates message_rates(double rate) {
  net::FaultRates rates;
  rates.drop = rate;
  rates.duplicate = rate / 2.0;
  rates.corrupt = rate / 2.0;
  rates.delay = rate / 2.0;
  rates.max_delay_rounds = 3;
  return rates;
}

void congest_sweep() {
  bench::section("CONGEST under message faults (n = 2^12, k = 4096, "
                  "eps = 1.2, 30 runs/side)");
  const std::uint64_t n = 1 << 12;
  const std::uint32_t k = 4096;
  const double eps = 1.2;
  const auto plan = congest::plan_congest(n, k, eps);
  if (!plan.feasible) {
    bench::note("plan infeasible — skipped");
    return;
  }
  const core::AliasSampler uniform_sampler(core::uniform(n));
  const core::AliasSampler far_sampler(core::far_instance(n, eps));

  // The quorum sets how much loss the operator tolerates before the root
  // refuses to accept: the strict setting (~1.5% of nodes) demands
  // near-complete token accounting, so any real fault rate trips the
  // reject-bias; the loose setting (12.5%) lets the shallow star absorb a
  // 2% fault rate and still decide on the statistics.
  const std::uint32_t strict_quorum = k - k / 64;
  const std::uint32_t loose_quorum = k - k / 8;
  struct Case {
    const char* name;
    Graph graph;
    double rate;
    std::uint32_t quorum;
  };
  const Case cases[] = {
      {"grid 64x64", Graph::grid(64, 64), 0.0, strict_quorum},
      {"grid 64x64", Graph::grid(64, 64), 0.02, strict_quorum},
      {"grid 64x64", Graph::grid(64, 64), 0.1, strict_quorum},
      {"star", Graph::star(k), 0.0, strict_quorum},
      {"star", Graph::star(k), 0.02, strict_quorum},
      {"star", Graph::star(k), 0.1, strict_quorum},
      {"star", Graph::star(k), 0.02, loose_quorum},
  };

  stats::TextTable table({"topology", "rate", "quorum", "P[rej|U]",
                          "P[acc|far]", "quorum misses", "faults/run",
                          "rounds"});
  struct Partial {
    std::uint64_t reject_uniform = 0;
    std::uint64_t accept_far = 0;
    std::uint64_t quorum_misses = 0;
    std::uint64_t faults = 0;
    std::uint64_t rate0_mismatches = 0;
    bench::Spread rounds;
  };
  const std::uint64_t num_runs = bench::runs(30);
  for (const Case& c : cases) {
    net::FaultPlan faults(/*salt=*/0xE15);
    faults.set_rates(message_rates(c.rate));
    congest::CongestResilience opts;
    opts.enabled = true;
    opts.quorum_nodes = c.quorum;
    congest::CongestSetup setup =
        congest::make_congest_setup(plan, c.graph, opts, &faults);
    // Plain setup for the rate-0 equivalence check (E8's protocol).
    congest::CongestSetup plain = congest::make_congest_setup(plan, c.graph);
    const Partial sweep = stats::map_trials<Partial>(
        num_runs,
        [&](Partial& acc, std::uint64_t t) {
          const bool traced = bench::traced_trial(t) && c.rate == 0.0;
          const auto on_uniform = congest::run_congest_uniformity(
              plan, setup, uniform_sampler, 3000 + t, traced);
          const auto on_far = congest::run_congest_uniformity(
              plan, setup, far_sampler, 4000 + t, traced);
          acc.reject_uniform += on_uniform.verdict.rejects();
          acc.accept_far += on_far.verdict.accepts;
          acc.quorum_misses += !on_uniform.quorum_met;
          acc.quorum_misses += !on_far.quorum_met;
          acc.faults += on_uniform.metrics.faults.total();
          acc.faults += on_far.metrics.faults.total();
          acc.rounds.add(on_uniform.metrics.rounds);
          acc.rounds.add(on_far.metrics.rounds);
          if (c.rate == 0.0) {
            // Same seeds through the plain protocol: the resilient
            // variant must decide identically on a healthy network.
            const auto plain_uniform = congest::run_congest_uniformity(
                plan, plain, uniform_sampler, 3000 + t, false);
            const auto plain_far = congest::run_congest_uniformity(
                plan, plain, far_sampler, 4000 + t, false);
            acc.rate0_mismatches +=
                on_uniform.verdict.accepts != plain_uniform.verdict.accepts;
            acc.rate0_mismatches +=
                on_uniform.verdict.votes_reject !=
                plain_uniform.verdict.votes_reject;
            acc.rate0_mismatches +=
                on_far.verdict.accepts != plain_far.verdict.accepts;
          }
        },
        [](Partial& total, const Partial& p) {
          total.reject_uniform += p.reject_uniform;
          total.accept_far += p.accept_far;
          total.quorum_misses += p.quorum_misses;
          total.faults += p.faults;
          total.rate0_mismatches += p.rate0_mismatches;
          total.rounds.merge(p.rounds);
        });
    const double p_reject_uniform =
        static_cast<double>(sweep.reject_uniform) /
        static_cast<double>(num_runs);
    const double p_accept_far = static_cast<double>(sweep.accept_far) /
                                static_cast<double>(num_runs);
    table.row()
        .add(c.name)
        .add(c.rate, 2)
        .add(static_cast<std::uint64_t>(c.quorum))
        .add(p_reject_uniform, 3)
        .add(p_accept_far, 3)
        .add(sweep.quorum_misses)
        .add(static_cast<double>(sweep.faults) /
                 static_cast<double>(2 * num_runs),
             1)
        .add(sweep.rounds.show());
    std::string tag = std::string(c.name) + ",rate=" + std::to_string(c.rate);
    if (c.quorum != strict_quorum) tag += ",loose";
    // Soundness is one-sided: far inputs stay caught at every rate.
    bench::record("false_accept[" + tag + "]", 1.0 / 3.0, p_accept_far,
                  "reject-bias keeps soundness under faults");
    if (c.rate == 0.0) {
      bench::record("rate0_mismatches[" + std::string(c.name) + "]", 0.0,
                    static_cast<double>(sweep.rate0_mismatches),
                    "fault-free resilient == plain protocol, per trial");
      bench::record("false_reject[" + tag + "]", 1.0 / 3.0,
                    p_reject_uniform, "Theorem 1.4 bound, fault-free");
    } else {
      bench::record_value("false_reject[" + tag + "]", p_reject_uniform);
    }
    if (c.quorum == loose_quorum) {
      bench::record("loose_quorum_recovers[" + tag + "]", 0.0,
                    static_cast<double>(sweep.quorum_misses),
                    "a 12.5% loss budget absorbs a 2% fault rate (star)");
    }
    bench::record_value("quorum_misses[" + tag + "]", sweep.quorum_misses);
    bench::record_value("faults_per_run[" + tag + "]",
                        sweep.faults / (2 * num_runs));
  }
  bench::print(table);
  bench::note("At rate 0 the resilient protocol reproduces the plain\n"
              "verdict stream bit-for-bit (rate0_mismatches = 0). Under the\n"
              "strict quorum any real fault rate starves the root's token\n"
              "accounting and the reject-bias fires (P[rej|U] -> 1): the\n"
              "root refuses to accept on statistics it cannot vouch for.\n"
              "The loose-quorum star row shows the trade: a 12.5% loss\n"
              "budget absorbs the 2% fault rate, completeness returns, and\n"
              "soundness (P[acc|far] <= 1/3) never depended on it.");
}

void crash_quorum() {
  bench::section("crash-stop quorum (star of 4096, quorum = 4000)");
  const std::uint64_t n = 1 << 12;
  const std::uint32_t k = 4096;
  const auto plan = congest::plan_congest(n, k, 1.2);
  if (!plan.feasible) {
    bench::note("plan infeasible — skipped");
    return;
  }
  const Graph graph = Graph::star(k);
  const core::AliasSampler uniform_sampler(core::uniform(n));
  const std::uint64_t quorum = 4000;
  const std::uint64_t seed = 15001;

  // Find the elected leader for this seed with a fault-free probe run, so
  // the crash schedule can target leaves that are neither the root nor the
  // star center (crashing either collapses the whole tree).
  congest::CongestSetup probe = congest::make_congest_setup(plan, graph);
  const std::uint32_t leader =
      congest::run_congest_uniformity(plan, probe, uniform_sampler, seed)
          .leader;

  stats::TextTable table({"crashes", "nodes reporting", "quorum met",
                          "verdict", "faults"});
  for (const std::uint64_t crashes : {k - quorum, k - quorum + 1}) {
    net::FaultPlan faults;
    std::uint64_t scheduled = 0;
    for (std::uint32_t v = 1; v < k && scheduled < crashes; ++v) {
      if (v == leader) continue;
      faults.add_crash(v, 0);
      ++scheduled;
    }
    congest::CongestResilience opts;
    opts.enabled = true;
    opts.quorum_nodes = quorum;
    congest::CongestSetup setup =
        congest::make_congest_setup(plan, graph, opts, &faults);
    const auto result =
        congest::run_congest_uniformity(plan, setup, uniform_sampler, seed);
    table.row()
        .add(crashes)
        .add(result.nodes_reporting)
        .add(result.quorum_met ? "yes" : "no")
        .add(result.verdict.accepts ? "accept" : "reject")
        .add(result.metrics.faults.total());
    const std::string tag = "crashes=" + std::to_string(crashes);
    bench::record("coverage[" + tag + "]",
                  static_cast<double>(k - crashes),
                  static_cast<double>(result.nodes_reporting),
                  "every surviving node's report reaches the root");
    const bool expect_met = crashes <= k - quorum;
    bench::record("quorum_met[" + tag + "]", expect_met ? 1.0 : 0.0,
                  result.quorum_met ? 1.0 : 0.0,
                  "quorum holds iff coverage >= quorum");
    if (!expect_met) {
      bench::record("reject_bias[" + tag + "]", 1.0,
                    result.verdict.rejects() ? 1.0 : 0.0,
                    "missed quorum forces reject (one-sided soundness)");
    }
  }
  bench::print(table);
  bench::note("Exactly k - quorum crashes still meet the quorum (coverage\n"
              "counts every survivor); one more crash tips it and the root\n"
              "rejects regardless of the collision statistics — the\n"
              "reject-bias that keeps soundness one-sided.");
}

void local_sweep() {
  bench::section("LOCAL under gather faults (ring of 4096, n = 2^13, "
                  "eps = 1.5, 40 runs/side)");
  const std::uint64_t n = 1 << 13;
  const Graph graph = Graph::ring(4096);
  const auto plan = local::plan_local(n, graph, 1.5, 1.0 / 3.0, 16, 7);
  if (!plan.feasible) {
    bench::note("plan infeasible — skipped");
    return;
  }
  const core::AliasSampler uniform_sampler(core::uniform(n));
  const core::AliasSampler far_sampler(core::far_instance(n, 1.5));
  const double rates[] = {0.0, 0.05, 0.2};

  stats::TextTable table({"rate", "P[rej|U]", "P[acc|far]", "shortfalls/run",
                          "faults/run"});
  struct Partial {
    std::uint64_t reject_uniform = 0;
    std::uint64_t accept_far = 0;
    std::uint64_t shortfalls = 0;
    std::uint64_t faults = 0;
    std::uint64_t rate0_mismatches = 0;
  };
  const std::uint64_t num_runs = bench::runs(40);
  net::ProtocolDriver plain = local::make_local_driver(plan, graph);
  for (const double rate : rates) {
    net::FaultPlan faults(/*salt=*/0xE15);
    net::FaultRates fr;
    fr.drop = rate;  // LOCAL messages are unbounded; drop is the threat
    faults.set_rates(fr);
    net::ProtocolDriver driver =
        local::make_local_driver(plan, graph, &faults);
    const Partial sweep = stats::map_trials<Partial>(
        num_runs,
        [&](Partial& acc, std::uint64_t t) {
          const bool traced = bench::traced_trial(t) && rate == 0.0;
          const auto on_uniform = local::run_local_uniformity(
              plan, driver, uniform_sampler, 100 + t, traced);
          const auto on_far = local::run_local_uniformity(
              plan, driver, far_sampler, 200 + t, traced);
          acc.reject_uniform += on_uniform.verdict.rejects();
          acc.accept_far += on_far.verdict.accepts;
          acc.shortfalls += on_uniform.mis_shortfalls;
          acc.shortfalls += on_far.mis_shortfalls;
          acc.faults += on_uniform.gather_metrics.faults.total();
          acc.faults += on_far.gather_metrics.faults.total();
          if (rate == 0.0) {
            // Zero-rate fault mode must not perturb the protocol: same
            // seeds through the plain (strict-mode) driver.
            const auto plain_uniform = local::run_local_uniformity(
                plan, plain, uniform_sampler, 100 + t, false);
            acc.rate0_mismatches +=
                on_uniform.verdict.accepts != plain_uniform.verdict.accepts;
            acc.rate0_mismatches += on_uniform.verdict.votes_reject !=
                                    plain_uniform.verdict.votes_reject;
          }
        },
        [](Partial& total, const Partial& p) {
          total.reject_uniform += p.reject_uniform;
          total.accept_far += p.accept_far;
          total.shortfalls += p.shortfalls;
          total.faults += p.faults;
          total.rate0_mismatches += p.rate0_mismatches;
        });
    const double p_reject_uniform = static_cast<double>(sweep.reject_uniform) /
                                    static_cast<double>(num_runs);
    const double p_accept_far =
        static_cast<double>(sweep.accept_far) / static_cast<double>(num_runs);
    table.row()
        .add(rate, 2)
        .add(p_reject_uniform, 3)
        .add(p_accept_far, 3)
        .add(static_cast<double>(sweep.shortfalls) /
                 static_cast<double>(2 * num_runs),
             2)
        .add(static_cast<double>(sweep.faults) /
                 static_cast<double>(2 * num_runs),
             1);
    const std::string tag = "rate=" + std::to_string(rate);
    bench::record("false_accept[" + tag + "]", 1.0 / 3.0, p_accept_far,
                  "shortfall reject votes keep LOCAL soundness");
    if (rate == 0.0) {
      bench::record("rate0_mismatches", 0.0,
                    static_cast<double>(sweep.rate0_mismatches),
                    "zero-rate fault mode == strict mode, per trial");
      bench::record("false_reject[" + tag + "]", 1.0 / 3.0, p_reject_uniform,
                    "Section 6 bound, fault-free");
    } else {
      bench::record_value("false_reject[" + tag + "]", p_reject_uniform);
      bench::record_value("shortfalls_per_run[" + tag + "]",
                          sweep.shortfalls / (2 * num_runs));
    }
  }
  bench::print(table);
  bench::note("Dropped gather messages starve MIS nodes below their sample\n"
              "quota; each shortfall becomes a reject vote, so uniform\n"
              "inputs over-reject under heavy faults while far inputs are\n"
              "never helped toward acceptance.");
}

void mis_fallback() {
  bench::section("Luby MIS phase-cap fallback (ring of 1024)");
  const std::uint32_t k = 1024;
  const Graph graph = Graph::ring(k);
  stats::TextTable table({"drop rate", "phase cap", "|MIS|", "conflicts",
                          "uncovered", "fallback outs", "phases run"});
  struct Case {
    double drop;
    std::uint64_t max_phases;
  };
  // Luby's silence-is-victory rule means drops can never hang it: an
  // undecided node that hears nothing wins by default, so each contention
  // cluster shrinks every phase. What drops DO break is correctness — a
  // lost JOINED lets both endpoints join (conflicts). The phase cap is the
  // orthogonal liveness backstop: a cap below Luby's natural phase count
  // (the drop-0, cap-2 row) resigns every straggler to OUT at a known
  // round, trading coverage (uncovered nodes) for a deterministic bound.
  const Case cases[] = {{0.0, 16}, {0.0, 2}, {0.3, 16}, {0.6, 4}};
  for (const Case& c : cases) {
    net::FaultPlan faults(/*salt=*/0x7151);
    net::FaultRates fr;
    fr.drop = c.drop;
    faults.set_rates(fr);
    const auto result = local::compute_mis(
        graph, 42, c.drop > 0.0 ? &faults : nullptr, c.max_phases);
    std::uint64_t mis_size = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t uncovered = 0;
    for (std::uint32_t v = 0; v < k; ++v) {
      mis_size += result.in_mis[v];
      if (result.in_mis[v] && result.in_mis[(v + 1) % k]) ++conflicts;
      if (!result.in_mis[v] && !result.in_mis[(v + 1) % k] &&
          !result.in_mis[(v + k - 1) % k]) {
        ++uncovered;
      }
    }
    table.row()
        .add(c.drop, 1)
        .add(c.max_phases)
        .add(mis_size)
        .add(conflicts)
        .add(uncovered)
        .add(result.fallback_outs)
        .add(result.phases);
    const std::string tag = "drop=" + std::to_string(c.drop) +
                            ",cap=" + std::to_string(c.max_phases);
    // The resignation round itself counts as one extra phase.
    bench::record("phases_within_cap[" + tag + "]", 1.0,
                  result.phases <= c.max_phases + 1 ? 1.0 : 0.0,
                  "the cap bounds the run deterministically");
    if (c.drop == 0.0) {
      bench::record("no_conflicts_lossless[" + tag + "]", 0.0,
                    static_cast<double>(conflicts),
                    "independence holds on a lossless network, capped or "
                    "not");
      if (c.max_phases >= 16) {
        bench::record("no_fallback_when_healthy", 0.0,
                      static_cast<double>(result.fallback_outs),
                      "a generous cap never fires on a lossless network");
      } else {
        bench::record("tight_cap_fires", 1.0,
                      result.fallback_outs > 0 ? 1.0 : 0.0,
                      "a cap below Luby's natural phase count resigns "
                      "stragglers instead of hanging");
      }
    } else {
      bench::record_value("fallback_outs[" + tag + "]", result.fallback_outs);
      bench::record_value("conflicts[" + tag + "]", conflicts);
    }
  }
  bench::print(table);
  bench::note("Drops never hang Luby (silence reads as victory) — they\n"
              "inflate the MIS with conflicting joins instead, which is why\n"
              "the LOCAL tester charges shortfalls as reject votes rather\n"
              "than trusting a faulted MIS. The cap is the liveness half:\n"
              "even set below the natural phase count it ends the run at a\n"
              "known round, resigning stragglers to OUT (never into\n"
              "conflicts) at the price of coverage holes.");
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::banner("E15: fault tolerance under deterministic fault injection",
                "hardened protocol variants (DESIGN.md §11)");
  congest_sweep();
  crash_quorum();
  local_sweep();
  mis_fallback();
  return bench::finish();
}
