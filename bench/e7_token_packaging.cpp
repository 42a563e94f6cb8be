// E7 — Theorem 5.1: tau-token packaging solves Definition 2 in O(D + tau)
// CONGEST rounds.
//
// Tables:
//  1. Topology x tau sweep: measured rounds against the D and tau terms,
//     plus a full audit of Definition 2's three invariants on every run.
//  2. Round decomposition: at fixed tau, rounds grow linearly in D (line
//     graphs of growing length); at fixed D, linearly in tau.
//  3. Bandwidth: the widest message across all runs stays within the
//     declared O(log n + log k) budget.

#include <map>

#include "bench_util.hpp"
#include "dut/congest/uniformity.hpp"
#include "net_bench.hpp"

namespace {

using namespace dut;
using net::Graph;

bool audit_definition_two(const congest::PackagingRunResult& result,
                          std::uint32_t k, std::uint64_t tau) {
  std::map<std::uint64_t, int> multiplicity;
  for (const auto& package : result.packages) {
    if (package.size() != tau) return false;  // requirement (1)
    for (const std::uint64_t token : package) {
      if (token >= k) return false;
      if (++multiplicity[token] > 1) return false;  // requirement (2)
    }
  }
  return result.tokens_dropped <= tau - 1;  // requirement (3)
}

void topology_sweep() {
  bench::section("topology x tau sweep (k ~ 1024 nodes, Monte-Carlo "
                 "audited over 20 seeds)");
  stats::TextTable table({"topology", "D", "tau", "rounds", "5D+tau+20",
                          "packages", "dropped", "invariants"});
  struct Case {
    const char* name;
    Graph graph;
  };
  const Case cases[] = {
      {"line", Graph::line(1024)},
      {"ring", Graph::ring(1024)},
      {"star", Graph::star(1024)},
      {"grid 32x32", Graph::grid(32, 32)},
      {"tree (arity 3)", Graph::balanced_tree(1024, 3)},
      {"hypercube", Graph::hypercube(10)},
      {"random", Graph::random_connected(1024, 2.0, 9)},
  };
  // Definition 2 must hold for every seed, not just one: each trial runs
  // the full protocol under seed 777 + t (a fresh external-id permutation,
  // hence a fresh leader and BFS tree) and audits all three invariants.
  struct Partial {
    std::uint64_t audits_failed = 0;
    bench::Spread rounds;
    bench::Spread packages;
    bench::Spread dropped;
  };
  const std::uint64_t num_runs = bench::runs(20);
  double total_seconds = 0.0;
  for (const Case& c : cases) {
    const std::uint32_t d = c.graph.diameter();
    for (std::uint64_t tau : {4ULL, 32ULL}) {
      congest::PackagingSetup setup =
          congest::make_packaging_setup(c.graph, tau);
      const bench::StopWatch watch;
      const Partial sweep = stats::map_trials<Partial>(
          num_runs,
          [&](Partial& acc, std::uint64_t t) {
            const auto result = congest::run_token_packaging(
                setup, 777 + t, bench::traced_trial(t));
            if (!audit_definition_two(result, c.graph.num_nodes(), tau)) {
              ++acc.audits_failed;
            }
            acc.rounds.add(result.metrics.rounds);
            acc.packages.add(result.packages.size());
            acc.dropped.add(result.tokens_dropped);
          },
          [](Partial& total, const Partial& p) {
            total.audits_failed += p.audits_failed;
            total.rounds.merge(p.rounds);
            total.packages.merge(p.packages);
            total.dropped.merge(p.dropped);
          });
      total_seconds += watch.seconds();
      table.row()
          .add(c.name)
          .add(static_cast<std::uint64_t>(d))
          .add(tau)
          .add(sweep.rounds.show())
          .add(static_cast<std::uint64_t>(5ULL * d + tau + 20))
          .add(sweep.packages.show())
          .add(sweep.dropped.show())
          .add(sweep.audits_failed == 0 ? "ok" : "VIOLATED");
      bench::record("rounds[" + std::string(c.name) +
                        ",tau=" + std::to_string(tau) + "]",
                    static_cast<double>(5ULL * d + tau + 20),
                    static_cast<double>(sweep.rounds.max),
                    "Theorem 5.1: rounds within the linear D + tau envelope");
      bench::record("audits_failed[" + std::string(c.name) +
                        ",tau=" + std::to_string(tau) + "]",
                    0.0, static_cast<double>(sweep.audits_failed),
                    "Definition 2 holds for every seed");
    }
  }
  bench::record_seconds("topology_sweep", total_seconds);
  bench::print(table);
  bench::note("Every seed satisfies Definition 2 on every topology; the\n"
              "rounds column shows the min..max across seeds (the BFS tree\n"
              "depends on the id permutation) and stays within the linear\n"
              "D + tau envelope.");
}

void scaling() {
  bench::section("round scaling: linear in D (tau = 8) and in tau (D = 30)");
  stats::TextTable in_d({"line length (D+1)", "rounds", "rounds/D"});
  for (std::uint32_t k : {64u, 256u, 1024u, 4096u}) {
    const Graph line = Graph::line(k);
    congest::PackagingSetup setup = congest::make_packaging_setup(line, 8);
    const auto result = congest::run_token_packaging(setup, 5);
    in_d.row()
        .add(static_cast<std::uint64_t>(k))
        .add(result.metrics.rounds)
        .add(static_cast<double>(result.metrics.rounds) / (k - 1), 3);
  }
  bench::print(in_d);

  stats::TextTable in_tau({"tau", "rounds"});
  const Graph star = Graph::star(1024);  // D = 2: the tau term dominates
  for (std::uint64_t tau : {4ULL, 16ULL, 64ULL, 256ULL}) {
    congest::PackagingSetup setup = congest::make_packaging_setup(star, tau);
    const auto result = congest::run_token_packaging(setup, 5);
    in_tau.row().add(tau).add(result.metrics.rounds);
  }
  bench::print(in_tau);
  bench::note("rounds/D converges to a constant (~3.2: flood + echo + the\n"
              "convergecasts); on the 2-hop star the tau term dominates and\n"
              "rounds grow ~linearly in tau — the two halves of O(D + tau).");
}

void bandwidth() {
  bench::section("bandwidth audit (k = 4096 random graph, tau = 16)");
  const Graph g = Graph::random_connected(4096, 2.0, 4);
  congest::PackagingSetup setup = congest::make_packaging_setup(g, 16);
  const auto result = congest::run_token_packaging(setup, 6);
  std::printf("max message bits: %llu (budget 3 + 2*ceil(log2 k) = %u)\n",
              static_cast<unsigned long long>(result.metrics.max_message_bits),
              3 + 2 * net::bits_for(4096));
  bench::record("max_message_bits",
                static_cast<double>(3 + 2 * net::bits_for(4096)),
                static_cast<double>(result.metrics.max_message_bits),
                "widest message stays within the O(log n + log k) budget");
  std::printf("total traffic: %.1f KB over %llu messages\n",
              static_cast<double>(result.metrics.total_bits) / 8192.0,
              static_cast<unsigned long long>(result.metrics.messages));
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::banner("E7: tau-token packaging", "Theorem 5.1 (Section 5)");
  topology_sweep();
  scaling();
  bandwidth();
  return bench::finish();
}
