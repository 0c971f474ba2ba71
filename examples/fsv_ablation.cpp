// Experiment A1 — the point of the paper: what fsv protection buys.
//
// Two machines are synthesized from the same flow table: FANTOM (with
// fsv, hazard holds and consensus repair) and the classic baseline
// (no fsv).  Both run the same MIC workloads through the same handshake
// harness while the input line-delay skew sweeps upward.  The baseline
// starts committing function hazards (wrong successor states) as soon as
// skew exceeds its direct excitation path; FANTOM stays clean until far
// beyond, and within the paper's timing assumption (line delay < loop
// delay) it never fails.  The area overhead column quantifies §8's
// "resultant state machine has some overhead".

#include <cstdio>

#include "bench_suite/benchmarks.hpp"
#include "core/synthesize.hpp"
#include "sim/harness.hpp"

namespace {

using seance::bench_suite::table1_suite;

int walk_failures(const seance::core::FantomMachine& machine, int skew,
                  std::uint64_t seed, int steps) {
  seance::sim::HarnessOptions options;
  options.max_skew = static_cast<seance::sim::Time>(skew);
  options.seed = seed;
  options.delays.seed = seed * 101 + 7;
  seance::sim::FantomHarness harness(machine, options);
  if (!harness.reset(0, machine.table.stable_columns(0).front())) return steps;
  return harness.random_walk(steps, seed * 13 + 1).failures;
}

void print_failure_sweep() {
  std::printf("\n=== Hazard manifestation vs input skew (failures per 600 steps, 3 seeds) ===\n");
  std::printf("%-14s | %8s |", "Benchmark", "machine");
  for (int skew = 0; skew <= 8; skew += 2) std::printf(" skew=%d |", skew);
  std::printf("  gates (overhead)\n");
  std::printf("---------------+----------+--------+--------+--------+--------+--------+------------------\n");
  for (const auto& bench : table1_suite()) {
    const auto table = seance::bench_suite::load(bench);
    // FANTOM: fsv + hazard holds + consensus repair.
    const auto fantom = seance::core::synthesize(table);
    // Baseline: classic USTT machine with consensus gates but no fsv —
    // isolates the *function* M-hazard protection the paper contributes.
    seance::core::SynthesisOptions base_options;
    base_options.add_fsv = false;
    const auto baseline = seance::core::synthesize(table, base_options);
    // Naive: essential SOP only (no consensus, no fsv).
    seance::core::SynthesisOptions naive_options;
    naive_options.add_fsv = false;
    naive_options.consensus_repair = false;
    const auto naive = seance::core::synthesize(table, naive_options);

    const int fantom_gates = fantom.gate_count();
    const int baseline_gates = baseline.gate_count();
    const struct {
      const seance::core::FantomMachine* machine;
      const char* label;
    } rows[] = {{&fantom, "FANTOM"}, {&baseline, "baseline"}, {&naive, "naive"}};
    for (const auto& row : rows) {
      std::printf("%-14s | %8s |", bench.name.c_str(), row.label);
      for (int skew = 0; skew <= 8; skew += 2) {
        int failures = 0;
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
          failures += walk_failures(*row.machine, skew, seed, 200);
        }
        std::printf(" %6d |", failures);
      }
      if (row.machine == &fantom) {
        std::printf("  %d (+%.0f%% over baseline)\n", fantom_gates,
                    100.0 * (fantom_gates - baseline_gates) /
                        (baseline_gates > 0 ? baseline_gates : 1));
      } else {
        std::printf("  %d\n", row.machine->gate_count());
      }
    }
  }
  std::printf("(skew <= 2 is within the paper's line-delay < loop-delay assumption;\n"
              " baseline = consensus gates without fsv, naive = essential SOP only)\n\n");
}

}  // namespace

int main() {
  print_failure_sweep();
  return 0;
}
