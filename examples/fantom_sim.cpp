// Experiment F1/F2 — the FANTOM architecture of Figs. 1-2 in operation.
//
// Assembles the complete gate-level machine (combinational core + VOM
// handshake) for each benchmark and drives long random-walk workloads
// with multiple-input changes through the G/VOM protocol.  Reports the
// hazard-freedom scoreboard (failures must be zero within the timing
// assumptions).

#include <cstdio>

#include "bench_suite/benchmarks.hpp"
#include "core/synthesize.hpp"
#include "sim/harness.hpp"

namespace {

using seance::bench_suite::table1_suite;

void print_walks() {
  std::printf("\n=== FANTOM handshake walks (random MIC workloads, skew <= 2) ===\n");
  std::printf("%-14s | %7s | %9s | %8s | %9s | %10s\n", "Benchmark", "steps",
              "MIC steps", "failures", "Z glitch", "gates");
  std::printf("---------------+---------+-----------+----------+-----------+-----------\n");
  for (const auto& bench : table1_suite()) {
    const auto table = seance::bench_suite::load(bench);
    const auto machine = seance::core::synthesize(table);
    seance::sim::HarnessOptions options;
    options.max_skew = 2;
    seance::sim::FantomHarness harness(machine, options);
    (void)harness.reset(0, machine.table.stable_columns(0).front());
    const auto summary = harness.random_walk(2000, 17);
    std::printf("%-14s | %7d | %9d | %8d | %9d | %10d\n", bench.name.c_str(),
                summary.applied, summary.mic_steps, summary.failures,
                summary.z_glitches, harness.net().stats().logic_gates);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  print_walks();
  return 0;
}
