// Experiment T1 — the paper's Table 1, with §6's runtime claim.
//
//   Benchmark | fsv Depth | Y Depth | Total Depth
//
// "Depth" is the number of gate levels of the fsv equation and of the
// deepest next-state equation; Total is the worst-case level count to
// reach stability (VOM assertion) = fsv + Y + 1 (gate A).  Paper values
// (DAC'91 Table 1) are printed alongside for comparison.  Absolute
// equality is not expected — the benchmark tables are reconstructions
// (DESIGN.md §4) — but the structure (Y depth pinned at 5 by the Fig. 5
// factoring, fsv depth 2-4, totals 8-10) should match.
//
// The last column times the full seven-step pipeline per benchmark.  §6:
// "SEANCE takes about four seconds of CPU time on a Digital Equipment
// VAXStation 3100 to run an example."  A modern machine is ~10^3-10^4x a
// VAXStation 3100 (~3 VUPS), so anything in the 0.1-10 ms range is
// order-of-magnitude consistent with the paper.  Per-layer timing of the
// pipeline lives in perfbench/.

#include <chrono>
#include <cstdio>

#include "bench_suite/benchmarks.hpp"
#include "core/synthesize.hpp"

namespace {

using seance::bench_suite::table1_suite;
using Clock = std::chrono::steady_clock;

void print_table1() {
  std::printf("\n=== Table 1: Results Using MCNC Benchmarks (reconstruction) ===\n");
  std::printf("%-14s | %-19s | %-19s | %-19s | %-16s | %s\n", "Benchmark",
              "fsv Depth (paper)", "Y Depth (paper)", "Total (paper)",
              "states (reduced)", "synth ms");
  std::printf("---------------+---------------------+---------------------+"
              "---------------------+------------------+---------\n");
  for (const auto& bench : table1_suite()) {
    const auto table = seance::bench_suite::load(bench);
    const auto start = Clock::now();
    const auto machine = seance::core::synthesize(table);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start).count();
    const auto depths = machine.depth_report();
    char states[32];
    std::snprintf(states, sizeof(states), "%d -> %d", table.num_states(),
                  machine.table.num_states());
    std::printf("%-14s | %4d  (%d)           | %4d  (%d)           | %4d  (%d)"
                "           | %-16s | %8.3f\n",
                bench.name.c_str(), depths.fsv_depth, bench.paper_fsv_depth,
                depths.y_depth, bench.paper_y_depth, depths.total_depth,
                bench.paper_total_depth, states, ms);
  }
  std::printf("(synth ms: one cold run of the full pipeline; paper: ~4 s on a "
              "VAXStation 3100)\n\n");
}

}  // namespace

int main() {
  print_table1();
  return 0;
}
