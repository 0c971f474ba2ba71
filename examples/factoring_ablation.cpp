// Experiment F5 — ablation of the step-7 hazard factoring (Fig. 5).
//
// Compares, per benchmark:
//   * factored Y (hold/excitation with first-level gates) vs flat SOP,
//   * depth, gate count and literal count of the resulting networks.
// The factored form pins Y depth at <= 5 (the paper's constant column)
// and removes complemented-input first-level gates.

#include <algorithm>
#include <cstdio>

#include "bench_suite/benchmarks.hpp"
#include "core/synthesize.hpp"

namespace {

using seance::bench_suite::table1_suite;

struct Shape {
  int depth = 0;
  int gates = 0;
  int literals = 0;
};

Shape y_shape(const seance::core::FantomMachine& machine) {
  Shape shape;
  for (const auto& eq : machine.y) {
    shape.depth = std::max(shape.depth, eq.expr->depth());
    shape.gates += eq.expr->gate_count();
    shape.literals += eq.expr->literal_count();
  }
  return shape;
}

void print_ablation() {
  std::printf("\n=== Fig. 5 factoring ablation (Y networks) ===\n");
  std::printf("%-14s | %17s | %17s\n", "Benchmark", "factored d/g/l", "flat SOP d/g/l");
  std::printf("---------------+-------------------+------------------\n");
  for (const auto& bench : table1_suite()) {
    const auto table = seance::bench_suite::load(bench);
    seance::core::SynthesisOptions factored;
    seance::core::SynthesisOptions flat;
    flat.factor = false;
    const Shape f = y_shape(seance::core::synthesize(table, factored));
    const Shape s = y_shape(seance::core::synthesize(table, flat));
    std::printf("%-14s | %4d /%4d /%5d | %4d /%4d /%5d\n", bench.name.c_str(),
                f.depth, f.gates, f.literals, s.depth, s.gates, s.literals);
  }
  std::printf("(d = max depth, g = gates, l = literals; flat SOP uses input inverters)\n\n");
}

}  // namespace

int main() {
  print_ablation();
  return 0;
}
