// Packed truth tables (logic/truth_table.hpp) against the per-point
// evaluators they replace in the exhaustive passes: Cover::eval,
// Expr::eval and a cube's minterm list, at every point of the space.
// Expression tables are checked on the shapes the pipeline builds, whose
// products take the cube fast path, and on the shapes that path must
// leave to the sliced recursion.

#include "logic/truth_table.hpp"

#include <gtest/gtest.h>

#include <random>

#include "bench_suite/benchmarks.hpp"
#include "core/synthesize.hpp"
#include "hazard/factor.hpp"

namespace seance::logic {
namespace {

Cube random_cube(int num_vars, std::mt19937_64& rng) {
  std::uint32_t care = 0;
  for (int i = 0; i < num_vars; ++i) {
    if (rng() % 3 != 0) care |= 1u << i;
  }
  return Cube(num_vars, care, static_cast<std::uint32_t>(rng()));
}

Cover random_cover(int num_vars, std::mt19937_64& rng) {
  Cover cover(num_vars);
  const int cubes = static_cast<int>(rng() % 12);
  for (int k = 0; k < cubes; ++k) cover.add(random_cube(num_vars, rng));
  return cover;
}

ExprPtr random_expr(int num_vars, int depth, std::mt19937_64& rng) {
  const auto leaf = [&]() -> ExprPtr {
    if (rng() % 8 == 0) return Expr::constant(rng() % 2 == 0);
    return Expr::var(static_cast<int>(rng() % static_cast<std::uint64_t>(num_vars)));
  };
  if (depth == 0 || rng() % 4 == 0) return leaf();
  std::vector<ExprPtr> kids;
  const int count = 1 + static_cast<int>(rng() % 4);
  for (int k = 0; k < count; ++k) kids.push_back(random_expr(num_vars, depth - 1, rng));
  switch (rng() % 4) {
    case 0:
      return Expr::negate(kids.front());
    case 1:
      return Expr::make_and(std::move(kids));
    case 2:
      return Expr::make_or(std::move(kids));
    default:
      return Expr::make_nor(std::move(kids));
  }
}

void expect_matches(const ExprPtr& e, int num_vars) {
  const TruthTable table = TruthTable::of(e, num_vars);
  for (Minterm m = 0; m < (1u << num_vars); ++m) {
    ASSERT_EQ(table.test(m), e->eval(m)) << e->to_string() << " at " << m;
  }
}

TEST(TruthTable, StartsAtConstantZero) {
  for (int n : {0, 3, 6, 9}) {
    const TruthTable table(n);
    for (Minterm m = 0; m < (1u << n); ++m) EXPECT_FALSE(table.test(m));
  }
  EXPECT_THROW(TruthTable(-1), std::invalid_argument);
  EXPECT_THROW(TruthTable(kMaxVars + 1), std::invalid_argument);
}

TEST(TruthTable, CoverTableMatchesEvalEverywhere) {
  for (int n = 0; n <= 16; ++n) {
    std::mt19937_64 rng(1000 + static_cast<std::uint64_t>(n));
    for (int trial = 0; trial < 4; ++trial) {
      const Cover cover = random_cover(n, rng);
      // The cover's own space, a wider one (its unused variables free)
      // and, where there is one, a narrower one (dropped variables read 0).
      for (int space : {n, n + 2, n - 1}) {
        if (space < 0) continue;
        const TruthTable table = TruthTable::of(cover, space);
        for (Minterm m = 0; m < (1u << space); ++m) {
          ASSERT_EQ(table.test(m), cover.eval(m))
              << cover.to_string() << " over " << space << " vars at " << m;
        }
      }
    }
  }
}

TEST(TruthTable, ContainsMatchesTheCubesMinterms) {
  for (int n = 1; n <= 12; ++n) {
    std::mt19937_64 rng(2000 + static_cast<std::uint64_t>(n));
    for (int trial = 0; trial < 8; ++trial) {
      const Cover cover = random_cover(n, rng);
      const TruthTable table = TruthTable::of(cover, n);
      for (int probe = 0; probe < 16; ++probe) {
        const Cube cube = random_cube(n, rng);
        bool all = true;
        for (Minterm m : cube.minterms()) all = all && cover.eval(m);
        EXPECT_EQ(table.contains(cube), all) << cube.to_string();
      }
    }
  }
}

TEST(TruthTable, AddedCubeIsContained) {
  std::mt19937_64 rng(3000);
  for (int n = 0; n <= 10; ++n) {
    TruthTable table(n);
    Cover cover(n);
    for (int k = 0; k < 5; ++k) {
      const Cube cube = random_cube(n, rng);
      table.add(cube);
      cover.add(cube);
      EXPECT_TRUE(table.contains(cube));
      EXPECT_EQ(table, TruthTable::of(cover, n));
    }
  }
}

TEST(TruthTable, ExprTableMatchesEvalEverywhere) {
  for (int n = 1; n <= 12; ++n) {
    std::mt19937_64 rng(4000 + static_cast<std::uint64_t>(n));
    for (int trial = 0; trial < 8; ++trial) expect_matches(random_expr(n, 4, rng), n);
  }
  // Variables at or above the table's width read 0, as in Expr::eval.
  expect_matches(Expr::make_or({Expr::var(1), Expr::negate(Expr::var(9))}), 4);
  expect_matches(Expr::constant(true), 0);
}

// The three expression builders of the equation stage over random
// covers of 1-16 variables: first-level SOP (AND over variables and a
// NOR of the complemented ones), plain SOP (AND over variables and
// NOT-variables), and the factored next-state form, whose hold term
// AND(y, OR(...)) is not a product and goes through the recursion.
TEST(TruthTable, PipelineExpressionShapesMatchEval) {
  for (int n = 1; n <= 16; ++n) {
    std::mt19937_64 rng(6000 + static_cast<std::uint64_t>(n));
    for (int trial = 0; trial < 3; ++trial) {
      Cover cover = random_cover(n, rng);
      const int y = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
      // A cube with y positive, so the factored form has a hold term.
      const Cube held = random_cube(n, rng);
      cover.add(Cube(n, held.care() | (1u << y), held.value() | (1u << y)));
      const TruthTable want = TruthTable::of(cover, n);
      const ExprPtr factored = hazard::factor_next_state(cover, y);
      // The hold term comes last, or alone.
      const ExprPtr& hold =
          factored->op() == Op::kOr ? factored->kids().back() : factored;
      ASSERT_EQ(hold->op(), Op::kAnd) << cover.to_string();
      ASSERT_EQ(hold->kids().front()->var_index(), y) << cover.to_string();
      for (const ExprPtr& e : {first_level_sop_expr(cover), sop_expr(cover), factored}) {
        expect_matches(e, n);
        EXPECT_EQ(TruthTable::of(e, n), want) << e->to_string();
      }
    }
  }
}

// Shapes the cube fast path must refuse, alone and beside products it
// takes: a product of a variable and its complement, a NOR or a NOT
// over a gate, and variables at or above the table's width, which read
// 0 (a complemented one reads 1).
TEST(TruthTable, ShapesOutsideTheCubeFastPathMatchEval) {
  const auto v = [](int i) { return Expr::var(i); };
  const auto n_ = [](ExprPtr e) { return Expr::negate(std::move(e)); };
  const auto all = [](std::vector<ExprPtr> kids) { return Expr::make_and(std::move(kids)); };
  const auto any = [](std::vector<ExprPtr> kids) { return Expr::make_or(std::move(kids)); };
  const auto nor = [](std::vector<ExprPtr> kids) { return Expr::make_nor(std::move(kids)); };
  const std::vector<ExprPtr> refused{
      // x·x̄, as NOT and as NOR.
      all({v(1), n_(v(1))}),
      all({v(2), nor({v(0), v(2)})}),
      all({n_(v(3)), v(0), v(3)}),
      // NOR over a gate.
      nor({all({v(0), v(1)}), v(2)}),
      nor({v(0), nor({v(1), v(2)})}),
      all({v(0), nor({all({v(1), v(2)})})}),
      // NOT over a gate.
      n_(all({v(0), v(1)})),
      n_(any({v(0), n_(v(2))})),
      all({v(0), n_(any({v(1), v(3)}))}),
      // Variables at or above the width (here 4, and 9 at 8 variables).
      v(4),
      n_(v(5)),
      all({v(1), v(4)}),
      all({v(1), n_(v(5))}),
      nor({v(0), v(6)}),
      all({v(2), nor({v(7), v(1)})}),
  };
  for (const int width : {4, 8}) {
    for (const ExprPtr& e : refused) {
      expect_matches(e, width);
      // Beside products the fast path takes, in both orders.
      const ExprPtr product = all({v(0), nor({v(3)})});
      expect_matches(any({product, e, v(1)}), width);
      expect_matches(any({e, product}), width);
      expect_matches(nor({e, product}), width);
      expect_matches(all({any({e, product}), n_(v(2))}), width);
    }
    expect_matches(all({v(3), nor({v(9), v(0)})}), width);
    expect_matches(any({all({v(9), v(1)}), all({v(6), v(7)})}), width);
  }
}

TEST(TruthTable, FactoredYExpressionsOfTheSuiteMatchEval) {
  for (const auto& bench : bench_suite::table1_suite()) {
    const auto machine = core::synthesize(bench_suite::load(bench));
    const int n = machine.layout.y_space_vars();
    for (const core::Equation& eq : machine.y) {
      expect_matches(eq.expr, n);
      EXPECT_EQ(TruthTable::of(eq.expr, n), TruthTable::of(eq.cover, n)) << bench.name;
    }
    expect_matches(machine.fsv.expr, machine.layout.xy_vars());
  }
}

TEST(TruthTable, EquivalentToCoverSeesOneWrongPoint) {
  std::mt19937_64 rng(5000);
  for (int n = 1; n <= 10; ++n) {
    const Cover cover = random_cover(n, rng);
    const ExprPtr e = first_level_sop_expr(cover);
    EXPECT_TRUE(equivalent_to_cover(e, cover));
    const Minterm point = static_cast<Minterm>(rng() % (1u << n));
    const ExprPtr flipped = cover.eval(point)
        ? Expr::make_and({e, Expr::negate(first_level_product(Cube::from_minterm(n, point)))})
        : Expr::make_or({e, first_level_product(Cube::from_minterm(n, point))});
    EXPECT_FALSE(equivalent_to_cover(flipped, cover)) << n;
  }
}

}  // namespace
}  // namespace seance::logic
