#include "logic/expr.hpp"

#include <gtest/gtest.h>

#include "logic/qm.hpp"
#include "testutil.hpp"

namespace seance::logic {
namespace {

using testutil::random_function;

TEST(Expr, ConstantsEvaluate) {
  EXPECT_TRUE(Expr::constant(true)->eval(0));
  EXPECT_FALSE(Expr::constant(false)->eval(0));
  EXPECT_EQ(Expr::constant(true)->depth(), 0);
}

TEST(Expr, VarReadsAssignmentBit) {
  const ExprPtr v = Expr::var(2);
  EXPECT_TRUE(v->eval(0b100));
  EXPECT_FALSE(v->eval(0b011));
  EXPECT_EQ(v->depth(), 0);
  EXPECT_EQ(v->literal_count(), 1);
}

TEST(Expr, NegateSimplifiesDoubleNegation) {
  const ExprPtr v = Expr::var(0);
  const ExprPtr nn = Expr::negate(Expr::negate(v));
  EXPECT_EQ(nn->op(), Op::kVar);
  EXPECT_EQ(nn->depth(), 0);
}

TEST(Expr, NegateConstantFolds) {
  EXPECT_FALSE(Expr::negate(Expr::constant(true))->const_value());
}

TEST(Expr, EmptyGatesYieldIdentities) {
  EXPECT_TRUE(Expr::make_and({})->const_value());
  EXPECT_FALSE(Expr::make_or({})->const_value());
  EXPECT_TRUE(Expr::make_nor({})->const_value());
}

TEST(Expr, SingleChildCollapses) {
  const ExprPtr v = Expr::var(1);
  EXPECT_EQ(Expr::make_and({v})->op(), Op::kVar);
  EXPECT_EQ(Expr::make_or({v})->op(), Op::kVar);
  // NOR of one input is a real inverter-like gate, not a collapse.
  EXPECT_EQ(Expr::make_nor({v})->op(), Op::kNor);
}

TEST(Expr, AndOrNorTruth) {
  const ExprPtr a = Expr::var(0);
  const ExprPtr b = Expr::var(1);
  const ExprPtr and_ab = Expr::make_and({a, b});
  const ExprPtr or_ab = Expr::make_or({a, b});
  const ExprPtr nor_ab = Expr::make_nor({a, b});
  for (std::uint32_t m = 0; m < 4; ++m) {
    const bool x0 = m & 1, x1 = m & 2;
    EXPECT_EQ(and_ab->eval(m), x0 && x1);
    EXPECT_EQ(or_ab->eval(m), x0 || x1);
    EXPECT_EQ(nor_ab->eval(m), !(x0 || x1));
  }
}

TEST(Expr, DepthCountsGateLevels) {
  // OR(AND(a, NOR(b, c)), d): NOR=1, AND=2, OR=3.
  const ExprPtr e = Expr::make_or(
      {Expr::make_and({Expr::var(0), Expr::make_nor({Expr::var(1), Expr::var(2)})}),
       Expr::var(3)});
  EXPECT_EQ(e->depth(), 3);
  EXPECT_EQ(e->gate_count(), 3);
  EXPECT_EQ(e->literal_count(), 4);
}

TEST(Expr, GateCountCountsASharedNodeOnce) {
  // One NOR and one NOT(OR) each feed two ANDs: OR + 2 AND + NOR + NOT
  // + the NOT's OR = 6, where a tree walk would count 9.
  const ExprPtr nor = Expr::make_nor({Expr::var(0), Expr::var(1)});
  const ExprPtr inv = Expr::negate(Expr::make_or({Expr::var(2), Expr::var(3)}));
  const ExprPtr e = Expr::make_or({Expr::make_and({Expr::var(4), nor, inv}),
                                   Expr::make_and({Expr::var(5), nor, inv})});
  EXPECT_EQ(e->gate_count(), 6);
  // A kid listed twice by one parent, and a shared AND two levels down.
  const ExprPtr both = Expr::make_and({nor, nor});
  EXPECT_EQ(both->gate_count(), 2);
  const ExprPtr deep = Expr::make_or(
      {Expr::make_nor({both, Expr::var(6)}), Expr::make_and({both, Expr::var(7)})});
  EXPECT_EQ(deep->gate_count(), 5);
  // Sharing outside the expression does not matter: a tree held twice
  // still counts every node.
  const ExprPtr copy = e;
  EXPECT_EQ(copy->gate_count(), 6);
  EXPECT_EQ(Expr::var(0)->gate_count(), 0);
  EXPECT_EQ(Expr::constant(true)->gate_count(), 0);
}

TEST(Expr, SopExprMatchesCover) {
  Cover cover(3);
  cover.add(Cube::from_string("1-0"));
  cover.add(Cube::from_string("01-"));
  const ExprPtr e = sop_expr(cover);
  EXPECT_TRUE(equivalent_to_cover(e, cover));
  EXPECT_EQ(e->depth(), 3);  // NOT -> AND -> OR (complemented literals present)
}

TEST(Expr, SopExprWithoutComplementsIsDepthTwo) {
  Cover cover(3);
  cover.add(Cube::from_string("11-"));
  cover.add(Cube::from_string("-11"));
  EXPECT_EQ(sop_expr(cover)->depth(), 2);
}

TEST(Expr, FirstLevelProductAndNorForm) {
  // a * b' * c'  ->  AND(a, NOR(b, c))
  const ExprPtr e = first_level_product(Cube::from_string("100"));
  EXPECT_EQ(e->op(), Op::kAnd);
  EXPECT_EQ(e->depth(), 2);
  EXPECT_TRUE(is_first_level_gate_form(e));
  // Truth check against the cube.
  Cover cover(3);
  cover.add(Cube::from_string("100"));
  EXPECT_TRUE(equivalent_to_cover(e, cover));
}

TEST(Expr, FirstLevelProductAllComplemented) {
  const ExprPtr e = first_level_product(Cube::from_string("00"));
  EXPECT_EQ(e->op(), Op::kNor);
  EXPECT_EQ(e->depth(), 1);
}

TEST(Expr, FirstLevelProductAllTrue) {
  const ExprPtr e = first_level_product(Cube::from_string("11"));
  EXPECT_EQ(e->op(), Op::kAnd);
  EXPECT_EQ(e->depth(), 1);
  EXPECT_TRUE(is_first_level_gate_form(e));
}

TEST(Expr, FirstLevelSopDepthThreeWithComplements) {
  Cover cover(3);
  cover.add(Cube::from_string("1-0"));
  cover.add(Cube::from_string("011"));
  const ExprPtr e = first_level_sop_expr(cover);
  EXPECT_EQ(e->depth(), 3);
  EXPECT_TRUE(is_first_level_gate_form(e));
  EXPECT_TRUE(equivalent_to_cover(e, cover));
}

TEST(Expr, FirstLevelSopDepthTwoWithoutComplements) {
  Cover cover(2);
  cover.add(Cube::from_string("11"));
  cover.add(Cube::from_string("1-"));
  const ExprPtr e = first_level_sop_expr(cover);
  EXPECT_EQ(e->depth(), 2);
}

TEST(Expr, PlainSopIsNotFirstLevelForm) {
  Cover cover(2);
  cover.add(Cube::from_string("0-"));
  EXPECT_FALSE(is_first_level_gate_form(sop_expr(cover)));
}

TEST(Expr, ToStringReadable) {
  Cover cover(2);
  cover.add(Cube::from_string("10"));
  const std::vector<std::string> names = {"a", "b"};
  EXPECT_EQ(sop_expr(cover)->to_string(names), "a*b'");
  EXPECT_EQ(first_level_sop_expr(cover)->to_string(names), "a*NOR(b)");
}

class ExprEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExprEquivalence, BothSopFormsMatchRandomCovers) {
  const auto f = random_function(5, 0.35, 0.1, GetParam());
  const Cover cover = select_cover(5, f.on, f.dc);
  EXPECT_TRUE(equivalent_to_cover(sop_expr(cover), cover));
  const ExprPtr flg = first_level_sop_expr(cover);
  EXPECT_TRUE(equivalent_to_cover(flg, cover));
  EXPECT_TRUE(is_first_level_gate_form(flg));
  EXPECT_LE(flg->depth(), 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprEquivalence,
                         ::testing::Values(1u, 2u, 4u, 9u, 16u, 25u, 36u, 49u));

}  // namespace
}  // namespace seance::logic
