// Packed truth tables: the 2^n values of a Boolean function in 64-bit
// words, minterm m at bit (m & 63) of word (m >> 6).
//
// The exhaustive passes (equation verification, consensus repair,
// equivalence checks) read a function at many points.  A table built
// once turns each read into a bit lookup instead of a scan over a
// cover's cubes or a walk down an expression tree, and a cube's
// containment test reads 64 minterms per word.

#pragma once

#include <cstdint>
#include <vector>

#include "logic/cube.hpp"
#include "logic/expr.hpp"

namespace seance::logic {

class TruthTable {
 public:
  /// The constant-0 function over `num_vars` variables (0..kMaxVars).
  explicit TruthTable(int num_vars);

  /// The cover's function over `num_vars` variables.  Like Cover::eval
  /// on a minterm below 2^num_vars, variables at or above `num_vars`
  /// read 0; variables of the space the cover does not mention are free.
  [[nodiscard]] static TruthTable of(const Cover& cover, int num_vars);

  /// The expression's function over `num_vars` variables, evaluated
  /// bit-sliced: each node is computed a word of 64 minterms at a time.
  /// Variables at or above `num_vars` read 0, as in Expr::eval.
  [[nodiscard]] static TruthTable of(const ExprPtr& e, int num_vars);

  [[nodiscard]] int num_vars() const { return num_vars_; }

  /// The function's value at minterm `m` (m < 2^num_vars).
  [[nodiscard]] bool test(Minterm m) const {
    return (words_[m >> 6] >> (m & 63u)) & 1u;
  }

  /// ORs every minterm of `cube` into the function (same restriction to
  /// the space as `of(Cover)`).
  void add(const Cube& cube);

  /// True iff every minterm of `cube` is set, i.e. the cube is an
  /// implicant of the function (same restriction as `add`).
  [[nodiscard]] bool contains(const Cube& cube) const;

  friend bool operator==(const TruthTable& a, const TruthTable& b) = default;

 private:
  int num_vars_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace seance::logic
