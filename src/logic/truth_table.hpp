// Packed truth tables: the 2^n values of a Boolean function in 64-bit
// words, minterm m at bit (m & 63) of word (m >> 6).
//
// The exhaustive passes (equation verification, consensus repair,
// equivalence checks) read a function at many points.  A table built
// once turns each read into a bit lookup instead of a scan over a
// cover's cubes or a walk down an expression tree, and a cube's
// containment test reads 64 minterms per word.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "logic/cube.hpp"
#include "logic/expr.hpp"

namespace seance::logic {

/// Word patterns of the six variables that index bits inside a word:
/// bit j of kLowVar[i] is bit i of j.
inline constexpr std::uint64_t kLowVar[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

/// The bits of a table word that are minterms: all 64 from six
/// variables up.
[[nodiscard]] constexpr std::uint64_t valid_bits(int num_vars) {
  return num_vars >= 6 ? ~0ull : (1ull << (1u << num_vars)) - 1ull;
}

/// Words of a table over `num_vars` variables: one below six variables.
[[nodiscard]] constexpr std::size_t word_count(int num_vars) {
  return num_vars >= 6 ? std::size_t{1} << (num_vars - 6) : 1;
}

/// Calls visit(word index, bit pattern) for every table word holding a
/// minterm of `cube` below 2^num_vars, in ascending word order, stopping
/// early when visit returns false.  The pattern marks the word's bits
/// whose six low variables satisfy the cube's low literals; the words
/// are the walk over the free high variables' submasks.  Variables at or
/// above `num_vars` read 0, so a positive literal there holds nowhere.
/// Returns false iff visit stopped the walk.
template <class Visit>
bool for_each_cube_word(const Cube& cube, int num_vars, Visit visit) {
  const std::uint32_t space = num_vars >= 32 ? ~0u : (1u << num_vars) - 1u;
  if ((cube.value() & ~space) != 0) return true;
  const std::uint32_t care = cube.care() & space;
  std::uint64_t pattern = valid_bits(num_vars);
  for (int i = 0; i < 6 && i < num_vars; ++i) {
    if ((care >> i) & 1u) {
      pattern &= ((cube.value() >> i) & 1u) ? kLowVar[i] : ~kLowVar[i];
    }
  }
  const std::uint32_t free = (space & ~care) >> 6;
  const std::uint32_t base = cube.value() >> 6;
  std::uint32_t sub = 0;
  while (true) {
    if (!visit(base | sub, pattern)) return false;
    if (sub == free) return true;
    sub = (sub - free) & free;
  }
}

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
  /// A product of literals (an AND over variables, NOT-variables and
  /// NORs of variables, as first_level_product and sop_expr build them)
  /// is ORed in as its cube's words, so an SOP costs its cubes' words,
  /// not a full-width pass per node.  Variables at or above `num_vars`
  /// read 0, as in Expr::eval.
  [[nodiscard]] static TruthTable of(const ExprPtr& e, int num_vars);

  [[nodiscard]] int num_vars() const { return num_vars_; }

  /// The packed words, minterm m at bit (m & 63) of word (m >> 6); bits
  /// past 2^num_vars are 0.
  [[nodiscard]] std::span<const std::uint64_t> words() const { return words_; }

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
