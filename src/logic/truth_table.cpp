#include "logic/truth_table.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>

namespace seance::logic {

namespace {

/// The cube of a product of literals over variables below `num_vars`: a
/// variable, a NOT over one, a NOR over variables, or an AND over those.
/// nullopt for every other node, for a product that holds a variable and
/// its complement, and for a variable at or above `num_vars`; the sliced
/// recursion evaluates those.
std::optional<Cube> product_cube(const Expr& e, int num_vars) {
  std::uint32_t care = 0;
  std::uint32_t value = 0;
  const auto literal = [&](const Expr& v, bool positive) {
    if (v.op() != Op::kVar || v.var_index() >= num_vars) return false;
    const std::uint32_t bit = 1u << v.var_index();
    if ((care & bit) != 0 && ((value & bit) != 0) != positive) return false;
    care |= bit;
    if (positive) value |= bit;
    return true;
  };
  const auto factor = [&](const Expr& f) {
    switch (f.op()) {
      case Op::kVar:
        return literal(f, true);
      case Op::kNot:
        return literal(*f.kids().front(), false);
      case Op::kNor:
        return std::all_of(f.kids().begin(), f.kids().end(),
                           [&](const ExprPtr& k) { return literal(*k, false); });
      default:
        return false;
    }
  };
  const bool product =
      e.op() == Op::kAnd
          ? std::all_of(e.kids().begin(), e.kids().end(),
                        [&](const ExprPtr& k) { return factor(*k); })
          : factor(e);
  if (!product) return std::nullopt;
  return Cube(num_vars, care, value);
}

/// Bit-sliced evaluation over one table's words.  Products of literals
/// are ORed in as cube words; every other node is computed a word at a
/// time, with one scratch buffer per tree level for its kids' values.
class Slicer {
 public:
  explicit Slicer(int num_vars)
      : num_vars_(num_vars), words_(word_count(num_vars)), valid_(valid_bits(num_vars)) {}

  /// Writes e's function to out[0, words); `level` is e's distance from
  /// the root.
  void eval(const Expr& e, std::uint64_t* out, std::size_t level) {
    if (const std::optional<Cube> cube = product_cube(e, num_vars_)) {
      std::fill_n(out, words_, 0);
      or_cube(*cube, out);
      return;
    }
    switch (e.op()) {
      case Op::kConst:
        std::fill_n(out, words_, e.const_value() ? valid_ : 0);
        break;
      case Op::kVar:
        // A variable below num_vars is a product; this one reads 0.
        std::fill_n(out, words_, 0);
        break;
      case Op::kNot:
        eval(*e.kids().front(), out, level + 1);
        complement(out);
        break;
      case Op::kAnd: {
        eval(*e.kids().front(), out, level + 1);
        std::uint64_t* kid = buffer(level);
        for (std::size_t k = 1; k < e.kids().size(); ++k) {
          eval(*e.kids()[k], kid, level + 1);
          for (std::size_t w = 0; w < words_; ++w) out[w] &= kid[w];
        }
        break;
      }
      case Op::kOr:
      case Op::kNor:
        std::fill_n(out, words_, 0);
        for (const ExprPtr& k : e.kids()) {
          if (const std::optional<Cube> cube = product_cube(*k, num_vars_)) {
            or_cube(*cube, out);
            continue;
          }
          std::uint64_t* kid = buffer(level);
          eval(*k, kid, level + 1);
          for (std::size_t w = 0; w < words_; ++w) out[w] |= kid[w];
        }
        if (e.op() == Op::kNor) complement(out);
        break;
    }
  }

 private:
  void or_cube(const Cube& cube, std::uint64_t* out) const {
    (void)for_each_cube_word(cube, num_vars_, [&](std::uint32_t w, std::uint64_t pattern) {
      out[w] |= pattern;
      return true;
    });
  }

  void complement(std::uint64_t* out) const {
    for (std::size_t w = 0; w < words_; ++w) out[w] = ~out[w] & valid_;
  }

  /// The kids' buffer of a node at `level`, allocated on first use.  A
  /// deque keeps earlier buffers in place as deeper ones are added.
  std::uint64_t* buffer(std::size_t level) {
    while (scratch_.size() <= level) scratch_.emplace_back(words_);
    return scratch_[level].data();
  }

  int num_vars_;
  std::size_t words_;
  std::uint64_t valid_;
  std::deque<std::vector<std::uint64_t>> scratch_;
};

}  // namespace

TruthTable::TruthTable(int num_vars) : num_vars_(num_vars) {
  if (num_vars < 0 || num_vars > kMaxVars) {
    throw std::invalid_argument("TruthTable: num_vars out of range [0, " +
                                std::to_string(kMaxVars) + "]: " +
                                std::to_string(num_vars));
  }
  words_.assign(word_count(num_vars), 0);
}

TruthTable TruthTable::of(const Cover& cover, int num_vars) {
  TruthTable table(num_vars);
  for (const Cube& c : cover.cubes()) table.add(c);
  return table;
}

TruthTable TruthTable::of(const ExprPtr& e, int num_vars) {
  TruthTable table(num_vars);
  Slicer(num_vars).eval(*e, table.words_.data(), 0);
  return table;
}

void TruthTable::add(const Cube& cube) {
  (void)for_each_cube_word(cube, num_vars_, [&](std::uint32_t w, std::uint64_t pattern) {
    words_[w] |= pattern;
    return true;
  });
}

bool TruthTable::contains(const Cube& cube) const {
  return for_each_cube_word(cube, num_vars_, [&](std::uint32_t w, std::uint64_t pattern) {
    return (words_[w] & pattern) == pattern;
  });
}

}  // namespace seance::logic
