#include "logic/truth_table.hpp"

#include <stdexcept>
#include <string>

namespace seance::logic {

namespace {

/// Word patterns of the six variables that index bits inside a word.
constexpr std::uint64_t kLowVar[6] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull};

std::uint32_t space_mask(int num_vars) {
  return num_vars >= 32 ? ~0u : (1u << num_vars) - 1u;
}

/// The bits of a word that are minterms: all 64 from six variables up.
std::uint64_t valid_bits(int num_vars) {
  return num_vars >= 6 ? ~0ull : (1ull << (1u << num_vars)) - 1ull;
}

std::size_t word_count(int num_vars) {
  return num_vars >= 6 ? std::size_t{1} << (num_vars - 6) : 1;
}

/// Calls visit(word index, bit pattern) for every word holding a minterm
/// of `cube` below 2^num_vars, stopping early when visit returns false.
/// The pattern marks the word's bits whose six low variables satisfy the
/// cube's low literals; the words are the walk over the free high
/// variables' submasks.  Returns false iff visit stopped the walk.
template <class Visit>
bool for_each_word(const Cube& cube, int num_vars, Visit visit) {
  const std::uint32_t space = space_mask(num_vars);
  // A literal x_i = 1 with i >= num_vars holds at no minterm of the space.
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

std::vector<std::uint64_t> slice(const Expr& e, int num_vars) {
  const std::uint64_t valid = valid_bits(num_vars);
  std::vector<std::uint64_t> out(word_count(num_vars), 0);
  switch (e.op()) {
    case Op::kConst:
      if (e.const_value()) out.assign(out.size(), valid);
      break;
    case Op::kVar: {
      const int i = e.var_index();
      if (i >= num_vars) break;
      if (i < 6) {
        out.assign(out.size(), kLowVar[i] & valid);
        break;
      }
      for (std::size_t w = 0; w < out.size(); ++w) {
        out[w] = ((w >> (i - 6)) & 1u) ? ~0ull : 0ull;
      }
      break;
    }
    case Op::kNot:
      out = slice(*e.kids().front(), num_vars);
      for (std::uint64_t& word : out) word = ~word & valid;
      break;
    case Op::kAnd:
      out.assign(out.size(), valid);
      for (const ExprPtr& k : e.kids()) {
        const std::vector<std::uint64_t> kid = slice(*k, num_vars);
        for (std::size_t w = 0; w < out.size(); ++w) out[w] &= kid[w];
      }
      break;
    case Op::kOr:
    case Op::kNor:
      for (const ExprPtr& k : e.kids()) {
        const std::vector<std::uint64_t> kid = slice(*k, num_vars);
        for (std::size_t w = 0; w < out.size(); ++w) out[w] |= kid[w];
      }
      if (e.op() == Op::kNor) {
        for (std::uint64_t& word : out) word = ~word & valid;
      }
      break;
  }
  return out;
}

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
  table.words_ = slice(*e, num_vars);
  return table;
}

void TruthTable::add(const Cube& cube) {
  (void)for_each_word(cube, num_vars_, [&](std::uint32_t w, std::uint64_t pattern) {
    words_[w] |= pattern;
    return true;
  });
}

bool TruthTable::contains(const Cube& cube) const {
  return for_each_word(cube, num_vars_, [&](std::uint32_t w, std::uint64_t pattern) {
    return (words_[w] & pattern) == pattern;
  });
}

}  // namespace seance::logic
