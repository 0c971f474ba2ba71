#include "logic/expr.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "logic/truth_table.hpp"

namespace seance::logic {

namespace {

std::string var_name(int index, std::span<const std::string> names) {
  if (index >= 0 && static_cast<std::size_t>(index) < names.size()) {
    return names[static_cast<std::size_t>(index)];
  }
  return "x" + std::to_string(index);
}

}  // namespace

ExprPtr Expr::constant(bool value) {
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = Op::kConst;
  e->const_value_ = value;
  return e;
}

ExprPtr Expr::var(int index) {
  if (index < 0) throw std::invalid_argument("Expr::var: negative index");
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = Op::kVar;
  e->var_ = index;
  return e;
}

ExprPtr Expr::negate(ExprPtr kid) {
  if (kid == nullptr) throw std::invalid_argument("Expr::negate: null child");
  if (kid->op_ == Op::kNot) return kid->kids_.front();
  if (kid->op_ == Op::kConst) return constant(!kid->const_value_);
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = Op::kNot;
  e->kids_.push_back(std::move(kid));
  return e;
}

ExprPtr Expr::make_and(std::vector<ExprPtr> kids) {
  if (kids.empty()) return constant(true);
  if (kids.size() == 1) return kids.front();
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = Op::kAnd;
  e->kids_ = std::move(kids);
  return e;
}

ExprPtr Expr::make_or(std::vector<ExprPtr> kids) {
  if (kids.empty()) return constant(false);
  if (kids.size() == 1) return kids.front();
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = Op::kOr;
  e->kids_ = std::move(kids);
  return e;
}

ExprPtr Expr::make_nor(std::vector<ExprPtr> kids) {
  if (kids.empty()) return constant(true);
  auto e = std::shared_ptr<Expr>(new Expr());
  e->op_ = Op::kNor;
  e->kids_ = std::move(kids);
  return e;
}

int Expr::depth() const {
  switch (op_) {
    case Op::kConst:
    case Op::kVar:
      return 0;
    default: {
      int deepest = 0;
      for (const ExprPtr& k : kids_) deepest = std::max(deepest, k->depth());
      return 1 + deepest;
    }
  }
}

int Expr::gate_count() const {
  // Every parent holds its own ExprPtr to a kid, so a node met along two
  // paths has use_count() > 1.  Only such gate nodes are remembered, and
  // a tree (the common case) is counted without allocating.
  std::vector<const Expr*> shared;
  const auto walk = [&](auto&& self, const Expr* e) -> int {
    int count = 1;
    for (const ExprPtr& k : e->kids_) {
      if (k->op_ == Op::kConst || k->op_ == Op::kVar) continue;
      if (k.use_count() > 1) {
        if (std::find(shared.begin(), shared.end(), k.get()) != shared.end()) continue;
        shared.push_back(k.get());
      }
      count += self(self, k.get());
    }
    return count;
  };
  return op_ == Op::kConst || op_ == Op::kVar ? 0 : walk(walk, this);
}

int Expr::literal_count() const {
  if (op_ == Op::kVar) return 1;
  int total = 0;
  for (const ExprPtr& k : kids_) total += k->literal_count();
  return total;
}

int Expr::num_vars() const {
  if (op_ == Op::kVar) return var_ + 1;
  int highest = 0;
  for (const ExprPtr& k : kids_) highest = std::max(highest, k->num_vars());
  return highest;
}

bool Expr::eval(std::uint32_t assignment) const {
  switch (op_) {
    case Op::kConst:
      return const_value_;
    case Op::kVar:
      return (assignment >> var_) & 1u;
    case Op::kNot:
      return !kids_.front()->eval(assignment);
    case Op::kAnd:
      return std::all_of(kids_.begin(), kids_.end(),
                         [&](const ExprPtr& k) { return k->eval(assignment); });
    case Op::kOr:
      return std::any_of(kids_.begin(), kids_.end(),
                         [&](const ExprPtr& k) { return k->eval(assignment); });
    case Op::kNor:
      return std::none_of(kids_.begin(), kids_.end(),
                          [&](const ExprPtr& k) { return k->eval(assignment); });
  }
  return false;
}

std::string Expr::to_string(std::span<const std::string> names) const {
  std::ostringstream out;
  switch (op_) {
    case Op::kConst:
      out << (const_value_ ? "1" : "0");
      break;
    case Op::kVar:
      out << var_name(var_, names);
      break;
    case Op::kNot:
      if (kids_.front()->op() == Op::kVar) {
        out << kids_.front()->to_string(names) << "'";
      } else {
        out << "(" << kids_.front()->to_string(names) << ")'";
      }
      break;
    case Op::kAnd: {
      bool first = true;
      for (const ExprPtr& k : kids_) {
        if (!first) out << "*";
        first = false;
        const bool paren = k->op() == Op::kOr;
        if (paren) out << "(";
        out << k->to_string(names);
        if (paren) out << ")";
      }
      break;
    }
    case Op::kOr: {
      bool first = true;
      for (const ExprPtr& k : kids_) {
        if (!first) out << " + ";
        first = false;
        out << k->to_string(names);
      }
      break;
    }
    case Op::kNor: {
      out << "NOR(";
      bool first = true;
      for (const ExprPtr& k : kids_) {
        if (!first) out << ", ";
        first = false;
        out << k->to_string(names);
      }
      out << ")";
      break;
    }
  }
  return out.str();
}

ExprPtr sop_expr(const Cover& cover) {
  std::vector<ExprPtr> terms;
  terms.reserve(cover.size());
  for (const Cube& c : cover.cubes()) {
    std::vector<ExprPtr> lits;
    for (int i = 0; i < cover.num_vars(); ++i) {
      const std::uint32_t bit = 1u << i;
      if (!(c.care() & bit)) continue;
      ExprPtr v = Expr::var(i);
      lits.push_back((c.value() & bit) ? v : Expr::negate(v));
    }
    terms.push_back(Expr::make_and(std::move(lits)));
  }
  return Expr::make_or(std::move(terms));
}

ExprPtr first_level_product(const Cube& cube) {
  std::vector<ExprPtr> true_lits;
  std::vector<ExprPtr> comp_vars;
  for (int i = 0; i < cube.num_vars(); ++i) {
    const std::uint32_t bit = 1u << i;
    if (!(cube.care() & bit)) continue;
    if (cube.value() & bit) {
      true_lits.push_back(Expr::var(i));
    } else {
      comp_vars.push_back(Expr::var(i));
    }
  }
  if (comp_vars.empty()) return Expr::make_and(std::move(true_lits));
  ExprPtr nor = Expr::make_nor(std::move(comp_vars));
  if (true_lits.empty()) return nor;
  true_lits.push_back(std::move(nor));
  return Expr::make_and(std::move(true_lits));
}

ExprPtr first_level_sop_expr(const Cover& cover) {
  std::vector<ExprPtr> terms;
  terms.reserve(cover.size());
  for (const Cube& c : cover.cubes()) terms.push_back(first_level_product(c));
  return Expr::make_or(std::move(terms));
}

bool equivalent_to_cover(const ExprPtr& e, const Cover& cover) {
  const int n = std::max(e->num_vars(), cover.num_vars());
  if (n > 20) throw std::invalid_argument("equivalent_to_cover: too many vars");
  return TruthTable::of(e, n) == TruthTable::of(cover, n);
}

bool is_first_level_gate_form(const ExprPtr& e) {
  switch (e->op()) {
    case Op::kConst:
    case Op::kVar:
      return true;
    case Op::kNot:
      return false;
    case Op::kNor:
      // A first-level NOR may only see raw variables.
      return std::all_of(e->kids().begin(), e->kids().end(),
                         [](const ExprPtr& k) { return k->op() == Op::kVar; });
    case Op::kAnd:
    case Op::kOr:
      return std::all_of(e->kids().begin(), e->kids().end(),
                         [](const ExprPtr& k) { return is_first_level_gate_form(k); });
  }
  return false;
}

}  // namespace seance::logic
