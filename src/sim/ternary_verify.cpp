#include "sim/ternary_verify.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <string>
#include <vector>

namespace seance::sim {

namespace detail {

namespace {

constexpr std::uint64_t kAll = ~std::uint64_t{0};
constexpr int kLanes = 64;

/// Sets lane `lane` of `p` to 1 when `one`, to X when `x` as well.
void set_lane(Planes& p, int lane, bool one, bool x = false) {
  const std::uint64_t bit = std::uint64_t{1} << lane;
  if (one || x) p.one |= bit;
  if (one && !x) p.zero &= ~bit;
}

/// Gauss-Seidel passes to the per-lane fixpoint; returns the lanes that
/// changed on every one of the bound passes (the overruns).
std::uint64_t run_to_fixpoint(const core::VariableLayout& layout,
                              std::vector<Planes>& vars, std::uint64_t live,
                              bool widen_only, bool fsv_low, Feedback& feedback) {
  const int bound = 4 * (layout.num_state_vars + 2);
  std::uint64_t changed = 0;
  for (int pass = 0; pass < bound; ++pass) {
    changed = 0;
    if (layout.has_fsv) {
      const int v = layout.fsv_var();
      const Planes next = fsv_low ? Planes{} : feedback.next(v, vars);
      changed |= update_planes(vars[static_cast<std::size_t>(v)], next, widen_only);
    }
    for (int n = 0; n < layout.num_state_vars; ++n) {
      const int v = layout.state_var(n);
      changed |= update_planes(vars[static_cast<std::size_t>(v)],
                               feedback.next(v, vars), widen_only);
    }
    changed &= live;
    if (changed == 0) break;
  }
  return changed;
}

}  // namespace

TernaryReport run_procedures(const core::FantomMachine& machine, bool fsv_low,
                             Feedback& feedback) {
  const flowtable::FlowTable& table = machine.table;
  const core::VariableLayout& layout = machine.layout;
  struct Transition {
    int s_a, col_a, col_b;
    std::uint32_t code_a, code_b;
  };
  std::vector<Transition> all;  // in report order
  for (int s_a = 0; s_a < table.num_states(); ++s_a) {
    for (const int col_a : table.stable_columns(s_a)) {
      for (int col_b = 0; col_b < table.num_columns(); ++col_b) {
        if (col_b == col_a || !table.entry(s_a, col_b).specified()) continue;
        const int s_b = table.entry(s_a, col_b).next;
        all.push_back({s_a, col_a, col_b, machine.codes[static_cast<std::size_t>(s_a)],
                       machine.codes[static_cast<std::size_t>(s_b)]});
      }
    }
  }
  if (!all.empty()) feedback.prepare(fsv_low);

  TernaryReport report;
  const auto note = [&](const Transition& t, const std::string& what) {
    if (!report.first_failure.empty()) return;
    report.first_failure = what + " on " + table.state_name(t.s_a) + " col " +
                           std::to_string(t.col_a) + " -> " + std::to_string(t.col_b);
  };
  std::vector<Planes> vars(static_cast<std::size_t>(layout.y_space_vars()));
  const auto var = [&](int v) -> Planes& { return vars[static_cast<std::size_t>(v)]; };
  std::vector<std::uint64_t> x_after_a(static_cast<std::size_t>(layout.num_state_vars));
  for (std::size_t base = 0; base < all.size(); base += kLanes) {
    search::poll_deadline();
    const int lanes = static_cast<int>(std::min<std::size_t>(kLanes, all.size() - base));
    const std::uint64_t live = lanes == kLanes ? kAll : (std::uint64_t{1} << lanes) - 1;
    const Transition* word = all.data() + base;

    // ---- Procedure A: changing inputs at X, widen to fixpoint ----
    std::fill(vars.begin(), vars.end(), Planes{});
    for (int k = 0; k < lanes; ++k) {
      const Transition& t = word[k];
      for (int i = 0; i < layout.num_inputs; ++i) {
        set_lane(var(layout.input_var(i)), k, ((t.col_a >> i) & 1) != 0,
                 (((t.col_a ^ t.col_b) >> i) & 1) != 0);
      }
      for (int n = 0; n < layout.num_state_vars; ++n) {
        set_lane(var(layout.state_var(n)), k, ((t.code_a >> n) & 1u) != 0);
      }
    }
    const std::uint64_t overrun_a =
        run_to_fixpoint(layout, vars, live, /*widen_only=*/true, fsv_low, feedback);
    for (int n = 0; n < layout.num_state_vars; ++n) {
      const Planes& p = var(layout.state_var(n));
      x_after_a[static_cast<std::size_t>(n)] = p.one & p.zero;
    }

    // ---- Procedure B: final inputs, narrow to fixpoint -----------
    for (int i = 0; i < layout.num_inputs; ++i) {
      Planes& p = var(layout.input_var(i));
      p = Planes{};
      for (int k = 0; k < lanes; ++k) set_lane(p, k, ((word[k].col_b >> i) & 1) != 0);
    }
    const std::uint64_t overrun_b =
        run_to_fixpoint(layout, vars, live, /*widen_only=*/false, fsv_low, feedback);

    // ---- The report, transition by transition --------------------
    for (int k = 0; k < lanes; ++k) {
      const Transition& t = word[k];
      ++report.transitions_checked;
      if ((overrun_a >> k) & 1u) {
        ++report.fixpoint_overruns;
        note(t, "procedure A: widening did not converge");
      }
      bool resolved = true;
      for (int n = 0; n < layout.num_state_vars; ++n) {
        const bool bit_b = ((t.code_b >> n) & 1u) != 0;
        if (bit_b == (((t.code_a >> n) & 1u) != 0) &&
            ((x_after_a[static_cast<std::size_t>(n)] >> k) & 1u) != 0) {
          ++report.procedure_a_violations;
          if (report.first_failure.empty()) {
            note(t, "procedure A: y" + std::to_string(n) + " went X");
          }
        }
        const Planes& p = var(layout.state_var(n));
        resolved &= ((p.one >> k) & 1u) == bit_b && ((p.zero >> k) & 1u) != bit_b;
      }
      if ((overrun_b >> k) & 1u) {
        ++report.fixpoint_overruns;
        note(t, "procedure B: settling did not converge");
      }
      if (!resolved) {
        ++report.procedure_b_violations;
        note(t, "procedure B: unresolved settling");
      }
    }
  }
  return report;
}

}  // namespace detail

namespace {

/// Cover-level next values: OR over the cubes of the AND of their
/// literals.  fsv's cover spans only (x, y), a prefix of `vars`.
class CoverFeedback final : public detail::Feedback {
 public:
  explicit CoverFeedback(const core::FantomMachine& machine) : machine_(machine) {}

  detail::Planes next(int var, std::span<const detail::Planes> vars) override {
    const int n = var - machine_.layout.num_inputs;
    const logic::Cover& cover = n < machine_.layout.num_state_vars
                                    ? machine_.y[static_cast<std::size_t>(n)].cover
                                    : machine_.fsv.cover;
    detail::Planes sum;
    for (const logic::Cube& c : cover.cubes()) {
      std::uint64_t one = ~std::uint64_t{0};
      std::uint64_t zero = 0;
      for (std::uint32_t care = c.care(); care != 0; care &= care - 1) {
        const int i = std::countr_zero(care);
        const detail::Planes& v = vars[static_cast<std::size_t>(i)];
        const bool positive = ((c.value() >> i) & 1u) != 0;
        one &= positive ? v.one : v.zero;
        zero |= positive ? v.zero : v.one;
      }
      sum.one |= one;
      sum.zero &= zero;
    }
    return sum;
  }

 private:
  const core::FantomMachine& machine_;
};

}  // namespace

TernaryReport ternary_verify(const core::FantomMachine& machine, bool fsv_low) {
  CoverFeedback feedback(machine);
  return detail::run_procedures(machine, fsv_low, feedback);
}

}  // namespace seance::sim
