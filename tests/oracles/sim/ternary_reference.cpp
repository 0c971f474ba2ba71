#include "sim/ternary_reference.hpp"

#include <bit>
#include <sstream>
#include <vector>

#include "logic/ternary.hpp"

namespace seance::sim {

using logic::Val3;

namespace {

Val3 to_val3(bool b) { return b ? Val3::k1 : Val3::k0; }

using detail::update_slot;

// One ternary evaluation pass of all feedback functions; returns true if
// any value changed.  Procedure A only widens (binary -> X); Procedure B
// only narrows or rewrites toward the fixpoint of the final input vector.
struct FeedbackState {
  std::vector<Val3> vars;  ///< indexed per VariableLayout (x, y, fsv)
};

bool iterate_once(const core::FantomMachine& machine, FeedbackState& state,
                  bool widen_only, bool fsv_low) {
  const core::VariableLayout& layout = machine.layout;
  bool changed = false;
  // fsv first: it feeds the Y equations.
  if (layout.has_fsv) {
    Val3 next_fsv;
    if (fsv_low) {
      next_fsv = Val3::k0;
    } else {
      // fsv sees only (x, y).
      std::vector<Val3> xy(state.vars.begin(),
                           state.vars.begin() + layout.xy_vars());
      next_fsv = eval3(machine.fsv.cover, xy);
    }
    Val3& slot = state.vars[static_cast<std::size_t>(layout.fsv_var())];
    changed |= update_slot(slot, next_fsv, widen_only);
  }
  for (int n = 0; n < layout.num_state_vars; ++n) {
    const Val3 next = eval3(machine.y[static_cast<std::size_t>(n)].cover, state.vars);
    Val3& slot = state.vars[static_cast<std::size_t>(layout.state_var(n))];
    changed |= update_slot(slot, next, widen_only);
  }
  return changed;
}

/// Returns true when a fixpoint was reached inside the iteration bound.
/// False means the bound was exhausted (only possible for Procedure B:
/// narrowing can oscillate when the feedback is unstable under the final
/// input vector; widening is monotone on a finite lattice) — the caller
/// must surface it, a silent return would report whatever partial state
/// the last pass left as if it were the settled value.
[[nodiscard]] bool run_to_fixpoint(const core::FantomMachine& machine,
                                   FeedbackState& state, bool widen_only,
                                   bool fsv_low) {
  // Widening changes each variable at most once, so the widen fixpoint
  // lands well inside this bound; the slack covers narrowing chains.
  const int bound = 4 * (machine.layout.num_state_vars + 2);
  for (int i = 0; i < bound; ++i) {
    if (!iterate_once(machine, state, widen_only, fsv_low)) return true;
  }
  return false;
}

}  // namespace

TernaryReport ternary_verify_reference(const core::FantomMachine& machine,
                                       bool fsv_low) {
  TernaryReport report;
  const flowtable::FlowTable& table = machine.table;
  const core::VariableLayout& layout = machine.layout;

  for (int s_a = 0; s_a < table.num_states(); ++s_a) {
    const std::uint32_t code_a = machine.codes[static_cast<std::size_t>(s_a)];
    for (const int col_a : table.stable_columns(s_a)) {
      for (int col_b = 0; col_b < table.num_columns(); ++col_b) {
        if (col_b == col_a || !table.entry(s_a, col_b).specified()) continue;
        const int s_b = table.entry(s_a, col_b).next;
        const std::uint32_t code_b = machine.codes[static_cast<std::size_t>(s_b)];
        ++report.transitions_checked;

        // ---- Procedure A: changing inputs at X, widen to fixpoint ----
        FeedbackState state;
        state.vars.assign(static_cast<std::size_t>(layout.y_space_vars()), Val3::k0);
        const std::uint32_t diff =
            static_cast<std::uint32_t>(col_a) ^ static_cast<std::uint32_t>(col_b);
        for (int i = 0; i < layout.num_inputs; ++i) {
          const std::uint32_t bit = 1u << i;
          state.vars[static_cast<std::size_t>(i)] =
              (diff & bit) ? Val3::kX : to_val3((col_a & bit) != 0);
        }
        for (int n = 0; n < layout.num_state_vars; ++n) {
          state.vars[static_cast<std::size_t>(layout.state_var(n))] =
              to_val3((code_a >> n) & 1u);
        }
        if (!run_to_fixpoint(machine, state, /*widen_only=*/true, fsv_low)) {
          ++report.fixpoint_overruns;
          if (report.first_failure.empty()) {
            std::ostringstream msg;
            msg << "procedure A: widening did not converge on "
                << table.state_name(s_a) << " col " << col_a << " -> " << col_b;
            report.first_failure = msg.str();
          }
        }

        for (int n = 0; n < layout.num_state_vars; ++n) {
          const std::uint32_t bit = 1u << n;
          if ((code_a & bit) != (code_b & bit)) continue;  // allowed to move
          if (state.vars[static_cast<std::size_t>(layout.state_var(n))] == Val3::kX) {
            ++report.procedure_a_violations;
            if (report.first_failure.empty()) {
              std::ostringstream msg;
              msg << "procedure A: y" << n << " went X on " << table.state_name(s_a)
                  << " col " << col_a << " -> " << col_b;
              report.first_failure = msg.str();
            }
          }
        }

        // ---- Procedure B: final inputs, narrow to fixpoint -----------
        for (int i = 0; i < layout.num_inputs; ++i) {
          state.vars[static_cast<std::size_t>(i)] =
              to_val3((static_cast<std::uint32_t>(col_b) >> i) & 1u);
        }
        if (!run_to_fixpoint(machine, state, /*widen_only=*/false, fsv_low)) {
          ++report.fixpoint_overruns;
          if (report.first_failure.empty()) {
            std::ostringstream msg;
            msg << "procedure B: settling did not converge on "
                << table.state_name(s_a) << " col " << col_a << " -> " << col_b;
            report.first_failure = msg.str();
          }
        }
        bool resolved = true;
        for (int n = 0; n < layout.num_state_vars; ++n) {
          if (state.vars[static_cast<std::size_t>(layout.state_var(n))] !=
              to_val3((code_b >> n) & 1u)) {
            resolved = false;
          }
        }
        if (!resolved) {
          ++report.procedure_b_violations;
          if (report.first_failure.empty()) {
            std::ostringstream msg;
            msg << "procedure B: unresolved settling on " << table.state_name(s_a)
                << " col " << col_a << " -> " << col_b;
            report.first_failure = msg.str();
          }
        }
      }
    }
  }
  return report;
}

}  // namespace seance::sim
