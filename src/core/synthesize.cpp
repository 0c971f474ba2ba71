#include "core/synthesize.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "hazard/factor.hpp"
#include "logic/ternary.hpp"
#include "logic/truth_table.hpp"

namespace seance::core {

using flowtable::Entry;
using flowtable::FlowTable;
using flowtable::Trit;
using logic::Cover;
using logic::Minterm;

std::string options_to_string(const SynthesisOptions& options) {
  std::string s = "v" + std::to_string(kOptionsEncodingVersion);
  const auto add_bool = [&](const char* key, bool value) {
    s += ' ';
    s += key;
    s += value ? "=1" : "=0";
  };
  add_bool("fsv", options.add_fsv);
  add_bool("minimize", options.minimize_states);
  add_bool("factor", options.factor);
  add_bool("consensus", options.consensus_repair);
  // tt is a result-affecting knob: a completed search returns the same
  // answer with or without the memo, but a budget-truncated search keeps
  // the incumbent its pruned traversal reached, and memo pruning moves
  // that frontier.  Equal bytes iff equal configuration, so both stay in
  // the identity string.
  add_bool("tt", options.tt);
  return s;
}

SynthesisOptions options_from_string(std::string_view text) {
  const auto fail = [](const std::string& why) -> void {
    throw std::runtime_error("options: " + why);
  };

  // Whitespace-split tokens; the first must be the exact version tag.
  std::vector<std::string_view> tokens;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t start = text.find_first_not_of(' ', pos);
    if (start == std::string_view::npos) break;
    std::size_t end = text.find(' ', start);
    if (end == std::string_view::npos) end = text.size();
    tokens.push_back(text.substr(start, end - start));
    pos = end;
  }
  const std::string version = "v" + std::to_string(kOptionsEncodingVersion);
  if (tokens.empty() || tokens.front() != version) {
    fail("expected version tag '" + version + "', got '" +
         (tokens.empty() ? std::string() : std::string(tokens.front())) + "'");
  }

  SynthesisOptions options;
  std::vector<std::string> seen;
  const auto parse_bool = [&](std::string_view key, std::string_view value,
                              bool& out) {
    if (value == "0") {
      out = false;
    } else if (value == "1") {
      out = true;
    } else {
      fail(std::string(key) + " must be 0 or 1, got '" + std::string(value) +
           "'");
    }
  };

  for (std::size_t t = 1; t < tokens.size(); ++t) {
    const std::string_view token = tokens[t];
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      fail("expected key=value, got '" + std::string(token) + "'");
    }
    const std::string_view key = token.substr(0, eq);
    const std::string_view value = token.substr(eq + 1);
    for (const std::string& prior : seen) {
      if (prior == key) fail("duplicate key '" + std::string(key) + "'");
    }
    seen.emplace_back(key);
    if (key == "fsv") {
      parse_bool(key, value, options.add_fsv);
    } else if (key == "minimize") {
      parse_bool(key, value, options.minimize_states);
    } else if (key == "factor") {
      parse_bool(key, value, options.factor);
    } else if (key == "consensus") {
      parse_bool(key, value, options.consensus_repair);
    } else if (key == "tt") {
      parse_bool(key, value, options.tt);
    } else {
      // Unknown keys are rejected, not skipped: a key this build does not
      // know could change results in the build that wrote it, so treating
      // the string as equivalent would alias two different configurations
      // under one cache key.
      fail("unknown key '" + std::string(key) + "'");
    }
  }
  return options;
}

std::vector<std::string> VariableLayout::names() const {
  std::vector<std::string> result;
  for (int i = 0; i < num_inputs; ++i) result.push_back("x" + std::to_string(i));
  for (int n = 0; n < num_state_vars; ++n) result.push_back("y" + std::to_string(n));
  if (has_fsv) result.push_back("fsv");
  return result;
}

namespace {

/// Incremental 0/1 specification of a Boolean function with conflict
/// detection; unassigned minterms are don't-cares.
class SpecMap {
 public:
  explicit SpecMap(std::vector<std::string>* warnings) : warnings_(warnings) {}

  void set(Minterm m, bool value, bool forced, const char* context) {
    const auto it = values_.find(m);
    if (it == values_.end()) {
      values_.emplace(m, Slot{value, forced});
      return;
    }
    Slot& slot = it->second;
    if (slot.value == value) {
      slot.forced = slot.forced || forced;
      return;
    }
    // Conflict.  Forced (hazard-hold) values win; report once.
    if (warnings_ != nullptr) {
      warnings_->push_back(std::string("specification conflict (") + context +
                           ") at minterm " + std::to_string(m));
    }
    if (forced && !slot.forced) {
      slot.value = value;
      slot.forced = true;
    }
  }

  [[nodiscard]] std::vector<Minterm> on_set() const {
    std::vector<Minterm> on;
    for (const auto& [m, slot] : values_) {
      if (slot.value) on.push_back(m);
    }
    std::sort(on.begin(), on.end());
    return on;
  }

  [[nodiscard]] std::vector<Minterm> dc_set(int num_vars) const {
    std::vector<Minterm> dc;
    const std::uint32_t space_size = 1u << num_vars;
    for (Minterm m = 0; m < space_size; ++m) {
      if (!values_.contains(m)) dc.push_back(m);
    }
    return dc;
  }

 private:
  struct Slot {
    bool value;
    bool forced;
  };
  std::unordered_map<Minterm, Slot> values_;
  std::vector<std::string>* warnings_;
};

/// Visits every y' in the transition sub-cube spanned by two codes.
template <typename Fn>
void for_each_cube_point(std::uint32_t code_from, std::uint32_t code_to, Fn&& fn) {
  const std::uint32_t diff = code_from ^ code_to;
  std::uint32_t sub = 0;
  while (true) {
    fn(code_from ^ sub);
    if (sub == diff) break;
    sub = (sub - diff) & diff;
  }
}

bool in_list(const std::vector<hazard::TotalState>& sorted_list, int column, int state) {
  const hazard::TotalState key{column, state};
  return std::binary_search(sorted_list.begin(), sorted_list.end(), key);
}

}  // namespace

FantomMachine synthesize(const FlowTable& input, const SynthesisOptions& options,
                         search::TranspositionTable* tt) {
  FantomMachine machine;
  machine.options = options;
  // One gate for all three searches: options.tt == false runs everything
  // cold even when the caller supplied a table.  When the memo is on,
  // the result must still be a pure function of (input, options) — the
  // identity string promises it — so a supplied table is cleared here
  // (entries from other inputs would steer budget-truncated searches)
  // and a missing or wrongly-sized one (capacity is result-relevant via
  // evictions) is replaced by a fresh local table of the fixed size.
  // Callers share the allocation and the stats counters, never warmth.
  search::TranspositionTable* memo = nullptr;
  std::unique_ptr<search::TranspositionTable> local_tt;
  if (options.tt) {
    constexpr std::size_t bytes = SynthesisOptions::tt_mb << 20;
    if (tt != nullptr &&
        tt->capacity() == search::TranspositionTable::slot_count_for(bytes)) {
      tt->clear();
      memo = tt;
    } else {
      local_tt = std::make_unique<search::TranspositionTable>(bytes);
      memo = local_tt.get();
    }
  }
  // Runs one minimized cover selection and folds its certified bounds
  // into the machine-level accounting.
  const auto min_cover = [&](int num_vars, std::span<const Minterm> on,
                             std::span<const Minterm> dc) {
    logic::CoverStats cstats;
    Cover cover = select_cover(num_vars, on, dc, &cstats,
                               logic::kDefaultExactNodeBudget, memo);
    machine.cover_bounds.cubes += cstats.cover_size;
    machine.cover_bounds.lower_bound += cstats.lower_bound;
    machine.cover_bounds.proven += cstats.exact ? 1 : 0;
    machine.cover_bounds.charts += 1;
    return cover;
  };

  // ---- Step 1: flow-table preparation -------------------------------
  FlowTable prepared = input;
  if (!prepared.is_normal_mode()) {
    prepared.normalize_to_normal_mode();
    machine.warnings.push_back("input table normalized to normal mode");
  }
  std::string why;
  if (!prepared.is_strongly_connected(&why)) {
    machine.warnings.push_back("table not strongly connected: " + why);
  }
  if (!prepared.every_state_has_stable(&why)) {
    throw std::runtime_error("synthesize: " + why);
  }

  // ---- Step 2: table reduction ---------------------------------------
  if (options.minimize_states && prepared.num_states() > 1) {
    minimize::ReductionResult reduction =
        minimize::reduce(prepared, options.reduce, memo);
    machine.table = reduction.reduced;
    machine.reduction = std::move(reduction);
  } else {
    machine.table = prepared;
  }
  const FlowTable& table = machine.table;

  // ---- Step 3: USTT state assignment ---------------------------------
  assign::Assignment assignment =
      assign::assign_ustt(table, options.assign, memo);
  if (!assign::verify_ustt(table, assignment.codes, assignment.num_vars, &why)) {
    throw std::logic_error("synthesize: USTT verification failed: " + why);
  }
  machine.codes = assignment.codes;
  machine.layout = VariableLayout{table.num_inputs(), assignment.num_vars, options.add_fsv};
  const VariableLayout& layout = machine.layout;
  if (layout.y_space_vars() > logic::kMaxVars) {
    throw std::runtime_error("synthesize: equation space exceeds variable limit");
  }

  // ---- Step 5: hazard search (needed before step 4's SSD off-set and
  //      the step 6 equations; SEANCE interleaves these freely) ---------
  hazard::EncodedTable encoded{&table, machine.codes, layout.num_state_vars};
  machine.hazards = hazard::find_hazards(encoded);

  const auto code_of = [&](int s) { return machine.codes[static_cast<std::size_t>(s)]; };

  // ---- Step 4: Z and SSD equations over (x, y) ------------------------
  for (int k = 0; k < table.num_outputs(); ++k) {
    SpecMap spec(&machine.warnings);
    for (int s = 0; s < table.num_states(); ++s) {
      for (int c = 0; c < table.num_columns(); ++c) {
        if (!table.is_stable(s, c)) continue;
        const Trit t = table.entry(s, c).outputs[static_cast<std::size_t>(k)];
        if (t == Trit::kDC) continue;
        spec.set(layout.xy_minterm(c, code_of(s)), t == Trit::k1, false, "Z");
      }
    }
    const auto on = spec.on_set();
    const auto dc = spec.dc_set(layout.xy_vars());
    Equation eq(min_cover(layout.xy_vars(), on, dc));
    eq.expr = logic::first_level_sop_expr(eq.cover);
    machine.z.push_back(std::move(eq));
  }

  {
    SpecMap spec(&machine.warnings);
    for (int s = 0; s < table.num_states(); ++s) {
      for (int c = 0; c < table.num_columns(); ++c) {
        const Entry& e = table.entry(s, c);
        if (e.specified()) {
          // Parked point: SSD is 1 exactly at stable total states (y == Y
          // for the original next-state function).
          spec.set(layout.xy_minterm(c, code_of(s)), e.next == s, false, "SSD");
          // In-flight points of the transition cube are unstable.
          if (e.next != s) {
            for_each_cube_point(code_of(s), code_of(e.next), [&](std::uint32_t y) {
              if (y != code_of(e.next)) {
                spec.set(layout.xy_minterm(c, y), false, false, "SSD");
              }
            });
          }
        }
      }
    }
    const auto on = spec.on_set();
    const auto dc = spec.dc_set(layout.xy_vars());
    machine.ssd = Equation(min_cover(layout.xy_vars(), on, dc));
    machine.ssd.expr = logic::first_level_sop_expr(machine.ssd.cover);
  }

  // ---- Step 6: fsv equation (ON exactly on FL; paper notes fsv is not a
  //      function of itself) -------------------------------------------
  if (options.add_fsv) {
    std::vector<Minterm> on;
    for (const hazard::TotalState& t : machine.hazards.fl) {
      on.push_back(layout.xy_minterm(t.column, code_of(t.state)));
    }
    // Step 7 for fsv: all prime implicants, first-level gates.
    machine.fsv = Equation(logic::all_primes_cover(layout.xy_vars(), on, {}));
    machine.fsv.expr = hazard::fsv_expression(machine.fsv.cover);
  } else {
    machine.fsv = Equation(Cover(layout.xy_vars()));
    machine.fsv.expr = logic::Expr::constant(false);
  }

  // ---- Step 6: Y equations over (x, y[, fsv]) -------------------------
  const std::uint32_t fsv_bit =
      options.add_fsv ? (1u << layout.fsv_var()) : 0u;
  for (int n = 0; n < layout.num_state_vars; ++n) {
    SpecMap spec(&machine.warnings);
    const std::uint32_t n_bit = 1u << n;
    for (int s = 0; s < table.num_states(); ++s) {
      for (int c = 0; c < table.num_columns(); ++c) {
        const Entry& e = table.entry(s, c);
        if (e.specified()) {
          const int d = e.next;
          const bool hazard_hold =
              options.add_fsv &&
              in_list(machine.hazards.per_var[static_cast<std::size_t>(n)], c, s);
          for_each_cube_point(code_of(s), code_of(d), [&](std::uint32_t y) {
            const Minterm base = layout.xy_minterm(c, y);
            const bool launch_value = (code_of(d) & n_bit) != 0;
            // fsv = 1 half: the original function (launch).
            if (options.add_fsv) {
              spec.set(base | fsv_bit, launch_value, false, "Y fsv=1");
            }
            // fsv = 0 half: hold the invariant bit at the parked point of a
            // hazard-listed entry; the original function elsewhere.
            const bool parked = (y == code_of(s));
            const bool value = (hazard_hold && parked) ? ((code_of(s) & n_bit) != 0)
                                                       : launch_value;
            spec.set(base, value, hazard_hold && parked, "Y fsv=0");
          });
        } else if (options.add_fsv &&
                   in_list(machine.hazards.hold_filled, c, s)) {
          // Unspecified entry visited as a MIC intermediate: fill to hold
          // the present state in both half-spaces (paper §5.3 semantics).
          const Minterm base = layout.xy_minterm(c, code_of(s));
          const bool hold_value = (code_of(s) & n_bit) != 0;
          spec.set(base, hold_value, true, "Y hold-fill");
          spec.set(base | fsv_bit, hold_value, true, "Y hold-fill");
        }
      }
    }
    const auto on = spec.on_set();
    const auto dc = spec.dc_set(layout.y_space_vars());
    Equation eq(min_cover(layout.y_space_vars(), on, dc));
    if (options.consensus_repair) {
      (void)logic::make_sic_static1_hazard_free(eq.cover);
    }
    // ---- Step 7: hazard factoring ------------------------------------
    eq.expr = options.factor ? hazard::factor_next_state(eq.cover, layout.state_var(n))
                             : logic::sop_expr(eq.cover);
    machine.y.push_back(std::move(eq));
  }

  return machine;
}

DepthReport FantomMachine::depth_report() const {
  DepthReport report;
  report.fsv_depth = fsv.expr ? fsv.expr->depth() : 0;
  for (const Equation& eq : y) {
    report.y_depth = std::max(report.y_depth, eq.expr->depth());
  }
  report.total_depth = report.fsv_depth + report.y_depth + 1;
  return report;
}

int FantomMachine::gate_count() const {
  int total = fsv.expr ? fsv.expr->gate_count() : 0;
  if (ssd.expr) total += ssd.expr->gate_count();
  for (const Equation& eq : y) total += eq.expr->gate_count();
  for (const Equation& eq : z) total += eq.expr->gate_count();
  return total;
}

std::string FantomMachine::report() const {
  std::ostringstream out;
  const std::vector<std::string> names = layout.names();
  out << "FANTOM machine: " << table.num_states() << " states, "
      << layout.num_inputs << " inputs, " << table.num_outputs() << " outputs, "
      << layout.num_state_vars << " state variables\n";
  out << "codes:";
  for (int s = 0; s < table.num_states(); ++s) {
    out << " " << table.state_name(s) << "=";
    for (int v = 0; v < layout.num_state_vars; ++v) {
      out << ((codes[static_cast<std::size_t>(s)] >> v) & 1u);
    }
  }
  out << "\n";
  for (std::size_t n = 0; n < y.size(); ++n) {
    out << "Y" << n << " = " << y[n].expr->to_string(names) << "\n";
  }
  for (std::size_t k = 0; k < z.size(); ++k) {
    out << "Z" << k << " = " << z[k].expr->to_string(names) << "\n";
  }
  out << "SSD = " << ssd.expr->to_string(names) << "\n";
  out << "fsv = " << fsv.expr->to_string(names) << "\n";
  const DepthReport depths = depth_report();
  out << "depths: fsv=" << depths.fsv_depth << " Y=" << depths.y_depth
      << " total=" << depths.total_depth << "\n";
  out << "hazard states: " << hazards.fl.size() << "\n";
  for (const std::string& w : warnings) out << "warning: " << w << "\n";
  return out.str();
}

bool verify_equations(const FantomMachine& machine, std::string* why) {
  const FlowTable& table = machine.table;
  const VariableLayout& layout = machine.layout;
  const auto code_of = [&](int s) {
    return machine.codes[static_cast<std::size_t>(s)];
  };
  const std::uint32_t fsv_bit =
      machine.options.add_fsv ? (1u << layout.fsv_var()) : 0u;
  const auto fail = [&](const std::string& message) {
    if (why != nullptr) *why = message;
    return false;
  };

  // Every equation's truth table, built once: each check below is then a
  // bit lookup instead of a cube scan or an expression-tree walk.
  using logic::TruthTable;
  std::vector<TruthTable> y_cover;
  std::vector<TruthTable> y_expr;
  for (int n = 0; n < layout.num_state_vars; ++n) {
    search::poll_deadline();
    const Equation& eq = machine.y[static_cast<std::size_t>(n)];
    y_cover.push_back(TruthTable::of(eq.cover, layout.y_space_vars()));
    y_expr.push_back(TruthTable::of(eq.expr, layout.y_space_vars()));
  }
  std::vector<TruthTable> z_cover;
  for (int k = 0; k < table.num_outputs(); ++k) {
    z_cover.push_back(TruthTable::of(machine.z[static_cast<std::size_t>(k)].cover,
                                     layout.xy_vars()));
  }
  const TruthTable ssd = TruthTable::of(machine.ssd.cover, layout.xy_vars());

  for (int s = 0; s < table.num_states(); ++s) {
    for (int c = 0; c < table.num_columns(); ++c) {
      search::poll_deadline();
      const Entry& e = table.entry(s, c);
      if (!e.specified()) continue;
      const int d = e.next;
      for (int n = 0; n < layout.num_state_vars; ++n) {
        const std::uint32_t n_bit = 1u << n;
        const bool hazard_hold =
            machine.options.add_fsv &&
            in_list(machine.hazards.per_var[static_cast<std::size_t>(n)], c, s);
        const TruthTable& cover = y_cover[static_cast<std::size_t>(n)];
        const TruthTable& expr = y_expr[static_cast<std::size_t>(n)];
        bool ok = true;
        for_each_cube_point(code_of(s), code_of(d), [&](std::uint32_t y) {
          const Minterm base = layout.xy_minterm(c, y);
          const bool launch = (code_of(d) & n_bit) != 0;
          if (machine.options.add_fsv && cover.test(base | fsv_bit) != launch) {
            ok = false;
          }
          const bool parked = (y == code_of(s));
          const bool expected = (hazard_hold && parked) ? ((code_of(s) & n_bit) != 0)
                                                        : launch;
          if (cover.test(base) != expected) ok = false;
          // The factored expression must agree with the cover everywhere.
          if (expr.test(base) != cover.test(base)) ok = false;
        });
        if (!ok) {
          return fail("Y" + std::to_string(n) + " wrong on transition (" +
                      table.state_name(s) + ", col " + std::to_string(c) + ")");
        }
      }
      // Z and SSD at parked/stable points.
      if (e.next == s) {
        const Minterm parked = layout.xy_minterm(c, code_of(s));
        for (int k = 0; k < table.num_outputs(); ++k) {
          const Trit t = e.outputs[static_cast<std::size_t>(k)];
          if (t == Trit::kDC) continue;
          if (z_cover[static_cast<std::size_t>(k)].test(parked) != (t == Trit::k1)) {
            return fail("Z" + std::to_string(k) + " wrong at stable (" +
                        table.state_name(s) + ", col " + std::to_string(c) + ")");
          }
        }
        if (!ssd.test(parked)) {
          return fail("SSD not asserted at stable (" + table.state_name(s) +
                      ", col " + std::to_string(c) + ")");
        }
      } else {
        const Minterm parked = layout.xy_minterm(c, code_of(s));
        if (ssd.test(parked)) {
          return fail("SSD asserted at unstable (" + table.state_name(s) +
                      ", col " + std::to_string(c) + ")");
        }
      }
    }
  }
  // fsv asserts exactly on FL points over valid codes.
  if (machine.options.add_fsv) {
    const TruthTable fsv = TruthTable::of(machine.fsv.cover, layout.xy_vars());
    for (int s = 0; s < table.num_states(); ++s) {
      for (int c = 0; c < table.num_columns(); ++c) {
        const bool expected = in_list(machine.hazards.fl, c, s);
        if (fsv.test(layout.xy_minterm(c, code_of(s))) != expected) {
          return fail("fsv wrong at (" + table.state_name(s) + ", col " +
                      std::to_string(c) + ")");
        }
      }
    }
  }
  return true;
}

}  // namespace seance::core
