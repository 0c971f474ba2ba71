#include "sim/ternary_netsim.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace seance::sim {

using netlist::Gate;
using netlist::GateKind;
using netlist::Netlist;

namespace {

/// Where the iteration cuts the gate graph, as the value slot each net
/// reads from inside a cone: inputs x0..x{j-1} and the feedback cuts
/// read their variable (layout numbering), other inputs the constant 0,
/// every other net -1 (it is computed).
struct CutPlan {
  std::vector<int> slot;
  std::vector<int> y;  ///< state cut nets (the y placeholder BUFs)
  int fsv = -1;        ///< fsv cut net, -1 when the layout has no fsv
};

/// Value slots of a compiled cone: the variables, then the constants.
int const_slot(const core::VariableLayout& layout, bool value) {
  return layout.y_space_vars() + (value ? 1 : 0);
}

CutPlan locate_cuts(const Netlist& net, const core::VariableLayout& layout) {
  CutPlan plan;
  plan.slot.assign(static_cast<std::size_t>(net.size()), -1);
  std::vector<int> input_of_name(static_cast<std::size_t>(layout.num_inputs), -1);
  for (int i = 0; i < net.size(); ++i) {
    const Gate& g = net.gates()[static_cast<std::size_t>(i)];
    if (g.kind != GateKind::kInput) continue;
    plan.slot[static_cast<std::size_t>(i)] = const_slot(layout, false);
    for (int k = 0; k < layout.num_inputs; ++k) {
      if (g.name == "x" + std::to_string(k)) input_of_name[static_cast<std::size_t>(k)] = i;
    }
  }
  for (int k = 0; k < layout.num_inputs; ++k) {
    const int n = input_of_name[static_cast<std::size_t>(k)];
    if (n < 0) {
      throw std::invalid_argument("gate_ternary_verify: netlist has no input x" +
                                  std::to_string(k));
    }
    plan.slot[static_cast<std::size_t>(n)] = layout.input_var(k);
  }
  for (int n = 0; n < layout.num_state_vars; ++n) {
    const int cut = net.output("y" + std::to_string(n));
    if (net.gates()[static_cast<std::size_t>(cut)].kind == GateKind::kInput) {
      throw std::invalid_argument("gate_ternary_verify: state output y" +
                                  std::to_string(n) + " is an input net");
    }
    if (plan.slot[static_cast<std::size_t>(cut)] >= 0) {
      throw std::invalid_argument(
          "gate_ternary_verify: state outputs share net n" + std::to_string(cut));
    }
    plan.slot[static_cast<std::size_t>(cut)] = layout.state_var(n);
    plan.y.push_back(cut);
  }
  if (layout.has_fsv) {
    plan.fsv = net.output("fsv");
    const Gate& g = net.gates()[static_cast<std::size_t>(plan.fsv)];
    if (g.kind == GateKind::kInput) {
      throw std::invalid_argument(
          "gate_ternary_verify: fsv net n" + std::to_string(plan.fsv) +
          " is an input — pinning it low would drive a primary input");
    }
    if (plan.slot[static_cast<std::size_t>(plan.fsv)] >= 0) {
      throw std::invalid_argument(
          "gate_ternary_verify: fsv net n" + std::to_string(plan.fsv) +
          " aliases a state cut — pinning it low would freeze a state "
          "variable (build_fantom anchors fsv behind a BUF to prevent this)");
    }
    plan.slot[static_cast<std::size_t>(plan.fsv)] = layout.fsv_var();
  }
  return plan;
}

/// Gate-level next values.  Each cut's cone (the gates its function
/// reaches without crossing another cut) is compiled once into a flat
/// op list in postorder with a CSR operand array, and every next value
/// is one linear sweep of it over the current variable planes, so the
/// Gauss-Seidel updates made earlier in the same pass are visible.
/// Every op is an AND over its operands, each optionally negated, with
/// the result optionally negated: OR and NOR are ANDs of negated
/// operands (De Morgan), NOT a one-operand NOR.  BUFs compile away.
class GateFeedback final : public detail::Feedback {
 public:
  GateFeedback(const Netlist& net, const core::VariableLayout& layout, CutPlan plan)
      : net_(net),
        layout_(layout),
        plan_(std::move(plan)),
        base_(const_slot(layout, true) + 1),
        root_(static_cast<std::size_t>(layout.y_space_vars())),
        cone_(static_cast<std::size_t>(layout.y_space_vars())) {}

  /// Compiles the cones in the order the first pass evaluates them (fsv
  /// unless pinned, then y0..yN-1), so an uncut cycle or a malformed
  /// BUF/NOT is reported on the first net that pass would reach.
  void prepare(bool fsv_low) override {
    if (plan_.fsv >= 0 && !fsv_low) compile_cone(layout_.fsv_var(), plan_.fsv);
    for (int n = 0; n < layout_.num_state_vars; ++n) {
      compile_cone(layout_.state_var(n), plan_.y[static_cast<std::size_t>(n)]);
    }
    values_.resize(static_cast<std::size_t>(base_) + ops_.size());
    values_[static_cast<std::size_t>(const_slot(layout_, true))] = {~std::uint64_t{0}, 0};
  }

  detail::Planes next(int var, std::span<const detail::Planes> vars) override {
    std::copy(vars.begin(), vars.end(), values_.begin());
    detail::Planes* value = values_.data();
    const auto [begin, end] = cone_[static_cast<std::size_t>(var)];
    for (int o = begin; o < end; ++o) {
      const Op& op = ops_[static_cast<std::size_t>(o)];
      detail::Planes v{~std::uint64_t{0}, 0};
      for (int a = op.begin; a < op.end; ++a) {
        const detail::Planes& in = value[operands_[static_cast<std::size_t>(a)]];
        v.one &= op.negate_in ? in.zero : in.one;
        v.zero |= op.negate_in ? in.one : in.zero;
      }
      value[base_ + o] = op.negate_out ? detail::Planes{v.zero, v.one} : v;
    }
    return value[root_[static_cast<std::size_t>(var)]];
  }

 private:
  struct Op {
    int begin;  ///< operand range in operands_
    int end;
    bool negate_in;
    bool negate_out;
  };
  static constexpr int kOnStack = -2;

  void compile_cone(int var, int cut) {
    memo_.assign(static_cast<std::size_t>(net_.size()), -1);
    const int begin = static_cast<int>(ops_.size());
    // The cut's own gate is its function, not its slot.
    root_[static_cast<std::size_t>(var)] = compile_function(cut);
    cone_[static_cast<std::size_t>(var)] = {begin, static_cast<int>(ops_.size())};
  }

  /// The value slot of net `i` as seen from inside a cone.
  int compile_net(int i) {
    const std::size_t at = static_cast<std::size_t>(i);
    if (plan_.slot[at] >= 0) return plan_.slot[at];
    if (memo_[at] == kOnStack) {
      throw std::logic_error("gate_ternary_verify: feedback cycle through net n" +
                             std::to_string(i) + " is not broken by a cut");
    }
    if (memo_[at] < 0) {
      memo_[at] = kOnStack;
      memo_[at] = compile_function(i);
    }
    return memo_[at];
  }

  int compile_function(int i) {
    const Gate& g = net_.gates()[static_cast<std::size_t>(i)];
    switch (g.kind) {
      case GateKind::kInput:
        return plan_.slot[static_cast<std::size_t>(i)];
      case GateKind::kConst:
        return const_slot(layout_, g.const_value);
      case GateKind::kBuf:
      case GateKind::kNot:
        if (g.fanin.size() != 1) {
          throw std::logic_error("gate_ternary_verify: gate n" + std::to_string(i) +
                                 " needs exactly one fanin");
        }
        if (g.kind == GateKind::kBuf) return compile_net(g.fanin[0]);
        [[fallthrough]];
      case GateKind::kAnd:
      case GateKind::kOr:
      case GateKind::kNor: {
        std::vector<int> in;
        for (const int f : g.fanin) in.push_back(compile_net(f));
        ops_.push_back({static_cast<int>(operands_.size()), 0, g.kind != GateKind::kAnd,
                        g.kind == GateKind::kOr});
        operands_.insert(operands_.end(), in.begin(), in.end());
        ops_.back().end = static_cast<int>(operands_.size());
        return base_ + static_cast<int>(ops_.size()) - 1;
      }
    }
    throw std::logic_error("gate_ternary_verify: unknown gate kind");
  }

  const Netlist& net_;
  const core::VariableLayout& layout_;
  const CutPlan plan_;
  const int base_;         ///< value slot of the first op
  std::vector<int> root_;  ///< per cut variable: the slot of its next value
  std::vector<std::pair<int, int>> cone_;  ///< per cut variable: op range
  std::vector<Op> ops_;
  std::vector<int> operands_;
  std::vector<detail::Planes> values_;
  std::vector<int> memo_;  ///< per net: its slot, -1 unvisited, kOnStack
};

}  // namespace

TernaryReport gate_ternary_verify(const Netlist& netlist,
                                  const core::FantomMachine& machine,
                                  bool fsv_low) {
  GateFeedback feedback(netlist, machine.layout, locate_cuts(netlist, machine.layout));
  return detail::run_procedures(machine, fsv_low, feedback);
}

TernaryReport gate_ternary_verify(const core::FantomMachine& machine,
                                  bool fsv_low) {
  Netlist net;
  (void)netlist::build_fantom(machine, net);
  return gate_ternary_verify(net, machine, fsv_low);
}

}  // namespace seance::sim
