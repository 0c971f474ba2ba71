// Structural gate netlist of a FANTOM machine (paper Figs. 1 and 2).
//
// The combinational core (Y network with direct feedback — the extended
// SI model forbids delay elements in the feedback path — plus the fsv,
// SSD, Z networks and gate A producing VOM) is flattened to a gate graph.
// The two flip-flop ranks (FFX clocked by G, FFZ clocked by VOM) and the
// G latch are sequential elements handled behaviourally by the simulator
// harness; here they appear as the primary-input boundary (x̂ = FFX
// outputs, G) and observation points (Z, VOM).

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/synthesize.hpp"
#include "logic/expr.hpp"

namespace seance::netlist {

enum class GateKind : std::uint8_t { kInput, kConst, kBuf, kNot, kAnd, kOr, kNor };

[[nodiscard]] const char* to_string(GateKind kind);

/// One gate; its output is net `id` (the index in Netlist::gates()).
struct Gate {
  GateKind kind = GateKind::kConst;
  bool const_value = false;
  std::vector<int> fanin;
  std::string name;  ///< optional diagnostic name
};

class Netlist {
 public:
  /// Wholesale construction from a pre-built gate vector (the structural
  /// Verilog reader reconstructs nets at their original indices, which
  /// the incremental builders cannot express).  Validates what the
  /// builders guarantee: every fanin index in range, and forward
  /// references (fanin index >= gate index) only through BUFs — the
  /// feedback-only-through-placeholders invariant the ternary netlist
  /// verifier cuts on.  Throws std::invalid_argument naming the offender.
  [[nodiscard]] static Netlist from_gates(std::vector<Gate> gates,
                                          std::map<std::string, int> outputs);

  [[nodiscard]] int add_input(std::string name);
  [[nodiscard]] int add_const(bool value);
  [[nodiscard]] int add_gate(GateKind kind, std::vector<int> fanin,
                             std::string name = {});
  /// Forward declaration for feedback nets: a BUF whose fanin is patched
  /// later with connect().
  [[nodiscard]] int add_placeholder(std::string name);
  void connect(int placeholder, int source);

  /// Instantiates an expression tree; `var_nets[i]` is the net for
  /// variable i.  Returns the output net.
  [[nodiscard]] int add_expr(const logic::ExprPtr& expr,
                             const std::vector<int>& var_nets,
                             const std::string& name = {});

  [[nodiscard]] const std::vector<Gate>& gates() const { return gates_; }
  [[nodiscard]] int size() const { return static_cast<int>(gates_.size()); }

  void set_output(const std::string& name, int net) { outputs_[name] = net; }
  [[nodiscard]] int output(const std::string& name) const;
  [[nodiscard]] const std::map<std::string, int>& outputs() const { return outputs_; }

  /// Gate counts by kind (inputs/constants excluded from "logic").
  struct Stats {
    int inputs = 0;
    int logic_gates = 0;
    int literals = 0;  ///< total fanin pins of logic gates
  };
  [[nodiscard]] Stats stats() const;

  /// Structural text dump (one line per gate).
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<Gate> gates_;
  std::map<std::string, int> outputs_;
};

/// Nets of interest of an assembled FANTOM machine.
struct FantomNets {
  std::vector<int> x;  ///< x̂ inputs (FFX outputs)
  int g = -1;          ///< G input (handshake latch output)
  std::vector<int> y;  ///< state-variable nets (feedback)
  std::vector<int> z;  ///< output-network nets (FFZ data inputs)
  int fsv = -1;
  int ssd = -1;
  int vom = -1;  ///< gate A output: NOR(G, fsv) AND SSD
  int nor_g_fsv = -1;

  /// Half-open gate-index ranges of each sub-network, for per-cone delay
  /// policies (the paper's critical-path constraints are relative gate
  /// speeds; the simulator applies them per cone).
  struct Range {
    int begin = 0;
    int end = 0;
  };
  Range fsv_range;
  Range ssd_range;
  Range y_range;
  Range z_range;
};

/// Builds the complete combinational network of Fig. 1/2 from synthesized
/// equations.  The baseline machine (no fsv) gets a constant-0 fsv net.
[[nodiscard]] FantomNets build_fantom(const core::FantomMachine& machine,
                                      Netlist& netlist);

/// Structural Verilog of the combinational network.  INPUT gates become
/// module inputs, registered outputs become module outputs, feedback BUFs
/// become plain wire assignments (the extended SI model's latch-free
/// feedback).  Gate primitives are emitted as continuous assignments so
/// the module elaborates under any Verilog-2001 tool.
///
/// Port names are sanitized and uniquified: characters outside
/// [A-Za-z0-9_$] become '_', a leading digit/'$' gets a '_' prefix, and a
/// result that is a Verilog keyword, matches the internal wire pattern
/// n<digits>, or collides with an earlier port gains trailing '_' until
/// unique (deterministic, pinned by test).  Output ports are o_<name>;
/// an empty name takes a positional default like an empty input name
/// does (in<net> for an input, out<net> for an output), so every export
/// parses back.  Throws std::invalid_argument
/// naming the gate when the netlist is not exportable: a BUF/NOT without
/// exactly one fanin (an unconnected placeholder) or a zero-fanin
/// AND/OR/NOR, which would emit `assign n = ;`.
///
/// One pass: the text is written through a cursor into a single buffer
/// sized up front from the gate, fanin and port counts, and net names
/// are formatted in place (std::to_chars), not built as strings.
[[nodiscard]] std::string to_verilog(const Netlist& netlist,
                                     const std::string& module_name);

}  // namespace seance::netlist
