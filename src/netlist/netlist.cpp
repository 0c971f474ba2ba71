#include "netlist/netlist.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace seance::netlist {

using logic::ExprPtr;
using logic::Op;

const char* to_string(GateKind kind) {
  switch (kind) {
    case GateKind::kInput:
      return "INPUT";
    case GateKind::kConst:
      return "CONST";
    case GateKind::kBuf:
      return "BUF";
    case GateKind::kNot:
      return "NOT";
    case GateKind::kAnd:
      return "AND";
    case GateKind::kOr:
      return "OR";
    case GateKind::kNor:
      return "NOR";
  }
  return "?";
}

Netlist Netlist::from_gates(std::vector<Gate> gates,
                            std::map<std::string, int> outputs) {
  const int size = static_cast<int>(gates.size());
  for (int i = 0; i < size; ++i) {
    const Gate& g = gates[static_cast<std::size_t>(i)];
    for (const int f : g.fanin) {
      if (f < 0 || f >= size) {
        throw std::invalid_argument("from_gates: gate n" + std::to_string(i) +
                                    " has out-of-range fanin n" +
                                    std::to_string(f));
      }
      if (f >= i && g.kind != GateKind::kBuf) {
        throw std::invalid_argument(
            "from_gates: gate n" + std::to_string(i) + " (" +
            netlist::to_string(g.kind) +
            ") forward-references n" + std::to_string(f) +
            " — feedback is only legal through a BUF");
      }
    }
  }
  for (const auto& [name, net] : outputs) {
    if (net < 0 || net >= size) {
      throw std::invalid_argument("from_gates: output '" + name +
                                  "' names out-of-range net n" +
                                  std::to_string(net));
    }
  }
  Netlist n;
  n.gates_ = std::move(gates);
  n.outputs_ = std::move(outputs);
  return n;
}

int Netlist::add_input(std::string name) {
  gates_.push_back(Gate{GateKind::kInput, false, {}, std::move(name)});
  return size() - 1;
}

int Netlist::add_const(bool value) {
  gates_.push_back(Gate{GateKind::kConst, value, {}, value ? "one" : "zero"});
  return size() - 1;
}

int Netlist::add_gate(GateKind kind, std::vector<int> fanin, std::string name) {
  for (int f : fanin) {
    if (f < 0 || f >= size()) throw std::invalid_argument("add_gate: bad fanin net");
  }
  gates_.push_back(Gate{kind, false, std::move(fanin), std::move(name)});
  return size() - 1;
}

int Netlist::add_placeholder(std::string name) {
  gates_.push_back(Gate{GateKind::kBuf, false, {}, std::move(name)});
  return size() - 1;
}

void Netlist::connect(int placeholder, int source) {
  Gate& gate = gates_.at(static_cast<std::size_t>(placeholder));
  if (gate.kind != GateKind::kBuf || !gate.fanin.empty()) {
    throw std::logic_error("connect: target is not an open placeholder");
  }
  gate.fanin.push_back(source);
}

int Netlist::add_expr(const ExprPtr& expr, const std::vector<int>& var_nets,
                      const std::string& name) {
  switch (expr->op()) {
    case Op::kConst:
      return add_const(expr->const_value());
    case Op::kVar:
      return var_nets.at(static_cast<std::size_t>(expr->var_index()));
    default: {
      std::vector<int> fanin;
      fanin.reserve(expr->kids().size());
      for (const ExprPtr& k : expr->kids()) fanin.push_back(add_expr(k, var_nets));
      GateKind kind = GateKind::kNot;
      if (expr->op() == Op::kAnd) kind = GateKind::kAnd;
      if (expr->op() == Op::kOr) kind = GateKind::kOr;
      if (expr->op() == Op::kNor) kind = GateKind::kNor;
      return add_gate(kind, std::move(fanin), name);
    }
  }
}

int Netlist::output(const std::string& name) const {
  const auto it = outputs_.find(name);
  if (it == outputs_.end()) throw std::invalid_argument("unknown output: " + name);
  return it->second;
}

Netlist::Stats Netlist::stats() const {
  Stats s;
  for (const Gate& g : gates_) {
    if (g.kind == GateKind::kInput) {
      ++s.inputs;
    } else if (g.kind != GateKind::kConst && g.kind != GateKind::kBuf) {
      ++s.logic_gates;
      s.literals += static_cast<int>(g.fanin.size());
    }
  }
  return s;
}

std::string Netlist::to_string() const {
  std::ostringstream out;
  for (int i = 0; i < size(); ++i) {
    const Gate& g = gates_[static_cast<std::size_t>(i)];
    out << "n" << i << " = " << netlist::to_string(g.kind);
    if (g.kind == GateKind::kConst) out << "(" << (g.const_value ? 1 : 0) << ")";
    if (!g.fanin.empty()) {
      out << "(";
      for (std::size_t k = 0; k < g.fanin.size(); ++k) {
        if (k > 0) out << ", ";
        out << "n" << g.fanin[k];
      }
      out << ")";
    }
    if (!g.name.empty()) out << "  # " << g.name;
    out << "\n";
  }
  for (const auto& [name, net] : outputs_) {
    out << "output " << name << " = n" << net << "\n";
  }
  return out.str();
}

namespace {

/// Verilog-2001 reserved words a port name must never shadow (the subset
/// is deliberately generous: any hit gains a trailing '_'), sorted.
constexpr std::array<std::string_view, 41> kKeywords = {
    "always",   "and",      "assign",   "begin",  "buf",       "case",
    "default",  "defparam", "else",     "end",    "endcase",   "endmodule",
    "for",      "function", "if",       "initial", "inout",    "input",
    "integer",  "module",   "nand",     "negedge", "nor",      "not",
    "or",       "output",   "parameter", "posedge", "reg",     "signed",
    "supply0",  "supply1",  "table",    "task",   "tri",       "wand",
    "while",    "wire",     "wor",      "xnor",   "xor"};
static_assert(std::is_sorted(kKeywords.begin(), kKeywords.end()));

bool is_verilog_keyword(std::string_view s) {
  return std::binary_search(kKeywords.begin(), kKeywords.end(), s);
}

/// True for the internal wire spelling n<digits> — input ports must not
/// alias it (an input literally named "n7" would silently short to wire
/// n7 in the emitted module).
bool is_internal_wire_name(const std::string& s) {
  if (s.size() < 2 || s[0] != 'n') return false;
  for (std::size_t i = 1; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
  }
  return true;
}

/// Deterministic identifier sanitization: invalid characters become '_',
/// a leading digit/'$' gets a '_' prefix, empty stays empty (the caller
/// substitutes a positional default first).
std::string sanitize_identifier(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '$';
    out += ok ? c : '_';
  }
  if (!out.empty() && ((out[0] >= '0' && out[0] <= '9') || out[0] == '$')) {
    out.insert(out.begin(), '_');
  }
  return out;
}

/// Netlist shapes to_verilog cannot express: a BUF/NOT without exactly
/// one fanin (an unconnected placeholder, or a malformed gate) and a
/// zero-fanin AND/OR/NOR (`assign n = ;`).  Checked up front so the
/// error names the gate instead of surfacing as std::out_of_range or
/// silently malformed output.
void validate_for_verilog(const Netlist& netlist) {
  for (int i = 0; i < netlist.size(); ++i) {
    const Gate& g = netlist.gates()[static_cast<std::size_t>(i)];
    const auto gate_label = [&] {
      std::string label = "gate n" + std::to_string(i) + " (" +
                          netlist::to_string(g.kind);
      if (!g.name.empty()) label += " '" + g.name + "'";
      label += ")";
      return label;
    };
    switch (g.kind) {
      case GateKind::kInput:
      case GateKind::kConst:
        break;
      case GateKind::kBuf:
      case GateKind::kNot:
        if (g.fanin.size() != 1) {
          throw std::invalid_argument(
              "to_verilog: " + gate_label() + " has " +
              std::to_string(g.fanin.size()) +
              " fanin nets, expected exactly 1" +
              (g.fanin.empty() ? " — unconnected feedback placeholder?" : ""));
        }
        break;
      case GateKind::kAnd:
      case GateKind::kOr:
      case GateKind::kNor:
        if (g.fanin.empty()) {
          throw std::invalid_argument("to_verilog: " + gate_label() +
                                      " has no fanin — the assignment would "
                                      "have an empty right-hand side");
        }
        break;
    }
  }
}

}  // namespace

std::string to_verilog(const Netlist& netlist, const std::string& module_name) {
  validate_for_verilog(netlist);
  const std::vector<Gate>& gates = netlist.gates();

  // Port naming: sanitize, then uniquify against keywords, the internal
  // n<digits> wire pattern, and earlier ports by appending '_'.  Inputs
  // first (in net order), then outputs (map order) — the emission order
  // below, so the mapping is deterministic and pinned by test.  An empty
  // name takes a positional default: in<net> for an input, out<net> for
  // an output.  `used` holds sorted views of the names placed in port_of
  // and output_port, which never reallocate once sized.
  std::vector<std::string> port_of(gates.size());
  std::vector<std::string> output_port;  // outputs() order
  output_port.reserve(netlist.outputs().size());
  std::vector<std::string_view> used;
  used.reserve(gates.size() + netlist.outputs().size());
  const auto taken = [&used](std::string_view name) {
    return std::binary_search(used.begin(), used.end(), name);
  };
  const auto take = [&used](std::string_view name) {
    used.insert(std::upper_bound(used.begin(), used.end(), name), name);
  };
  std::size_t widest_input = 0;
  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (gates[i].kind != GateKind::kInput) continue;
    std::string name = sanitize_identifier(
        gates[i].name.empty() ? "in" + std::to_string(i) : gates[i].name);
    if (name.empty()) name = "in" + std::to_string(i);
    while (is_verilog_keyword(name) || is_internal_wire_name(name) || taken(name)) {
      name += '_';
    }
    widest_input = std::max(widest_input, name.size());
    port_of[i] = std::move(name);
    take(port_of[i]);
  }
  for (const auto& [name, net] : netlist.outputs()) {
    std::string port =
        "o_" + sanitize_identifier(name.empty() ? "out" + std::to_string(net)
                                                : name);
    while (taken(port)) port += '_';
    output_port.push_back(std::move(port));
    take(output_port.back());
  }

  // One buffer, sized for the longest spelling of every line (a net
  // reference is an input port or n<index>, at most `ref` characters),
  // written through a cursor and cut to length at the end.
  const std::size_t ref =
      std::max(widest_input, std::to_string(gates.size()).size() + 1);
  std::size_t bound = module_name.size() + 32;
  for (const Gate& g : gates) bound += 2 * ref + 32 + g.fanin.size() * (ref + 3);
  for (const std::string& port : output_port) bound += 2 * port.size() + ref + 32;
  std::string out(bound, '\0');
  char* cursor = out.data();
  const auto put = [&cursor](std::string_view text) {
    std::memcpy(cursor, text.data(), text.size());
    cursor += text.size();
  };
  const auto put_net = [&](int i) {
    const auto at = static_cast<std::size_t>(i);
    if (gates[at].kind == GateKind::kInput) {
      put(port_of[at]);
    } else {
      *cursor++ = 'n';
      cursor = std::to_chars(cursor, cursor + ref, i).ptr;
    }
  };

  put("module ");
  put(module_name);
  put(" (\n");
  std::string_view separator = "  ";
  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (gates[i].kind != GateKind::kInput) continue;
    put(separator);
    put("input wire ");
    put(port_of[i]);
    separator = ",\n  ";
  }
  for (const std::string& port : output_port) {
    put(separator);
    put("output wire ");
    put(port);
    separator = ",\n  ";
  }
  put("\n);\n");

  for (int i = 0; i < netlist.size(); ++i) {
    if (gates[static_cast<std::size_t>(i)].kind == GateKind::kInput) continue;
    put("  wire ");
    put_net(i);
    put(";\n");
  }
  for (int i = 0; i < netlist.size(); ++i) {
    const Gate& g = gates[static_cast<std::size_t>(i)];
    if (g.kind == GateKind::kInput) continue;
    put("  assign ");
    put_net(i);
    put(" = ");
    switch (g.kind) {
      case GateKind::kInput:
        break;
      case GateKind::kConst:
        put(g.const_value ? "1'b1" : "1'b0");
        break;
      case GateKind::kBuf:
        put_net(g.fanin.front());
        break;
      case GateKind::kNot:
        *cursor++ = '~';
        put_net(g.fanin.front());
        break;
      case GateKind::kAnd:
      case GateKind::kOr:
      case GateKind::kNor: {
        const std::string_view op = g.kind == GateKind::kAnd ? " & " : " | ";
        if (g.kind == GateKind::kNor) put("~(");
        for (std::size_t k = 0; k < g.fanin.size(); ++k) {
          if (k > 0) put(op);
          put_net(g.fanin[k]);
        }
        if (g.kind == GateKind::kNor) *cursor++ = ')';
        break;
      }
    }
    put(";\n");
  }
  std::size_t k = 0;
  for (const auto& [name, net] : netlist.outputs()) {
    put("  assign ");
    put(output_port[k++]);
    put(" = ");
    put_net(net);
    put(";\n");
  }
  put("endmodule\n");
  out.resize(static_cast<std::size_t>(cursor - out.data()));
  return out;
}

FantomNets build_fantom(const core::FantomMachine& machine, Netlist& netlist) {
  const core::VariableLayout& layout = machine.layout;
  FantomNets nets;

  for (int i = 0; i < layout.num_inputs; ++i) {
    nets.x.push_back(netlist.add_input("x" + std::to_string(i)));
  }
  nets.g = netlist.add_input("G");

  // Feedback placeholders for the state variables (wire, no delay element).
  for (int n = 0; n < layout.num_state_vars; ++n) {
    nets.y.push_back(netlist.add_placeholder("y" + std::to_string(n)));
  }

  // Variable map for (x, y) equations.
  std::vector<int> xy_nets;
  for (int i = 0; i < layout.num_inputs; ++i) xy_nets.push_back(nets.x[static_cast<std::size_t>(i)]);
  for (int n = 0; n < layout.num_state_vars; ++n) xy_nets.push_back(nets.y[static_cast<std::size_t>(n)]);

  nets.fsv_range.begin = netlist.size();
  nets.fsv = netlist.add_expr(machine.fsv.expr, xy_nets, "fsv");
  // When the fsv expression collapses to a bare variable, add_expr hands
  // back that variable's net — an input or a y feedback wire.  Anchor it
  // behind a BUF so fsv is always a distinct net: the ternary netlist
  // verifier pins the fsv *net* low during Procedure A (the paper's
  // protection window), which must never also pin an input or state wire.
  if (nets.fsv < nets.fsv_range.begin) {
    nets.fsv = netlist.add_gate(GateKind::kBuf, {nets.fsv}, "fsv");
  }
  nets.fsv_range.end = netlist.size();

  nets.ssd_range.begin = netlist.size();
  nets.ssd = netlist.add_expr(machine.ssd.expr, xy_nets, "SSD");
  nets.ssd_range.end = netlist.size();

  // Y equations additionally see fsv.
  std::vector<int> y_space_nets = xy_nets;
  if (layout.has_fsv) y_space_nets.push_back(nets.fsv);
  nets.y_range.begin = netlist.size();
  for (int n = 0; n < layout.num_state_vars; ++n) {
    const int out = netlist.add_expr(machine.y[static_cast<std::size_t>(n)].expr,
                                     y_space_nets, "Y" + std::to_string(n));
    netlist.connect(nets.y[static_cast<std::size_t>(n)], out);
  }
  nets.y_range.end = netlist.size();

  nets.z_range.begin = netlist.size();
  for (std::size_t k = 0; k < machine.z.size(); ++k) {
    nets.z.push_back(
        netlist.add_expr(machine.z[k].expr, xy_nets, "Z" + std::to_string(k)));
  }
  nets.z_range.end = netlist.size();

  // Gate A (Fig. 2): VOM = NOR(G, fsv) AND SSD.
  nets.nor_g_fsv = netlist.add_gate(GateKind::kNor, {nets.g, nets.fsv}, "norGfsv");
  nets.vom = netlist.add_gate(GateKind::kAnd, {nets.nor_g_fsv, nets.ssd}, "VOM");

  netlist.set_output("VOM", nets.vom);
  netlist.set_output("fsv", nets.fsv);
  netlist.set_output("SSD", nets.ssd);
  for (std::size_t n = 0; n < nets.y.size(); ++n) {
    netlist.set_output("y" + std::to_string(n), nets.y[n]);
  }
  for (std::size_t k = 0; k < nets.z.size(); ++k) {
    netlist.set_output("Z" + std::to_string(k), nets.z[k]);
  }
  return nets;
}

}  // namespace seance::netlist
