#include "netlist/verilog_reference.hpp"

#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace seance::netlist {

namespace {

/// Verilog-2001 reserved words a port name must never shadow (the subset
/// is deliberately generous: any hit gains a trailing '_').
bool is_verilog_keyword(const std::string& s) {
  static const char* const kKeywords[] = {
      "always",   "and",      "assign",   "begin",  "buf",       "case",
      "default",  "defparam", "else",     "end",    "endcase",   "endmodule",
      "for",      "function", "if",       "inout",  "initial",   "input",
      "integer",  "module",   "nand",     "negedge", "nor",      "not",
      "or",       "output",   "parameter", "posedge", "reg",     "signed",
      "supply0",  "supply1",  "table",    "task",   "tri",       "wand",
      "while",    "wire",     "wor",      "xnor",   "xor"};
  for (const char* k : kKeywords) {
    if (s == k) return true;
  }
  return false;
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

std::string reference_to_verilog(const Netlist& netlist,
                                 const std::string& module_name) {
  validate_for_verilog(netlist);

  std::ostringstream out;
  std::vector<int> inputs;
  for (int i = 0; i < netlist.size(); ++i) {
    if (netlist.gates()[static_cast<std::size_t>(i)].kind == GateKind::kInput) {
      inputs.push_back(i);
    }
  }

  // Port naming: sanitize, then uniquify against keywords, the internal
  // n<digits> wire pattern, and earlier ports by appending '_'.  Inputs
  // first (in net order), then outputs (map order) — the emission order
  // below, so the mapping is deterministic and pinned by test.
  std::vector<std::string> port_of(static_cast<std::size_t>(netlist.size()));
  std::set<std::string> used;
  for (const int i : inputs) {
    const Gate& g = netlist.gates()[static_cast<std::size_t>(i)];
    std::string name =
        sanitize_identifier(g.name.empty() ? "in" + std::to_string(i) : g.name);
    if (name.empty()) name = "in" + std::to_string(i);
    while (is_verilog_keyword(name) || is_internal_wire_name(name) ||
           used.count(name) != 0) {
      name += '_';
    }
    used.insert(name);
    port_of[static_cast<std::size_t>(i)] = std::move(name);
  }
  std::map<std::string, std::string> output_port;
  for (const auto& [name, net] : netlist.outputs()) {
    (void)net;
    std::string port = "o_" + sanitize_identifier(name);
    while (used.count(port) != 0) port += '_';
    used.insert(port);
    output_port[name] = std::move(port);
  }

  const auto net_name = [&](int i) {
    const Gate& g = netlist.gates()[static_cast<std::size_t>(i)];
    if (g.kind == GateKind::kInput) return port_of[static_cast<std::size_t>(i)];
    return "n" + std::to_string(i);
  };

  out << "module " << module_name << " (\n";
  bool first = true;
  for (int i : inputs) {
    out << (first ? "  input wire " : ",\n  input wire ") << net_name(i);
    first = false;
  }
  for (const auto& [name, net] : netlist.outputs()) {
    (void)net;
    out << (first ? "  output wire " : ",\n  output wire ")
        << output_port.at(name);
    first = false;
  }
  out << "\n);\n";

  for (int i = 0; i < netlist.size(); ++i) {
    const Gate& g = netlist.gates()[static_cast<std::size_t>(i)];
    if (g.kind == GateKind::kInput) continue;
    out << "  wire " << net_name(i) << ";\n";
  }
  for (int i = 0; i < netlist.size(); ++i) {
    const Gate& g = netlist.gates()[static_cast<std::size_t>(i)];
    switch (g.kind) {
      case GateKind::kInput:
        break;
      case GateKind::kConst:
        out << "  assign " << net_name(i) << " = 1'b" << (g.const_value ? 1 : 0) << ";\n";
        break;
      case GateKind::kBuf:
        out << "  assign " << net_name(i) << " = " << net_name(g.fanin.at(0)) << ";\n";
        break;
      case GateKind::kNot:
        out << "  assign " << net_name(i) << " = ~" << net_name(g.fanin.at(0)) << ";\n";
        break;
      case GateKind::kAnd:
      case GateKind::kOr:
      case GateKind::kNor: {
        const char* op = g.kind == GateKind::kAnd ? " & " : " | ";
        out << "  assign " << net_name(i) << " = ";
        if (g.kind == GateKind::kNor) out << "~(";
        for (std::size_t k = 0; k < g.fanin.size(); ++k) {
          if (k > 0) out << op;
          out << net_name(g.fanin[k]);
        }
        if (g.kind == GateKind::kNor) out << ")";
        out << ";\n";
        break;
      }
    }
  }
  for (const auto& [name, net] : netlist.outputs()) {
    out << "  assign " << output_port.at(name) << " = " << net_name(net)
        << ";\n";
  }
  out << "endmodule\n";
  return out.str();
}

namespace {

/// A token is a view into the parsed text, which outlives the parse.
struct Token {
  std::string_view text;
  int line = 0;
};

[[noreturn]] void fail(int line, const std::string& why) {
  throw std::runtime_error("parse_verilog: line " + std::to_string(line) +
                           ": " + why);
}

bool is_ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == '$';
}

bool is_ident_char(char c) {
  return is_ident_start(c) || (c >= '0' && c <= '9');
}

/// Identifiers, the two constant literals, and single-character
/// punctuation; `//` comments run to end of line.
std::vector<Token> tokenize(std::string_view text) {
  std::vector<Token> tokens;
  int line = 1;
  std::size_t i = 0;
  while (i < text.size()) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < text.size() && text[i + 1] == '/') {
      while (i < text.size() && text[i] != '\n') ++i;
      continue;
    }
    if (is_ident_start(c)) {
      std::size_t j = i + 1;
      while (j < text.size() && is_ident_char(text[j])) ++j;
      tokens.push_back({text.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (c >= '0' && c <= '9') {
      // Sized binary literal: 1'b0 / 1'b1 is the only number to_verilog
      // emits; anything else is rejected where it is consumed.
      std::size_t j = i + 1;
      while (j < text.size() &&
             (is_ident_char(text[j]) || text[j] == '\'')) {
        ++j;
      }
      tokens.push_back({text.substr(i, j - i), line});
      i = j;
      continue;
    }
    switch (c) {
      case '(': case ')': case ',': case ';': case '=': case '~':
      case '&': case '|':
        tokens.push_back({text.substr(i, 1), line});
        ++i;
        break;
      default:
        fail(line, std::string("unexpected character '") + c + "'");
    }
  }
  return tokens;
}

/// Cursor over the token stream with one-line error reporting.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  [[nodiscard]] bool done() const { return pos_ >= tokens_.size(); }
  [[nodiscard]] const Token& peek() const {
    if (done()) fail(last_line(), "unexpected end of input");
    return tokens_[pos_];
  }
  Token next() {
    const Token t = peek();
    ++pos_;
    return t;
  }
  Token expect(std::string_view text) {
    const Token t = next();
    if (t.text != text) {
      fail(t.line, "expected '" + std::string(text) + "', got '" +
                       std::string(t.text) + "'");
    }
    return t;
  }
  Token expect_ident() {
    const Token t = next();
    if (t.text.empty() || !is_ident_start(t.text[0])) {
      fail(t.line, "expected an identifier, got '" + std::string(t.text) + "'");
    }
    return t;
  }
  [[nodiscard]] int last_line() const {
    return tokens_.empty() ? 1 : tokens_.back().line;
  }

 private:
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

/// n<digits> -> index, or -1 when the name is not an internal wire.
int wire_index(std::string_view name) {
  if (name.size() < 2 || name[0] != 'n') return -1;
  long value = 0;
  for (std::size_t i = 1; i < name.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return -1;
    value = value * 10 + (c - '0');
    if (value > 10'000'000) return -1;  // caps the reconstructed size
  }
  return static_cast<int>(value);
}

struct ParsedAssign {
  Token lhs;
  GateKind kind = GateKind::kBuf;
  bool const_value = false;
  std::vector<Token> fanin;  ///< operand identifiers, unresolved
  int line = 0;
};

/// One continuous-assignment right-hand side (`=` consumed, stops at `;`).
ParsedAssign parse_rhs(Parser& p) {
  ParsedAssign a;
  Token t = p.next();
  a.line = t.line;
  if (t.text == "1'b0" || t.text == "1'b1") {
    a.kind = GateKind::kConst;
    a.const_value = t.text == "1'b1";
    p.expect(";");
    return a;
  }
  if (t.text == "~") {
    if (p.peek().text == "(") {
      p.expect("(");
      a.kind = GateKind::kNor;
      a.fanin.push_back(p.expect_ident());
      while (p.peek().text == "|") {
        p.expect("|");
        a.fanin.push_back(p.expect_ident());
      }
      p.expect(")");
    } else {
      a.kind = GateKind::kNot;
      a.fanin.push_back(p.expect_ident());
    }
    p.expect(";");
    return a;
  }
  if (t.text.empty() || !is_ident_start(t.text[0])) {
    fail(t.line, "expected an operand, got '" + std::string(t.text) + "'");
  }
  a.fanin.push_back(t);
  const std::string_view op = p.peek().text;
  if (op == "&" || op == "|") {
    a.kind = op == "&" ? GateKind::kAnd : GateKind::kOr;
    while (p.peek().text == op) {
      p.expect(op);
      a.fanin.push_back(p.expect_ident());
    }
    if (p.peek().text == "&" || p.peek().text == "|") {
      fail(p.peek().line, "mixed '&'/'|' without parentheses");
    }
  } else {
    a.kind = GateKind::kBuf;
  }
  p.expect(";");
  return a;
}

struct Wire {
  Token name;
  int index = 0;
};

}  // namespace

Netlist reference_parse_verilog(const std::string& text) {
  Parser p(tokenize(text));

  p.expect("module");
  p.expect_ident();  // module name: not part of the netlist
  p.expect("(");

  std::vector<Token> input_ports;
  std::vector<Token> output_ports;
  if (p.peek().text != ")") {
    while (true) {
      const Token dir = p.next();
      const bool is_input = dir.text == "input";
      if (!is_input && dir.text != "output") {
        fail(dir.line, "expected 'input' or 'output', got '" +
                           std::string(dir.text) + "'");
      }
      if (p.peek().text == "wire") p.expect("wire");
      const Token name = p.expect_ident();
      (is_input ? input_ports : output_ports).push_back(name);
      if (p.peek().text != ",") break;
      p.expect(",");
    }
  }
  p.expect(")");
  p.expect(";");

  // Body: wire declarations and assigns, in any order (to_verilog emits
  // all wires first, but feedback means assigns reference wires declared
  // anywhere, so collect everything before building).  Duplicates are
  // caught as they are read: wires by index, assigns by spelling.
  std::vector<Wire> wires;  // declaration order
  std::vector<bool> wire_declared;  // by index
  std::vector<ParsedAssign> assigns;  // declaration order
  std::unordered_map<std::string_view, std::size_t> assign_of;  // lhs -> position
  while (p.peek().text != "endmodule") {
    const Token t = p.next();
    if (t.text == "wire") {
      while (true) {
        const Token name = p.expect_ident();
        const int index = wire_index(name.text);
        if (index < 0) {
          fail(name.line, "wire '" + std::string(name.text) +
                              "' is not of the internal form n<index>");
        }
        const auto i = static_cast<std::size_t>(index);
        if (i >= wire_declared.size()) wire_declared.resize(i + 1);
        if (wire_declared[i]) {
          fail(name.line, "duplicate wire '" + std::string(name.text) + "'");
        }
        wire_declared[i] = true;
        wires.push_back({name, index});
        if (p.peek().text != ",") break;
        p.expect(",");
      }
      p.expect(";");
    } else if (t.text == "assign") {
      const Token lhs = p.expect_ident();
      p.expect("=");
      ParsedAssign rhs = parse_rhs(p);
      rhs.lhs = lhs;
      if (!assign_of.emplace(lhs.text, assigns.size()).second) {
        fail(lhs.line,
             "duplicate assignment to '" + std::string(lhs.text) + "'");
      }
      assigns.push_back(std::move(rhs));
    } else {
      fail(t.line, "expected 'wire', 'assign' or 'endmodule', got '" +
                       std::string(t.text) + "'");
    }
  }
  p.expect("endmodule");
  if (!p.done()) fail(p.peek().line, "trailing input after endmodule");

  // Net numbering: wires keep their emitted indices; input ports fill the
  // remaining slots in declaration order (to_verilog lists inputs in net
  // order, so this reconstructs the original indices exactly).  Of the
  // wires past the end, the lowest index is reported.
  const int total = static_cast<int>(wires.size() + input_ports.size());
  const Wire* gap = nullptr;
  for (const Wire& w : wires) {
    if (w.index >= total && (gap == nullptr || w.index < gap->index)) gap = &w;
  }
  if (gap != nullptr) {
    fail(gap->name.line, "wire '" + std::string(gap->name.text) +
                             "' leaves a gap: " + std::to_string(total) +
                             " nets declared but index " +
                             std::to_string(gap->index) + " used");
  }
  std::vector<const Wire*> wire_at(static_cast<std::size_t>(total), nullptr);
  for (const Wire& w : wires) wire_at[static_cast<std::size_t>(w.index)] = &w;

  // The wires sit at distinct indices (duplicates failed above), all
  // below `total` (gaps failed just now), so they fill wires.size() of
  // the `total` slots and exactly input_ports.size() slots are left: each
  // free slot below takes the next port, and no port or slot is left over.
  std::map<std::string_view, int> input_net;
  std::vector<Gate> gates(static_cast<std::size_t>(total));
  std::size_t next_input = 0;
  for (int i = 0; i < total; ++i) {
    if (wire_at[static_cast<std::size_t>(i)] != nullptr) continue;
    const Token& port = input_ports[next_input++];
    if (!input_net.emplace(port.text, i).second) {
      fail(port.line, "duplicate input port '" + std::string(port.text) + "'");
    }
    gates[static_cast<std::size_t>(i)] =
        Gate{GateKind::kInput, false, {}, std::string(port.text)};
  }
  // total = wires + inputs and every free slot consumed one input, so all
  // input ports are placed; wires resolve by their own spelling.
  for (const Wire* w : wire_at) {
    if (w != nullptr && input_net.count(w->name.text) != 0) {
      fail(w->name.line, "wire '" + std::string(w->name.text) +
                             "' collides with an input port");
    }
  }

  const auto resolve = [&](const Token& ident) {
    const int index = wire_index(ident.text);
    if (index >= 0 && index < total) {
      const Wire* w = wire_at[static_cast<std::size_t>(index)];
      if (w != nullptr && w->name.text == ident.text) return index;
    }
    const auto it = input_net.find(ident.text);
    if (it == input_net.end()) {
      fail(ident.line, "unknown identifier '" + std::string(ident.text) + "'");
    }
    return it->second;
  };

  // Looks up the assign to `name` and marks it as placed.
  std::vector<bool> landed(assigns.size());
  const auto take_assign = [&](std::string_view name) -> const ParsedAssign* {
    const auto it = assign_of.find(name);
    if (it == assign_of.end()) return nullptr;
    landed[it->second] = true;
    return &assigns[it->second];
  };

  // Gate definitions: every wire needs exactly one assign.
  std::map<std::string, int> outputs;
  for (int index = 0; index < total; ++index) {
    const Wire* w = wire_at[static_cast<std::size_t>(index)];
    if (w == nullptr) continue;
    const ParsedAssign* a = take_assign(w->name.text);
    if (a == nullptr) {
      fail(w->name.line,
           "wire '" + std::string(w->name.text) + "' is never assigned");
    }
    Gate& g = gates[static_cast<std::size_t>(index)];
    g.kind = a->kind;
    g.const_value = a->const_value;
    for (const Token& operand : a->fanin) {
      const int fanin = resolve(operand);
      if (fanin >= index && a->kind != GateKind::kBuf) {
        fail(a->line, "feedback into '" + std::string(w->name.text) +
                          "' through a non-buffer gate — only plain-copy "
                          "assigns may reference later wires");
      }
      g.fanin.push_back(fanin);
    }
  }

  // Output bindings: `assign o_<name> = <net>;`, one per output port.
  for (const Token& port : output_ports) {
    const std::string name(port.text);
    const ParsedAssign* a = take_assign(port.text);
    if (a == nullptr) {
      fail(port.line, "output port '" + name + "' is never assigned");
    }
    if (a->kind != GateKind::kBuf || a->fanin.size() != 1) {
      fail(a->line, "output port '" + name + "' must be bound to a single net");
    }
    if (!port.text.starts_with("o_") || port.text.size() <= 2) {
      fail(port.line, "output port '" + name +
                          "' lacks the o_<name> prefix to_verilog emits");
    }
    if (!outputs.emplace(name.substr(2), resolve(a->fanin[0])).second) {
      fail(port.line, "duplicate output '" + name + "'");
    }
  }
  // Every assign must have landed as a gate definition or output binding;
  // of those that did not, the first in spelling order is reported.
  const ParsedAssign* stray = nullptr;
  for (std::size_t i = 0; i < assigns.size(); ++i) {
    if (!landed[i] && (stray == nullptr || assigns[i].lhs.text < stray->lhs.text)) {
      stray = &assigns[i];
    }
  }
  if (stray != nullptr) {
    fail(stray->line, "assignment to '" + std::string(stray->lhs.text) +
                          "', which is neither a wire nor an output port");
  }

  try {
    return Netlist::from_gates(std::move(gates), std::move(outputs));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("parse_verilog: ") + e.what());
  }
}

}  // namespace seance::netlist
