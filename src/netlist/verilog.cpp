#include "netlist/verilog.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace seance::netlist {

namespace {

[[noreturn]] void fail(int line, const std::string& why) {
  throw std::runtime_error("parse_verilog: line " + std::to_string(line) + ": " + why);
}

std::string quoted(std::string_view text) { return "'" + std::string(text) + "'"; }

enum : unsigned char { kSpace = 1, kIdent = 2, kDigit = 4, kPunct = 8 };

constexpr std::array<unsigned char, 256> kClass = [] {
  std::array<unsigned char, 256> c{};
  for (int i = 0; i < 26; ++i) c['a' + i] = c['A' + i] = kIdent;
  for (int i = 0; i < 10; ++i) c['0' + i] = kDigit;
  c['_'] = c['$'] = kIdent;
  c[' '] = c['\t'] = c['\r'] = c['\n'] = kSpace;
  for (const char p : std::string_view("(),;=~&|")) c[static_cast<unsigned char>(p)] = kPunct;
  return c;
}();

unsigned char class_of(char c) { return kClass[static_cast<unsigned char>(c)]; }

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

/// A token is a view into the parsed text, which outlives the parse.
struct Token {
  std::string_view text;
  int line = 1;
};

/// Fails at `t`'s line, naming it between `before` and `after`.
[[noreturn]] void fail(const Token& t, const std::string& before, const std::string& after = "") {
  fail(t.line, before + quoted(t.text) + after);
}

/// Lexes on demand with one token of lookahead.  A number is a digit then
/// identifier characters and quotes (1'b0 / 1'b1 is the only one
/// to_verilog emits); punctuation is one character.
class Cursor {
 public:
  explicit Cursor(const std::string& text) : text_(text) { advance(); }

  [[nodiscard]] bool done() const { return done_; }
  /// At the end, the last token's line (line 1 for an empty text).
  [[nodiscard]] const Token& peek() const {
    if (done_) fail(tok_.line, "unexpected end of input");
    return tok_;
  }
  Token next() {
    const Token t = peek();
    advance();
    return t;
  }
  /// No token but a punctuation mark starts with one.
  [[nodiscard]] bool at(char punct) const { return peek().text[0] == punct; }
  bool accept(char punct) {
    if (!at(punct)) return false;
    advance();
    return true;
  }
  void expect(char punct) {
    const Token t = next();
    if (t.text[0] != punct) fail_at(t, "expected " + quoted({&punct, 1}) + ", got ");
  }
  Token expect_ident() {
    const Token t = next();
    if (class_of(t.text[0]) != kIdent) fail_at(t, "expected an identifier, got ");
    return t;
  }
  /// Lexes the rest first: a rejected character anywhere is reported
  /// ahead of any syntax or semantic error.
  [[noreturn]] void fail_at(int line, const std::string& why) {
    while (!done_) advance();
    fail(line, why);
  }
  [[noreturn]] void fail_at(const Token& t, const std::string& before,
                            const std::string& after = "") {
    fail_at(t.line, before + quoted(t.text) + after);
  }

 private:
  void advance() {
    const char* const s = text_.data();  // NUL-terminated: ends any run
    for (const std::size_t size = text_.size(); pos_ < size;) {
      const char c = s[pos_];
      const unsigned char cls = class_of(c);
      if (cls == kSpace) {
        line_ += c == '\n' ? 1 : 0;
        ++pos_;
        continue;
      }
      if (c == '/' && s[pos_ + 1] == '/') {
        pos_ = std::min(text_.find('\n', pos_), size);
        continue;
      }
      std::size_t end = pos_ + 1;
      if (cls == kIdent) {
        while ((class_of(s[end]) & (kIdent | kDigit)) != 0) ++end;
      } else if (cls == kDigit) {
        while ((class_of(s[end]) & (kIdent | kDigit)) != 0 || s[end] == '\'') ++end;
      } else if (cls != kPunct) {
        fail(line_, std::string("unexpected character '") + c + "'");
      }
      tok_ = {std::string_view(s + pos_, end - pos_), line_};
      pos_ = end;
      return;
    }
    done_ = true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  Token tok_;
  bool done_ = false;
};

struct Assign {
  Token lhs;
  int line = 0;  ///< line of the right-hand side's first token
  GateKind kind = GateKind::kBuf;
  bool const_value = false;
  int key = -1;  ///< see key_of; -1 when keyed in other_assign
  std::size_t first = 0;  ///< operands [first, first + count)
  std::size_t count = 0;
};

/// (spelling, declaration position) pairs, sorted.
using Ports = std::vector<std::pair<std::string_view, int>>;
Ports sorted_ports(const std::vector<Token>& ports) {
  Ports sorted;
  sorted.reserve(ports.size());
  for (const Token& port : ports) sorted.emplace_back(port.text, static_cast<int>(sorted.size()));
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

/// The first declaration position spelled `name`, or -1.
int find_port(const Ports& sorted, std::string_view name) {
  const auto it = std::lower_bound(
      sorted.begin(), sorted.end(), name,
      [](const auto& entry, std::string_view key) { return entry.first < key; });
  return it != sorted.end() && it->first == name ? it->second : -1;
}

/// to_verilog never spells a port like an internal wire.
bool wire_like(const std::vector<Token>& ports) {
  return std::any_of(ports.begin(), ports.end(),
                     [](const Token& t) { return wire_index(t.text) >= 0; });
}

/// Sets bit `i`, growing on demand; returns whether it was set already.
bool test_and_set(std::vector<bool>& bits, int i) {
  const auto at = static_cast<std::size_t>(i);
  if (at >= bits.size()) bits.resize(std::max(at + 1, 2 * bits.size()));
  if (bits[at]) return true;
  bits[at] = true;
  return false;
}

}  // namespace

Netlist parse_verilog(const std::string& text) {
  Cursor p(text);
  const Token head = p.next();
  if (head.text != "module") p.fail_at(head, "expected 'module', got ");
  p.expect_ident();  // module name: not part of the netlist
  p.expect('(');
  std::vector<Token> inputs;
  std::vector<Token> outputs;
  if (!p.at(')')) {
    do {
      const Token dir = p.next();
      const bool is_input = dir.text == "input";
      if (!is_input && dir.text != "output") p.fail_at(dir, "expected 'input' or 'output', got ");
      if (p.peek().text == "wire") p.next();
      (is_input ? inputs : outputs).push_back(p.expect_ident());
    } while (p.accept(','));
  }
  p.expect(')');
  p.expect(';');
  const Ports input_of = sorted_ports(inputs);
  const Ports output_of = sorted_ports(outputs);
  // Assignment keys: an output port's first declaration position, else
  // outputs.size() + k for a canonical n<k>, else -1 (other_assign).
  const bool outputs_wire_like = wire_like(outputs);
  const int nets_from = static_cast<int>(outputs.size());
  const auto key_of = [&](std::string_view name) {
    const int k = wire_index(name);
    const bool canonical = k >= 0 && (name.size() == 2 || name[1] != '0');
    const int output = canonical && !outputs_wire_like ? -1 : find_port(output_of, name);
    return output >= 0 ? output : canonical ? nets_from + k : -1;
  };
  std::unordered_map<std::string_view, int> other_assign;
  // Body, read whole before building (feedback means an assign may name a
  // wire declared anywhere); duplicates fail as they are read.
  std::vector<Token> wires;
  std::vector<Assign> assigns;
  std::vector<Token> operands;
  std::vector<bool> wire_seen;
  std::vector<bool> key_seen;
  while (p.peek().text != "endmodule") {
    const Token t = p.next();
    if (t.text == "wire") {
      do {
        const Token name = p.expect_ident();
        const int index = wire_index(name.text);
        if (index < 0) p.fail_at(name, "wire ", " is not of the internal form n<index>");
        if (test_and_set(wire_seen, index)) p.fail_at(name, "duplicate wire ");
        wires.push_back(name);
      } while (p.accept(','));
      p.expect(';');
      continue;
    }
    if (t.text != "assign") p.fail_at(t, "expected 'wire', 'assign' or 'endmodule', got ");
    // to_verilog emits every wire first, then one assign per wire/output.
    if (assigns.empty()) assigns.reserve(wires.size() + outputs.size());
    Assign a{p.expect_ident()};
    p.expect('=');
    const Token rhs = p.next();
    a.line = rhs.line;
    a.first = operands.size();
    if (rhs.text == "1'b0" || rhs.text == "1'b1") {
      a.kind = GateKind::kConst;
      a.const_value = rhs.text == "1'b1";
    } else if (rhs.text[0] == '~') {
      a.kind = p.accept('(') ? GateKind::kNor : GateKind::kNot;
      operands.push_back(p.expect_ident());
      if (a.kind == GateKind::kNor) {
        while (p.accept('|')) operands.push_back(p.expect_ident());
        p.expect(')');
      }
    } else {
      if (class_of(rhs.text[0]) != kIdent) p.fail_at(rhs, "expected an operand, got ");
      operands.push_back(rhs);
      const char op = p.peek().text[0];
      if (op == '&' || op == '|') {
        a.kind = op == '&' ? GateKind::kAnd : GateKind::kOr;
        while (p.accept(op)) operands.push_back(p.expect_ident());
        if (p.at('&') || p.at('|')) p.fail_at(p.peek().line, "mixed '&'/'|' without parentheses");
      }
    }
    p.expect(';');
    a.count = operands.size() - a.first;
    a.key = key_of(a.lhs.text);
    if (a.key >= 0 ? test_and_set(key_seen, a.key)
                   : !other_assign.emplace(a.lhs.text, static_cast<int>(assigns.size())).second) {
      p.fail_at(a.lhs, "duplicate assignment to ");
    }
    assigns.push_back(a);
  }
  p.next();  // endmodule
  if (!p.done()) p.fail_at(p.peek().line, "trailing input after endmodule");
  // Wires keep their indices; input ports fill the free slots in order
  // (to_verilog lists them in net order).  The lowest gap is reported.
  const int total = static_cast<int>(wires.size() + inputs.size());
  const auto slots = static_cast<std::size_t>(total);
  std::vector<int> wire_at(slots, -1);
  int gap = -1;  // a wire position
  for (std::size_t w = 0; w < wires.size(); ++w) {
    const int index = wire_index(wires[w].text);
    if (index < total) {
      wire_at[static_cast<std::size_t>(index)] = static_cast<int>(w);
    } else if (gap < 0 || index < wire_index(wires[static_cast<std::size_t>(gap)].text)) {
      gap = static_cast<int>(w);
    }
  }
  if (gap >= 0) {
    const Token& wire = wires[static_cast<std::size_t>(gap)];
    fail(wire, "wire ", " leaves a gap: " + std::to_string(total) + " nets declared but index " +
                            std::to_string(wire_index(wire.text)) + " used");
  }
  // The wires sit at distinct indices below `total`, so exactly one slot
  // is left per port; the first port spelled like an earlier one fails.
  std::vector<Gate> gates(slots);
  std::vector<int> input_net(inputs.size());
  for (int i = 0, port = 0; i < total; ++i) {
    if (wire_at[static_cast<std::size_t>(i)] >= 0) continue;
    const Token& name = inputs[static_cast<std::size_t>(port)];
    if (find_port(input_of, name.text) != port) fail(name, "duplicate input port ");
    input_net[static_cast<std::size_t>(port++)] = i;
    gates[static_cast<std::size_t>(i)] = Gate{GateKind::kInput, false, {}, std::string(name.text)};
  }
  const bool inputs_wire_like = wire_like(inputs);
  for (std::size_t i = 0; i < slots && inputs_wire_like; ++i) {
    const Token* wire = wire_at[i] < 0 ? nullptr : &wires[static_cast<std::size_t>(wire_at[i])];
    if (wire != nullptr && find_port(input_of, wire->text) >= 0) {
      fail(*wire, "wire ", " collides with an input port");
    }
  }
  // An operand is the wire at its n<k> index when spelled alike (same
  // index and length: same digits), else an input port.
  const auto resolve = [&](const Token& op) {
    const int k = wire_index(op.text);
    const int w = k >= 0 && k < total ? wire_at[static_cast<std::size_t>(k)] : -1;
    if (w >= 0 && wires[static_cast<std::size_t>(w)].text.size() == op.text.size()) return k;
    const int port = find_port(input_of, op.text);
    if (port < 0) fail(op, "unknown identifier ");
    return input_net[static_cast<std::size_t>(port)];
  };
  // Finds the assign to `name` by its key and marks it placed; keys past
  // the last net are strays, never looked up.
  const int keys = nets_from + total;
  std::vector<int> assign_at(static_cast<std::size_t>(keys), -1);
  for (std::size_t i = 0; i < assigns.size(); ++i) {
    if (assigns[i].key >= 0 && assigns[i].key < keys) {
      assign_at[static_cast<std::size_t>(assigns[i].key)] = static_cast<int>(i);
    }
  }
  std::vector<bool> landed(assigns.size());
  const auto take_assign = [&](std::string_view name) -> const Assign* {
    const int key = key_of(name);
    int id = key >= 0 && key < keys ? assign_at[static_cast<std::size_t>(key)] : -1;
    if (key < 0) {
      const auto it = other_assign.find(name);
      id = it == other_assign.end() ? -1 : it->second;
    }
    if (id < 0) return nullptr;
    landed[static_cast<std::size_t>(id)] = true;
    return &assigns[static_cast<std::size_t>(id)];
  };

  // Gate definitions: every wire needs exactly one assign.
  for (int index = 0; index < total; ++index) {
    const int w = wire_at[static_cast<std::size_t>(index)];
    if (w < 0) continue;
    const Token& wire = wires[static_cast<std::size_t>(w)];
    const Assign* a = take_assign(wire.text);
    if (a == nullptr) fail(wire, "wire ", " is never assigned");
    Gate& g = gates[static_cast<std::size_t>(index)];
    g.kind = a->kind;
    g.const_value = a->const_value;
    g.fanin.reserve(a->count);
    for (std::size_t k = a->first; k < a->first + a->count; ++k) {
      const int fanin = resolve(operands[k]);
      if (fanin >= index && a->kind != GateKind::kBuf) {
        fail(a->line, "feedback into " + quoted(wire.text) +
                          " through a non-buffer gate — only plain-copy "
                          "assigns may reference later wires");
      }
      g.fanin.push_back(fanin);
    }
  }
  // Output bindings: `assign o_<name> = <net>;`, one per output port.
  std::map<std::string, int> bound;
  for (const Token& port : outputs) {
    const Assign* a = take_assign(port.text);
    if (a == nullptr) fail(port, "output port ", " is never assigned");
    if (a->kind != GateKind::kBuf || a->count != 1) {
      fail(a->line, "output port " + quoted(port.text) + " must be bound to a single net");
    }
    if (!port.text.starts_with("o_") || port.text.size() <= 2) {
      fail(port, "output port ", " lacks the o_<name> prefix to_verilog emits");
    }
    if (!bound.emplace(port.text.substr(2), resolve(operands[a->first])).second) {
      fail(port, "duplicate output ");
    }
  }
  // Of the assigns that landed nowhere, the first in spelling order fails.
  const Assign* stray = nullptr;
  for (std::size_t i = 0; i < assigns.size(); ++i) {
    if (!landed[i] && (stray == nullptr || assigns[i].lhs.text < stray->lhs.text)) {
      stray = &assigns[i];
    }
  }
  if (stray != nullptr) {
    fail(stray->line, "assignment to " + quoted(stray->lhs.text) +
                          ", which is neither a wire nor an output port");
  }

  try {
    return Netlist::from_gates(std::move(gates), std::move(bound));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("parse_verilog: ") + e.what());
  }
}

}  // namespace seance::netlist
