#include "flowtable/kiss.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace seance::flowtable {

namespace {

struct ProductLine {
  std::string inputs;
  std::string current;
  std::string next;
  std::string outputs;
  int line_no = 0;
};

[[noreturn]] void fail(int line_no, const std::string& message) {
  throw std::runtime_error("kiss2 line " + std::to_string(line_no) + ": " + message);
}

// Expands an input pattern with '-' wildcards into concrete column indices
// (bit i of the column = pattern character i).
void expand_pattern(const std::string& pattern, int pos, int column,
                    std::vector<int>& out) {
  if (pos == static_cast<int>(pattern.size())) {
    out.push_back(column);
    return;
  }
  const char c = pattern[static_cast<std::size_t>(pos)];
  if (c == '0' || c == '-') expand_pattern(pattern, pos + 1, column, out);
  if (c == '1' || c == '-') expand_pattern(pattern, pos + 1, column | (1 << pos), out);
}

}  // namespace

FlowTable parse_kiss2(std::string_view text, KissInfo* info) {
  int num_inputs = -1;
  int num_outputs = -1;
  int declared_states = -1;
  KissInfo local;
  std::vector<ProductLine> products;
  std::vector<std::string> state_order;
  std::map<std::string, int> state_ids;

  const auto intern_state = [&](const std::string& name) {
    const auto it = state_ids.find(name);
    if (it != state_ids.end()) return it->second;
    const int id = static_cast<int>(state_order.size());
    state_order.push_back(name);
    state_ids.emplace(name, id);
    return id;
  };

  std::istringstream in{std::string(text)};
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments and whitespace.
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream tokens(line);
    std::string first;
    if (!(tokens >> first)) continue;
    if (first == ".i") {
      if (!(tokens >> num_inputs)) fail(line_no, "bad .i");
    } else if (first == ".o") {
      if (!(tokens >> num_outputs)) fail(line_no, "bad .o");
    } else if (first == ".s") {
      if (!(tokens >> declared_states)) fail(line_no, "bad .s");
    } else if (first == ".p") {
      if (!(tokens >> local.declared_products)) fail(line_no, "bad .p");
    } else if (first == ".r") {
      if (!(tokens >> local.reset_state)) fail(line_no, "bad .r");
    } else if (first == ".e" || first == ".end") {
      break;
    } else if (first.front() == '.') {
      fail(line_no, "unknown directive '" + first + "'");
    } else {
      ProductLine p;
      p.inputs = first;
      if (!(tokens >> p.current >> p.next >> p.outputs)) {
        fail(line_no, "product line needs 4 fields");
      }
      p.line_no = line_no;
      products.push_back(std::move(p));
    }
  }
  if (num_inputs <= 0) throw std::runtime_error("kiss2: missing or bad .i");
  if (num_outputs < 0) throw std::runtime_error("kiss2: missing or bad .o");
  if (products.empty()) throw std::runtime_error("kiss2: no product lines");

  for (const ProductLine& p : products) {
    if (static_cast<int>(p.inputs.size()) != num_inputs) {
      fail(p.line_no, "input pattern length != .i");
    }
    if (static_cast<int>(p.outputs.size()) != num_outputs) {
      fail(p.line_no, "output pattern length != .o");
    }
    // Characters outside the trit alphabet would silently expand to zero
    // columns (dropping the product) or surface as an unlocated
    // trit_from_char error deep inside FlowTable::set — reject them here
    // with the line number.
    for (char c : p.inputs) {
      if (c != '0' && c != '1' && c != '-') {
        fail(p.line_no, std::string("input pattern character '") + c + "' (want 0/1/-)");
      }
    }
    for (char c : p.outputs) {
      if (c != '0' && c != '1' && c != '-') {
        fail(p.line_no, std::string("output character '") + c + "' (want 0/1/-)");
      }
    }
  }
  // Two interning passes: states in order of first appearance as a
  // *current* state, then any next-only states.  Synthesis is sensitive
  // to state order, and to_kiss2 emits product blocks in index order, so
  // current-first interning is what makes parse_kiss2(to_kiss2(t)) == t
  // — the round-trip the content-addressed result cache relies on
  // (interning next-states inline would reorder a state that is named as
  // a successor before its own block).
  for (const ProductLine& p : products) intern_state(p.current);
  for (const ProductLine& p : products) {
    if (p.next != "*") intern_state(p.next);  // '*' = unspecified next
  }
  if (declared_states >= 0 && declared_states != static_cast<int>(state_order.size())) {
    // Not fatal — some benchmark headers are sloppy — but worth surfacing.
    // We size by the states actually referenced.
  }
  // Both limits are checked before the table is built: it holds
  // states x 2^inputs entries, so a few dozen hostile lines would
  // otherwise allocate gigabytes for a table every later stage rejects
  // anyway.
  if (state_order.size() > static_cast<std::size_t>(kMaxStates)) {
    throw std::runtime_error("kiss2: " + std::to_string(state_order.size()) +
                             " states exceeds the limit of " +
                             std::to_string(kMaxStates));
  }
  // Inputs past kMaxInputs get FlowTable's own range error instead.
  if (num_inputs <= kMaxInputs) {
    const std::size_t entries = state_order.size() << num_inputs;
    if (entries > kMaxTableEntries) {
      throw std::runtime_error(
          "kiss2: " + std::to_string(state_order.size()) + " states x " +
          std::to_string(std::size_t{1} << num_inputs) + " columns = " +
          std::to_string(entries) + " table entries exceeds the limit of " +
          std::to_string(kMaxTableEntries));
    }
  }

  FlowTable table(num_inputs, num_outputs, static_cast<int>(state_order.size()));
  for (std::size_t s = 0; s < state_order.size(); ++s) {
    table.set_state_name(static_cast<int>(s), state_order[s]);
  }

  for (const ProductLine& p : products) {
    std::vector<int> columns;
    expand_pattern(p.inputs, 0, 0, columns);
    const int cur = state_ids.at(p.current);
    const int next = (p.next == "*") ? kUnspecifiedNext : state_ids.at(p.next);
    for (int column : columns) {
      const Entry& existing = table.entry(cur, column);
      if (existing.specified() && existing.next != next) {
        fail(p.line_no, "conflicting next state for (" + p.current + ", column " +
                            std::to_string(column) + ")");
      }
      table.set(cur, column, next, p.outputs);
    }
  }
  if (info != nullptr) *info = local;
  return table;
}

std::string to_kiss2(const FlowTable& table) {
  std::ostringstream out;
  out << ".i " << table.num_inputs() << "\n";
  out << ".o " << table.num_outputs() << "\n";
  out << ".s " << table.num_states() << "\n";
  int products = 0;
  std::ostringstream body;
  for (int s = 0; s < table.num_states(); ++s) {
    for (int c = 0; c < table.num_columns(); ++c) {
      const Entry& e = table.entry(s, c);
      if (!e.specified()) continue;
      ++products;
      std::string pattern;
      for (int i = 0; i < table.num_inputs(); ++i) pattern += ((c >> i) & 1) ? '1' : '0';
      body << pattern << " " << table.state_name(s) << " " << table.state_name(e.next) << " ";
      for (Trit t : e.outputs) body << to_char(t);
      body << "\n";
    }
  }
  out << ".p " << products << "\n";
  out << ".r " << table.state_name(0) << "\n";
  out << body.str();
  out << ".e\n";
  return out.str();
}

FlowTable load_kiss2_file(const std::string& path, KissInfo* info) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open kiss2 file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_kiss2(buffer.str(), info);
}

}  // namespace seance::flowtable
