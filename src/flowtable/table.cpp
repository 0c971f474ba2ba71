#include "flowtable/table.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace seance::flowtable {

char to_char(Trit t) {
  switch (t) {
    case Trit::k0:
      return '0';
    case Trit::k1:
      return '1';
    case Trit::kDC:
      return '-';
  }
  return '?';
}

Trit trit_from_char(char c) {
  switch (c) {
    case '0':
      return Trit::k0;
    case '1':
      return Trit::k1;
    case '-':
      return Trit::kDC;
    default:
      throw std::invalid_argument(std::string("trit_from_char: bad char '") + c + "'");
  }
}

FlowTable::FlowTable(int num_inputs, int num_outputs, int num_states)
    : num_inputs_(num_inputs), num_outputs_(num_outputs) {
  if (num_inputs < 1 || num_inputs > kMaxInputs) {
    throw std::invalid_argument("FlowTable: num_inputs out of range [1,16]");
  }
  if (num_outputs < 0 || num_outputs > 24) {
    throw std::invalid_argument("FlowTable: num_outputs out of range [0,24]");
  }
  if (num_states < 1) throw std::invalid_argument("FlowTable: need >= 1 state");
  state_names_.reserve(static_cast<std::size_t>(num_states));
  for (int s = 0; s < num_states; ++s) state_names_.push_back("s" + std::to_string(s));
  rows_.assign(static_cast<std::size_t>(num_states),
               std::vector<Entry>(static_cast<std::size_t>(num_columns())));
  for (auto& row : rows_) {
    for (Entry& e : row) {
      e.outputs.assign(static_cast<std::size_t>(num_outputs_), Trit::kDC);
    }
  }
}

const std::string& FlowTable::state_name(int s) const {
  return state_names_.at(static_cast<std::size_t>(s));
}

void FlowTable::set_state_name(int s, std::string name) {
  state_names_.at(static_cast<std::size_t>(s)) = std::move(name);
}

int FlowTable::state_index(std::string_view name) const {
  for (std::size_t i = 0; i < state_names_.size(); ++i) {
    if (state_names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

const Entry& FlowTable::entry(int state, int column) const {
  return rows_.at(static_cast<std::size_t>(state)).at(static_cast<std::size_t>(column));
}

Entry& FlowTable::entry(int state, int column) {
  return rows_.at(static_cast<std::size_t>(state)).at(static_cast<std::size_t>(column));
}

void FlowTable::set(int state, int column, int next, std::string_view outputs) {
  if (next != kUnspecifiedNext && (next < 0 || next >= num_states())) {
    throw std::invalid_argument("FlowTable::set: next state out of range");
  }
  Entry& e = entry(state, column);
  e.next = next;
  if (outputs.empty()) {
    e.outputs.assign(static_cast<std::size_t>(num_outputs_), Trit::kDC);
    return;
  }
  if (static_cast<int>(outputs.size()) != num_outputs_) {
    throw std::invalid_argument("FlowTable::set: output string length mismatch");
  }
  e.outputs.clear();
  for (char c : outputs) e.outputs.push_back(trit_from_char(c));
}

std::vector<int> FlowTable::stable_columns(int state) const {
  std::vector<int> cols;
  for (int c = 0; c < num_columns(); ++c) {
    if (is_stable(state, c)) cols.push_back(c);
  }
  return cols;
}

bool FlowTable::is_normal_mode(std::string* why) const {
  for (int s = 0; s < num_states(); ++s) {
    for (int c = 0; c < num_columns(); ++c) {
      const Entry& e = entry(s, c);
      if (!e.specified() || e.next == s) continue;
      const Entry& target = entry(e.next, c);
      if (!target.specified() || target.next != e.next) {
        if (why != nullptr) {
          *why = "entry (" + state_name(s) + ", col " + std::to_string(c) +
                 ") leads to non-stable entry at " + state_name(e.next);
        }
        return false;
      }
    }
  }
  return true;
}

bool FlowTable::is_strongly_connected(std::string* why) const {
  const int n = num_states();
  // Adjacency over specified transitions (including multi-hop chains).
  const auto reach_from = [&](int start, bool reverse) {
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    std::vector<int> stack = {start};
    seen[static_cast<std::size_t>(start)] = 1;
    while (!stack.empty()) {
      const int s = stack.back();
      stack.pop_back();
      for (int u = 0; u < n; ++u) {
        if (seen[static_cast<std::size_t>(u)]) continue;
        bool edge = false;
        for (int c = 0; c < num_columns() && !edge; ++c) {
          const int from = reverse ? u : s;
          const int to = reverse ? s : u;
          const Entry& e = entry(from, c);
          edge = e.specified() && e.next == to && from != to;
        }
        if (edge) {
          seen[static_cast<std::size_t>(u)] = 1;
          stack.push_back(u);
        }
      }
    }
    return seen;
  };
  const std::vector<char> fwd = reach_from(0, false);
  const std::vector<char> bwd = reach_from(0, true);
  for (int s = 0; s < n; ++s) {
    if (!fwd[static_cast<std::size_t>(s)] || !bwd[static_cast<std::size_t>(s)]) {
      if (why != nullptr) {
        *why = "state " + state_name(s) + " is not in the same strongly connected component as " +
               state_name(0);
      }
      return false;
    }
  }
  return true;
}

bool FlowTable::every_state_has_stable(std::string* why) const {
  for (int s = 0; s < num_states(); ++s) {
    if (stable_columns(s).empty()) {
      if (why != nullptr) *why = "state " + state_name(s) + " has no stable column";
      return false;
    }
  }
  return true;
}

void FlowTable::normalize_to_normal_mode() {
  for (int s = 0; s < num_states(); ++s) {
    for (int c = 0; c < num_columns(); ++c) {
      Entry& e = entry(s, c);
      if (!e.specified() || e.next == s) continue;
      int cur = e.next;
      int hops = 0;
      while (true) {
        const Entry& t = entry(cur, c);
        if (!t.specified()) {
          throw std::runtime_error("normalize_to_normal_mode: chain from " + state_name(s) +
                                   " column " + std::to_string(c) +
                                   " reaches unspecified entry");
        }
        if (t.next == cur) break;
        cur = t.next;
        if (++hops > num_states()) {
          throw std::runtime_error("normalize_to_normal_mode: transition cycle in column " +
                                   std::to_string(c));
        }
      }
      e.next = cur;
    }
  }
}

std::optional<int> FlowTable::stable_successor(int state, int column) const {
  int cur = state;
  int hops = 0;
  while (true) {
    const Entry& e = entry(cur, column);
    if (!e.specified()) return std::nullopt;
    if (e.next == cur) return cur;
    cur = e.next;
    if (++hops > num_states()) return std::nullopt;  // cycle
  }
}

std::vector<FlowTable::TraceStep> FlowTable::trace(int state,
                                                   std::span<const int> columns) const {
  std::vector<TraceStep> steps;
  int cur = state;
  for (int c : columns) {
    TraceStep step;
    step.column = c;
    const std::optional<int> next = stable_successor(cur, c);
    if (!next) {
      step.state = -1;
      steps.push_back(std::move(step));
      break;
    }
    cur = *next;
    step.state = cur;
    step.outputs = entry(cur, c).outputs;
    steps.push_back(std::move(step));
  }
  return steps;
}

std::string FlowTable::to_string() const {
  std::ostringstream out;
  out << "flow table: " << num_states() << " states, " << num_inputs_
      << " inputs, " << num_outputs_ << " outputs\n";
  out << "state";
  for (int c = 0; c < num_columns(); ++c) {
    std::string col;
    for (int i = 0; i < num_inputs_; ++i) col += ((c >> i) & 1) ? '1' : '0';
    out << "\t" << col;
  }
  out << "\n";
  for (int s = 0; s < num_states(); ++s) {
    out << state_name(s);
    for (int c = 0; c < num_columns(); ++c) {
      const Entry& e = entry(s, c);
      out << "\t";
      if (!e.specified()) {
        out << "--";
      } else {
        out << (e.next == s ? "(" : "") << state_name(e.next)
            << (e.next == s ? ")" : "");
        out << "/";
        for (Trit t : e.outputs) out << to_char(t);
      }
    }
    out << "\n";
  }
  return out.str();
}

FlowTableBuilder::FlowTableBuilder(int num_inputs, int num_outputs)
    : num_inputs_(num_inputs), num_outputs_(num_outputs) {}

int FlowTableBuilder::state(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

FlowTableBuilder& FlowTableBuilder::on(const std::string& from,
                                       std::string_view inputs,
                                       const std::string& to,
                                       std::string_view outputs) {
  if (static_cast<int>(inputs.size()) != num_inputs_) {
    throw std::invalid_argument("FlowTableBuilder::on: input pattern length mismatch");
  }
  int column = 0;
  for (int i = 0; i < num_inputs_; ++i) {
    switch (inputs[static_cast<std::size_t>(i)]) {
      case '1':
        column |= 1 << i;
        break;
      case '0':
        break;
      default:
        throw std::invalid_argument("FlowTableBuilder::on: pattern must be 0/1");
    }
  }
  edges_.push_back(Edge{state(from), column, state(to), std::string(outputs)});
  return *this;
}

FlowTable FlowTableBuilder::build() const {
  if (names_.empty()) throw std::logic_error("FlowTableBuilder: no states");
  FlowTable table(num_inputs_, num_outputs_, static_cast<int>(names_.size()));
  for (std::size_t s = 0; s < names_.size(); ++s) {
    table.set_state_name(static_cast<int>(s), names_[s]);
  }
  for (const Edge& e : edges_) {
    table.set(e.from, e.column, e.to, e.outputs);
  }
  return table;
}

}  // namespace seance::flowtable
