// Huffman flow tables — the specification language of SEANCE (paper §5.1).
//
// A flow table has one row per internal state and one column per input
// vector (2^num_inputs columns).  An entry names the next state (or is
// unspecified) and the output vector (per-bit 0/1/don't-care).  An entry
// is *stable* when its next state equals its own row.  SEANCE accepts
// completely or incompletely specified *normal-mode* tables: every
// specified unstable entry must lead directly to a stable state of the
// same column.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace seance::flowtable {

/// Tri-state output value.
enum class Trit : std::uint8_t { k0 = 0, k1 = 1, kDC = 2 };

[[nodiscard]] char to_char(Trit t);
[[nodiscard]] Trit trit_from_char(char c);

/// One total-state entry of the table.
struct Entry {
  /// Next-state index, or kUnspecifiedNext.
  int next = -1;
  /// Output bits; empty means all-don't-care (normalized on access).
  std::vector<Trit> outputs;

  [[nodiscard]] bool specified() const { return next >= 0; }
};

inline constexpr int kUnspecifiedNext = -1;

/// Most states any pipeline stage accepts: state sets are 64-bit masks
/// (minimize::StateSet), far beyond anything the paper's flow uses.
/// parse_kiss2 enforces it before it allocates the table.
inline constexpr int kMaxStates = 64;

/// Widest input alphabet a FlowTable holds: column indices are 16-bit.
inline constexpr int kMaxInputs = 16;

/// Most entries (states x 2^inputs) parse_kiss2 builds a table for,
/// checked before it allocates the table.  The largest table any
/// workload, example or Table-1 machine uses has 20 x 2^6 = 1280; a
/// 64-state table at 16 inputs would have 4,194,304.
inline constexpr std::size_t kMaxTableEntries = std::size_t{1} << 16;

class FlowTable {
 public:
  FlowTable(int num_inputs, int num_outputs, int num_states);

  [[nodiscard]] int num_inputs() const { return num_inputs_; }
  [[nodiscard]] int num_outputs() const { return num_outputs_; }
  [[nodiscard]] int num_states() const { return static_cast<int>(state_names_.size()); }
  [[nodiscard]] int num_columns() const { return 1 << num_inputs_; }

  [[nodiscard]] const std::string& state_name(int s) const;
  void set_state_name(int s, std::string name);
  /// Index of the named state, or -1.
  [[nodiscard]] int state_index(std::string_view name) const;

  [[nodiscard]] const Entry& entry(int state, int column) const;
  [[nodiscard]] Entry& entry(int state, int column);

  /// Sets next state and outputs for a total state.  `outputs` is a string
  /// of '0'/'1'/'-' of length num_outputs (empty = all don't care).
  void set(int state, int column, int next, std::string_view outputs = {});

  [[nodiscard]] bool is_stable(int state, int column) const {
    return entry(state, column).next == state;
  }

  /// All columns in which `state` is stable.
  [[nodiscard]] std::vector<int> stable_columns(int state) const;

  /// True iff every specified entry is stable or leads to a stable
  /// specified entry in the same column (normal mode, paper §5.1).
  [[nodiscard]] bool is_normal_mode(std::string* why = nullptr) const;

  /// True iff every state is reachable from every other state through
  /// specified transitions (the paper assumes strongly connected tables).
  [[nodiscard]] bool is_strongly_connected(std::string* why = nullptr) const;

  /// True iff every state has at least one stable column.
  [[nodiscard]] bool every_state_has_stable(std::string* why = nullptr) const;

  /// Rewrites chained unstable entries (s -> t with t unstable in the same
  /// column) to point at the chain's terminal stable state, converting a
  /// general table to normal mode.  Throws std::runtime_error on a cycle
  /// or on a chain ending in an unspecified entry.
  void normalize_to_normal_mode();

  /// Follows the entry at (state, column) to its stable successor state in
  /// that column; nullopt if unspecified anywhere along the way.
  [[nodiscard]] std::optional<int> stable_successor(int state, int column) const;

  /// Applies an input-column sequence starting from `state`; returns the
  /// per-step output vectors (of the reached stable total states).  A step
  /// through an unspecified entry yields nullopt for that step and the
  /// trace stops.  Used for behavioural-equivalence checks.
  struct TraceStep {
    int column = 0;
    int state = -1;  ///< stable state reached (-1 if unspecified)
    std::vector<Trit> outputs;
  };
  [[nodiscard]] std::vector<TraceStep> trace(int state,
                                             std::span<const int> columns) const;

  /// Pretty-printed table (for reports and examples).
  [[nodiscard]] std::string to_string() const;

 private:
  int num_inputs_ = 0;
  int num_outputs_ = 0;
  std::vector<std::string> state_names_;
  std::vector<std::vector<Entry>> rows_;
};

/// Fluent builder for programmatic table construction in tests/examples.
class FlowTableBuilder {
 public:
  FlowTableBuilder(int num_inputs, int num_outputs);

  /// Adds (or finds) a state by name; returns its index.
  int state(const std::string& name);

  /// Adds a transition: in state `from`, under input pattern `inputs`
  /// (positional '0'/'1', no don't-cares here), go to `to` with `outputs`.
  /// A self-loop (`from == to`) declares a stable total state.
  FlowTableBuilder& on(const std::string& from, std::string_view inputs,
                       const std::string& to, std::string_view outputs = {});

  [[nodiscard]] FlowTable build() const;

 private:
  struct Edge {
    int from;
    int column;
    int to;
    std::string outputs;
  };
  int num_inputs_;
  int num_outputs_;
  std::vector<std::string> names_;
  std::vector<Edge> edges_;
};

}  // namespace seance::flowtable
