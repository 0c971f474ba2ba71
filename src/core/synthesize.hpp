// SEANCE — the paper's synthesis program (Fig. 3), end to end.
//
//   1. flow-table preparation (validation / normal-mode normalization)
//   2. table reduction (state minimization)                  src/minimize
//   3. USTT state assignment (Tracey partitions)             src/assign
//   4. Z and SSD equations (Quine-McCluskey essential SOP)   src/logic
//   5. function-hazard search (Fig. 4)                       src/hazard
//   6. canonical fsv and Y equations (state space doubled)
//   7. hazard factoring (Fig. 5) and first-level-gate expansion
//
// The result is a FantomMachine: every combinational equation of the
// FANTOM architecture (Fig. 1/2) plus the hazard lists and the depth
// metrics reported in the paper's Table 1.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "assign/ustt.hpp"
#include "flowtable/table.hpp"
#include "hazard/search.hpp"
#include "logic/cube.hpp"
#include "logic/expr.hpp"
#include "logic/qm.hpp"
#include "minimize/reduce.hpp"
#include "search/search.hpp"

namespace seance::core {

/// Variable numbering shared by all equation covers:
/// inputs x0..x_{j-1} first, then state variables y0..y_{n-1}, then
/// (for Y equations of a protected machine) fsv as the last variable.
struct VariableLayout {
  int num_inputs = 0;
  int num_state_vars = 0;
  bool has_fsv = true;

  [[nodiscard]] int input_var(int i) const { return i; }
  [[nodiscard]] int state_var(int n) const { return num_inputs + n; }
  [[nodiscard]] int fsv_var() const { return num_inputs + num_state_vars; }
  /// Variable count of the (x, y) space used by Z, SSD and fsv covers.
  [[nodiscard]] int xy_vars() const { return num_inputs + num_state_vars; }
  /// Variable count of the Y-equation space (adds fsv when protected).
  [[nodiscard]] int y_space_vars() const { return xy_vars() + (has_fsv ? 1 : 0); }
  /// Minterm of the (x, y) space.
  [[nodiscard]] std::uint32_t xy_minterm(int column, std::uint32_t y_code) const {
    return static_cast<std::uint32_t>(column) | (y_code << num_inputs);
  }
  /// Printable names: x0.., y0.., fsv.
  [[nodiscard]] std::vector<std::string> names() const;
};

struct Equation {
  logic::Cover cover;   ///< reduced SOP cover
  logic::ExprPtr expr;  ///< factored gate network (step 7)

  Equation() : cover(0) {}
  explicit Equation(logic::Cover c) : cover(std::move(c)) {}
};

struct SynthesisOptions {
  /// Step 2 on/off (off keeps the input rows verbatim).
  bool minimize_states = true;
  /// Add the fantom state variable and hazard protection.  Disabling
  /// yields the *baseline* classic USTT machine used by the ablation
  /// examples — functionally the paper's comparison point.
  bool add_fsv = true;
  /// Step 7 factoring on/off (off leaves two-level SOP expressions).
  bool factor = true;
  /// Consensus-gate repair of the Y covers (paper §2.1): add implicants
  /// until every single-variable move inside a Y ON-set is covered by one
  /// cube, removing static (steady-state) hazards in the feedback logic.
  /// Independent of add_fsv so ablations can isolate fsv's contribution
  /// (function M-hazards) from classic consensus fixes (logic hazards).
  bool consensus_repair = true;
  /// Consult the shared transposition table (when the caller provides an
  /// instance) in the three branch-and-bound searches.  Off forces every
  /// search to run cold, node-for-node identical to the memoization-free
  /// engines.
  bool tt = true;
  /// Transposition-table size in MiB (one table per batch worker).  Fixed,
  /// not a knob: capacity decides which entries are evicted, and evictions
  /// steer budget-truncated searches, so a second size would be a second
  /// configuration whose rows can differ.
  static constexpr std::size_t tt_mb = 16;
  /// Node budgets of the partition and state-minimization cover searches.
  /// Fixed for the same reason as tt_mb: a budget decides where a
  /// truncated search stops, so a second value is a second configuration.
  /// Y/Z/SSD covers are minimum essential SOP (logic::select_cover under
  /// logic::kDefaultExactNodeBudget and logic::kExactCellLimit), fsv is all
  /// primes, and state codes are always unique.
  static constexpr assign::AssignOptions assign{};
  static constexpr minimize::ReduceOptions reduce{};
};

/// Version of the canonical SynthesisOptions encoding below.  The encoded
/// string is a cache-key component (src/api result cache) and the
/// `# synthesis:` identity line of the regression store, so *any* change
/// to the field set, field order, or value spellings must bump this — a
/// conscious event that invalidates every cached result and golden
/// identity line at once instead of silently aliasing old entries.
/// (v1 was the pre-codec store::describe spelling: unversioned and
/// missing cover-budget.  v2 predates the shared search core: no
/// cover-cells, tt, or table-size keys.  v3 still carried cover-budget
/// and cover-cells, which are now the fixed logic:: constants.  v4 still
/// carried the table size, which is now the fixed SynthesisOptions::tt_mb.
/// v5 still carried the cover policy, the code-uniqueness switch and the
/// assign/reduce node budgets, which are now the fixed SynthesisOptions
/// members above.)
inline constexpr int kOptionsEncodingVersion = 6;

/// Canonical, byte-stable encoding of every result-affecting knob:
///   "v6 fsv=B minimize=B factor=B consensus=B tt=B"
/// Equal options always produce equal bytes (field order is pinned by
/// test), so the string can key a content-addressed cache and compare
/// pipeline configurations across processes.
[[nodiscard]] std::string options_to_string(const SynthesisOptions& options);

/// Inverse of options_to_string.  Absent keys keep their defaults (a
/// client may send only the knobs it overrides); unknown or duplicate
/// keys, malformed values, and any version token other than the current
/// one throw std::runtime_error — an encoding mismatch must never be
/// silently reinterpreted, it is a cache-correctness boundary.
[[nodiscard]] SynthesisOptions options_from_string(std::string_view text);

/// Paper Table 1 metrics.
struct DepthReport {
  int fsv_depth = 0;
  int y_depth = 0;
  /// Worst-case levels to reach stability (VOM assertion):
  /// y_depth + fsv_depth + 1 (gate A of Fig. 2).
  int total_depth = 0;
};

/// Certified optimality accounting over the minimized equation covers
/// (Z, SSD, Y — fsv's all-primes cover is hazard-driven, not minimized,
/// so it never contributes).  `cubes` is the summed certified upper
/// bound, `lower_bound` the summed certified lower bound;
/// `cubes - lower_bound` is the machine's total certified gap (zero
/// means every chart is a proven minimum).  `lower_bound` is computed
/// before any search runs, so it is memo-independent; `cubes` is a
/// returned cover size, which for a budget-truncated search depends on
/// the memo like any other budget knob.  Both are sound either way:
/// lower_bound <= true optimum <= cubes always holds.
struct CoverBounds {
  std::size_t cubes = 0;        ///< sum of returned cover sizes
  std::size_t lower_bound = 0;  ///< sum of certified lower bounds
  std::size_t proven = 0;       ///< charts solved to proven optimality
  std::size_t charts = 0;       ///< minimized charts (Z + SSD + Y count)

  [[nodiscard]] std::size_t gap() const { return cubes - lower_bound; }
};

struct FantomMachine {
  flowtable::FlowTable table;  ///< the synthesized (possibly reduced) table
  std::vector<std::uint32_t> codes;
  VariableLayout layout;
  std::vector<Equation> y;  ///< per state variable, over the y-space
  std::vector<Equation> z;  ///< per output, over (x, y)
  Equation ssd;             ///< over (x, y)
  Equation fsv;             ///< over (x, y); constant 0 for baselines
  hazard::HazardLists hazards;
  std::optional<minimize::ReductionResult> reduction;  ///< step 2 details
  CoverBounds cover_bounds;  ///< certified bound accounting (Z/SSD/Y)
  std::vector<std::string> warnings;
  SynthesisOptions options;

  FantomMachine() : table(1, 0, 1) {}

  [[nodiscard]] DepthReport depth_report() const;
  /// Total gate count over fsv + Y + Z + SSD expressions.
  [[nodiscard]] int gate_count() const;
  /// Human-readable equation dump.
  [[nodiscard]] std::string report() const;
};

/// Runs the full SEANCE pipeline.  The input table is normalized to
/// normal mode if needed; throws std::runtime_error when the table cannot
/// be repaired (e.g. transition cycles) or exceeds size limits.
///
/// `tt` (optional) is a shared transposition table consulted by the three
/// branch-and-bound searches (cover completion, state-minimization cover,
/// partition cover).  Ignored when `options.tt` is false.  Memoization
/// never changes a *completed* search's result — only node counts — but a
/// budget-truncated search keeps whatever incumbent its pruned traversal
/// reached, and memo pruning moves that frontier; `tt` is therefore a
/// result-affecting option (part of options_to_string) like any budget.
/// The incumbents a warm table steers truncated searches toward depend on
/// what was searched before, so callers that promise rows are a pure
/// function of (table, options) must hand in a table with no entries from
/// other inputs — BatchRunner::run_job enforces this by clearing on entry.
[[nodiscard]] FantomMachine synthesize(
    const flowtable::FlowTable& input, const SynthesisOptions& options = {},
    search::TranspositionTable* tt = nullptr);

/// Functional cross-checks used by tests and the verification harness.
/// True iff the machine's Y covers reproduce the flow-table transition
/// function in the fsv=1 half-space (launch semantics) and hold invariant
/// bits at every hazard-listed point in the fsv=0 half-space, each
/// factored Y expression agrees with its cover at those points, Z and
/// SSD are right at stable and unstable entries, and fsv asserts exactly
/// on the FL points.  On failure `why` names the first wrong equation,
/// scanning entries (state, column) in order and, per entry, Y0.. then Z
/// and SSD; fsv is checked last.  Every cover and expression is first
/// turned into a packed truth table (logic/truth_table.hpp), so each
/// point is a bit lookup: 2^n bits per equation, n being the y-space
/// width for Y and the (x, y) width for Z, SSD and fsv.
[[nodiscard]] bool verify_equations(const FantomMachine& machine, std::string* why = nullptr);

}  // namespace seance::core
