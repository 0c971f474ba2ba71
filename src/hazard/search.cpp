#include "hazard/search.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

#include "search/search.hpp"

namespace seance::hazard {

using flowtable::Entry;
using flowtable::FlowTable;

namespace {

void sort_unique(std::vector<TotalState>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

namespace {

std::uint32_t state_var_mask(int num_state_vars) {
  return num_state_vars >= 32 ? 0xffffffffu : ((1u << num_state_vars) - 1u);
}

}  // namespace

std::uint32_t notinvariant_mask(const EncodedTable& encoded, int state_a,
                                int state_b, int intermediate_column) {
  const FlowTable& table = *encoded.table;
  const Entry& mid = table.entry(state_a, intermediate_column);
  if (!mid.specified()) return 0;  // filled to hold: cannot disturb
  const std::uint32_t code_a = encoded.codes[static_cast<std::size_t>(state_a)];
  const std::uint32_t code_b = encoded.codes[static_cast<std::size_t>(state_b)];
  const std::uint32_t code_mid = encoded.codes[static_cast<std::size_t>(mid.next)];
  // Bits that must hold across the transition but move at the intermediate.
  const std::uint32_t invariant = ~(code_a ^ code_b);
  return (code_a ^ code_mid) & invariant & state_var_mask(encoded.num_state_vars);
}

std::vector<int> notinvariant(const EncodedTable& encoded, int state_a,
                              int state_b, int intermediate_column) {
  std::vector<int> hits;
  for (std::uint32_t bits = notinvariant_mask(encoded, state_a, state_b,
                                              intermediate_column);
       bits != 0; bits &= bits - 1) {
    hits.push_back(std::countr_zero(bits));
  }
  return hits;
}

HazardLists find_hazards(const EncodedTable& encoded) {
  if (encoded.table == nullptr) throw std::invalid_argument("find_hazards: null table");
  const FlowTable& table = *encoded.table;
  if (static_cast<int>(encoded.codes.size()) != table.num_states()) {
    throw std::invalid_argument("find_hazards: code vector size mismatch");
  }
  HazardLists lists;
  lists.per_var.resize(static_cast<std::size_t>(encoded.num_state_vars));
  const std::uint32_t var_mask = state_var_mask(encoded.num_state_vars);
  const std::uint32_t* codes = encoded.codes.data();

  for (int s_a = 0; s_a < table.num_states(); ++s_a) {
    search::poll_deadline();
    const std::uint32_t code_a = codes[static_cast<std::size_t>(s_a)];
    for (const int col_a : table.stable_columns(s_a)) {
      for (int col_b = 0; col_b < table.num_columns(); ++col_b) {
        if (col_b == col_a) continue;
        const Entry& target = table.entry(s_a, col_b);
        if (!target.specified()) continue;
        ++lists.stats.stable_transitions;
        const std::uint32_t diff =
            static_cast<std::uint32_t>(col_a) ^ static_cast<std::uint32_t>(col_b);
        if (std::popcount(diff) <= 1) continue;
        ++lists.stats.mic_transitions;
        // Bits that must stay put over s_a -> s_b, hoisted out of the
        // intermediate-point walk.
        const std::uint32_t invariant =
            ~(code_a ^ codes[static_cast<std::size_t>(target.next)]) & var_mask;

        // Walk every x^k strictly inside the transition sub-cube: flip a
        // proper non-empty subset of the differing bits.  The disturbed
        // test covers all state variables in one mask operation; nothing
        // allocates inside this loop.
        for (std::uint32_t sub = (diff - 1) & diff; sub != 0; sub = (sub - 1) & diff) {
          const int col_k = static_cast<int>(static_cast<std::uint32_t>(col_a) ^ sub);
          ++lists.stats.intermediate_points;
          const Entry& mid = table.entry(s_a, col_k);
          if (!mid.specified()) {
            lists.hold_filled.push_back(TotalState{col_k, s_a});
            continue;
          }
          const std::uint32_t disturbed =
              (code_a ^ codes[static_cast<std::size_t>(mid.next)]) & invariant;
          if (disturbed == 0) continue;
          lists.stats.hazard_hits += static_cast<std::size_t>(std::popcount(disturbed));
          for (std::uint32_t bits = disturbed; bits != 0; bits &= bits - 1) {
            lists.per_var[static_cast<std::size_t>(std::countr_zero(bits))].push_back(
                TotalState{col_k, s_a});
          }
          lists.fl.push_back(TotalState{col_k, s_a});
        }
      }
    }
  }
  for (auto& hl : lists.per_var) sort_unique(hl);
  sort_unique(lists.fl);
  sort_unique(lists.hold_filled);
  // A hold-filled point that is also hazardous for another transition stays
  // in FL; drop duplicates from the filled list for cleanliness.
  std::erase_if(lists.hold_filled, [&](const TotalState& t) {
    return std::binary_search(lists.fl.begin(), lists.fl.end(), t);
  });
  return lists;
}

std::string to_string(const HazardLists& lists, const FlowTable& table) {
  std::ostringstream out;
  out << "hazard search: " << lists.stats.stable_transitions << " stable transitions, "
      << lists.stats.mic_transitions << " multiple-input-change, "
      << lists.stats.intermediate_points << " intermediate points, "
      << lists.stats.hazard_hits << " hazard hits\n";
  for (std::size_t n = 0; n < lists.per_var.size(); ++n) {
    out << "HL_" << n << ":";
    for (const TotalState& t : lists.per_var[n]) {
      out << " (" << table.state_name(t.state) << ", col " << t.column << ")";
    }
    out << "\n";
  }
  out << "FL:";
  for (const TotalState& t : lists.fl) {
    out << " (" << table.state_name(t.state) << ", col " << t.column << ")";
  }
  out << "\n";
  return out.str();
}

}  // namespace seance::hazard
