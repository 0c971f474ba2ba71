// Reference cover selection — the pre-bitset Quine-McCluskey covering
// path, preserved verbatim in behavior.
//
// The production engine (qm.cpp on top of cover_engine.hpp) replaced
// this sorted-vector + binary_search implementation.  It is kept ONLY as
// an oracle: the equivalence suite (tests/test_qm_equivalence.cpp)
// asserts the bitset path selects covers of identical cardinality
// whenever both solve exactly.  It is built only into the test-only
// seance_oracles library, so the pipeline cannot call it.

#pragma once

#include <span>

#include "logic/qm.hpp"

namespace seance::logic {

/// Seed-behavior prime generation: the hash-map adjacency merge
/// (unordered_map probes per (cube, bit) pair) that preceded the
/// word-parallel engine in prime_engine.hpp.  Same contract and the same
/// canonical output order as compute_primes — the differential suite
/// (tests/test_prime_engine.cpp) asserts the two produce *identical*
/// prime lists.
[[nodiscard]] std::vector<Cube> reference_compute_primes(
    int num_vars, std::span<const Minterm> on, std::span<const Minterm> dc);

/// Seed-behavior cover selection: essential primes, then exact branch and
/// bound (node budget 2'000'000, attempted only when
/// rows*columns <= 200'000) falling back to greedy.  Same contract as
/// select_cover, including CoverStats reporting.  Runs entirely on the
/// reference prime generator above, so the oracle path shares no code
/// with the production engines.
[[nodiscard]] Cover reference_select_cover(int num_vars,
                                           std::span<const Minterm> on,
                                           std::span<const Minterm> dc,
                                           CoverMode mode,
                                           CoverStats* stats = nullptr);

}  // namespace seance::logic
