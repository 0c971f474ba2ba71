// Word-parallel Quine-McCluskey prime-implicant engine.
//
// The hash-map adjacency merge this replaces spent its time probing
// unordered containers once per (cube, bit) pair.  Here every merge
// level is a single sorted array of packed (care, popcount(value),
// value) words: cubes with equal care masks are contiguous runs, and
// inside a run the popcount field partitions values into the classic QM
// weight buckets.  One-bit-apart pairing then degenerates into linear
// two-pointer scans over adjacent buckets — no hashing, no pointer
// chasing, and dedup of the next level is a sort + unique over raw
// uint64 words.
//
// Dense ON∪DC functions (the Y/fsv equations of deep state machines are
// >90% don't-care) would still drown the level merge in their implicant
// lattice, so when the OFF-set is small the engine switches to an
// output-sensitive sharp construction instead: primes as maximal cubes
// avoiding OFF, built by iterated cube splitting with absorption.  Both
// paths produce the identical canonical prime list.
//
// The second half of the job is the prime×minterm incidence: instead of
// testing every (prime, minterm) pair with Cube::contains, each prime
// enumerates its own minterm sub-cube (submask walk over the free
// variables) and scatters into rows of a packed CoverTable, which is
// exactly the shape select_cover's essential/dominance/branch-and-bound
// machinery consumes.
//
// Determinism contract: identical prime sets and identical canonical
// order (fewest literals first, then Cube::key) as the retained
// reference generator (tests/oracles/logic/qm_reference.hpp), checked by
// tests/test_prime_engine.cpp.

#pragma once

#include <span>
#include <vector>

#include "logic/cover_engine.hpp"
#include "logic/cube.hpp"

namespace seance::logic::prime_engine {

/// All prime implicants of the incompletely specified function, in
/// canonical order (fewest literals first, then by Cube::key).  Primes
/// covering only DC minterms are retained.  Same contract as
/// logic::compute_primes, which forwards here.
[[nodiscard]] std::vector<Cube> compute_primes(int num_vars,
                                               std::span<const Minterm> on,
                                               std::span<const Minterm> dc);

/// Primes restricted to those covering at least one minterm of
/// `on_sorted` (sorted, duplicate-free), canonical order — the
/// all-primes cover, without building any incidence table.  Each
/// prime's sub-cube walk stops at its first ON hit.
[[nodiscard]] std::vector<Cube> compute_on_primes(
    int num_vars, std::span<const Minterm> on_sorted,
    std::span<const Minterm> dc);

/// Primes restricted to the ON-set plus their incidence bitmatrix.
struct PrimeIncidence {
  /// Primes covering at least one ON minterm, canonical order.
  std::vector<Cube> primes;
  /// Row m, column p set iff primes[p] contains on_sorted[m].  Rows are
  /// positions in the caller's `on_sorted` span.
  CoverTable incidence;
};

/// Generates the primes and the prime×minterm incidence in one pass.
/// `on_sorted` must be sorted and duplicate-free — its positions are the
/// incidence row indices, so the caller's minterm order is the table's
/// row order.
[[nodiscard]] PrimeIncidence compute_incidence(int num_vars,
                                               std::span<const Minterm> on_sorted,
                                               std::span<const Minterm> dc);

}  // namespace seance::logic::prime_engine
