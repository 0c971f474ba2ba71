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
// lattice, so every call first tries an output-sensitive sharp
// construction: primes as maximal cubes avoiding OFF, built by sharping
// the universal cube against a cover of OFF by all-OFF cubes (the
// sharp/complement view of Brayton et al., "Logic Minimization
// Algorithms for VLSI Synthesis", 1984).  The cover is built lazily:
// each OFF point, in ascending order, that no earlier OFF cube covers
// grows greedily into a maximal all-OFF cube just before it is used.
// Every cube c that meets an OFF cube O splits into fragments, one per
// bit of O.care & ~c.care fixed opposite to O; a fragment is dropped
// when a kept cube contains it, found on short per-bit lists of the
// kept cubes at distance one from O, filled by the same pass that
// finds the cubes to split.
//
// Why any such cover gives the same primes: a prime P avoids O, so it
// disagrees with O on some bit b of O.care.  A cube c that meets O and
// contains P agrees with both on c.care, so b is free in c and P lies
// in fragment b.  P therefore stays inside some cube through every
// split, and the cube that finally holds it is an implicant, so equals
// P.  A single-bit-enlargement filter drops the non-maximal cubes, and
// the canonical sort below orders what is left, so the output is the
// prime list that sharping against the OFF points one by one gives.
//
// ON-rooted generation: compute_on_primes and compute_incidence also
// drop every fragment that holds no ON minterm, and return nothing when
// ON is empty.  Every cube later split from such a fragment lies inside
// it and lacks ON too, so they return exactly the primes that hold an
// ON minterm, the only ones a cover can use; compute_primes keeps the
// full set.
//
// The sharp path counts its work: growing an OFF cube adds the bitset
// words its tests read, and splitting against it adds the length of
// the cube list it scans.  Past 64 * |ON∪DC| * num_vars it gives up and
// the call runs the level merge instead.  The count is deterministic,
// and both paths produce the identical canonical prime list.
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

#include <cstddef>
#include <optional>
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
/// all-primes cover, without building any incidence table.  Generated
/// ON-rooted (see above).
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

/// The two prime paths on their own, for the differential tests; not a
/// tuning surface.  compute_primes runs sharp_primes under
/// sharp_work_cap and falls back to level_primes.
namespace detail {

/// The production work cap: 64 * on_dc_count * max(num_vars, 1) units
/// (cube visits plus bitset words read while growing OFF cubes),
/// on_dc_count counting distinct ON∪DC minterms.
[[nodiscard]] std::size_t sharp_work_cap(int num_vars, std::size_t on_dc_count);

/// The sharp path in canonical order, every prime kept, or nullopt once
/// its work count passes `work_cap`.
[[nodiscard]] std::optional<std::vector<Cube>> sharp_primes(
    int num_vars, std::span<const Minterm> on, std::span<const Minterm> dc,
    std::size_t work_cap);

/// The level merge in canonical order.
[[nodiscard]] std::vector<Cube> level_primes(int num_vars,
                                             std::span<const Minterm> on,
                                             std::span<const Minterm> dc);

}  // namespace detail

}  // namespace seance::logic::prime_engine
