// Unit tests for the shared search core: NodeBudget's single accounting
// convention and the TranspositionTable's probe/store/merge/eviction
// mechanics.  The cross-engine soundness and differential properties
// live in tests/test_search_property.cpp.

#include "search/search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "core/synthesize.hpp"

namespace seance::search {
namespace {

TEST(NodeBudget, ChargesOncePerNodeAndTruncatesPastTheBudget) {
  NodeBudget b(3);
  EXPECT_TRUE(b.exact());
  EXPECT_FALSE(b.exhausted());
  EXPECT_FALSE(b.charge());  // node 1
  EXPECT_FALSE(b.charge());  // node 2
  EXPECT_FALSE(b.charge());  // node 3: exactly at budget, still a proof
  EXPECT_TRUE(b.exact());
  EXPECT_TRUE(b.charge());  // node 4: over
  EXPECT_TRUE(b.exhausted());
  EXPECT_FALSE(b.exact());
  EXPECT_EQ(b.nodes(), 4u);
  EXPECT_EQ(b.budget(), 3u);
}

TEST(NodeBudget, ZeroBudgetTruncatesOnTheFirstCharge) {
  // The overrun regression shape: exact must be falsifiable even when
  // the very first expansion exceeds the budget (the historical
  // pre-increment guard reported exact=true here).
  NodeBudget b(0);
  EXPECT_TRUE(b.charge());
  EXPECT_FALSE(b.exact());
  EXPECT_TRUE(b.exhausted());
}

TEST(NodeBudget, ResetRestartsAccounting) {
  NodeBudget b(1);
  EXPECT_FALSE(b.charge());
  EXPECT_TRUE(b.charge());
  ASSERT_FALSE(b.exact());
  b.reset();
  EXPECT_EQ(b.nodes(), 0u);
  EXPECT_TRUE(b.exact());
  EXPECT_FALSE(b.exhausted());
}

TEST(NodeBudget, EveryThousandTwentyFourthChargePollsTheDeadline) {
  NodeBudget b(SIZE_MAX);
  const DeadlineScope spent(0.0);
  for (int i = 1; i < 1024; ++i) EXPECT_FALSE(b.charge());
  EXPECT_THROW((void)b.charge(), DeadlineExceeded);
  EXPECT_EQ(b.nodes(), 1024u);
}

TEST(Deadline, NestedScopesKeepTheEarlierDeadline) {
  EXPECT_NO_THROW(poll_deadline());  // no scope: a no-op
  {
    const DeadlineScope spent(0.0);
    {
      const DeadlineScope generous(60'000.0);
      EXPECT_FALSE(generous.expired());
      EXPECT_THROW(poll_deadline(), DeadlineExceeded);
    }
    EXPECT_TRUE(spent.expired());
    EXPECT_THROW(poll_deadline(), DeadlineExceeded);
  }
  EXPECT_NO_THROW(poll_deadline());
  const DeadlineScope generous(60'000.0);
  {
    const DeadlineScope spent(0.0);
    EXPECT_THROW(poll_deadline(), DeadlineExceeded);
  }
  EXPECT_NO_THROW(poll_deadline());
}

TEST(Hashing, DeterministicAndInputSensitive) {
  const char a[] = "abc";
  const char b[] = "abd";
  EXPECT_EQ(fnv64(a, 3), fnv64(a, 3));
  EXPECT_NE(fnv64(a, 3), fnv64(b, 3));
  EXPECT_NE(fnv64(a, 3), fnv64(a, 2));
  // Pinned values: cache entry names, corpus fingerprints, memo
  // signatures and fleet lease nonces all depend on them.  The offset
  // basis is one decimal digit short of the published FNV-1a 64 basis
  // (0xcbf29ce484222325, which would give "a" -> 0xaf63dc4c8601ec8c);
  // the prime is the published one.
  EXPECT_EQ(fnv64(""), 0x14650fb0739d0383ull);
  EXPECT_EQ(fnv64("a"), 0x44bd8ad473cd9906ull);
  EXPECT_EQ(fnv64(a, 3), fnv64("abc"));

  EXPECT_NE(hash_u64(0), 0u);
  EXPECT_NE(hash_u64(1), hash_u64(2));
  // hash_mix is order-dependent: node signatures must distinguish
  // (root, state) from (state, root).
  EXPECT_NE(hash_mix(1, 2), hash_mix(2, 1));
  EXPECT_EQ(hash_mix(1, 2), hash_mix(1, 2));
}

TEST(Hashing, MemoKeyMixersArePinned) {
  // The reduce and USTT memo keys are built from these two, so their
  // values decide probes and evictions, and through them the incumbents
  // of budget-truncated searches.
  EXPECT_EQ(hash_u64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(hash_u64(1), 0x910a2dec89025cc1ull);
  EXPECT_EQ(hash_mix(1, 2), 0xa3efbcce2e044f84ull);
  EXPECT_EQ(hash_mix(0xdeadbeef, 7), 0x97166ea1754bda77ull);
}

TEST(TranspositionTable, CapacityIsPowerOfTwoWithAProbeWindowFloor) {
  const TranspositionTable tiny(0);
  EXPECT_EQ(tiny.capacity(), 8u);  // one probe window even at zero bytes
  const TranspositionTable small(1 << 10);
  const TranspositionTable big(1 << 20);
  for (std::size_t cap :
       {tiny.capacity(), small.capacity(), big.capacity()}) {
    EXPECT_GE(cap, 8u);
    EXPECT_EQ(cap & (cap - 1), 0u) << cap;
  }
  EXPECT_GT(big.capacity(), small.capacity());
}

TEST(TranspositionTable, SlotCountTerminatesForEveryByteCount) {
  // Doubling `slots` until slots * 2 * sizeof(Slot) > bytes wrapped to 0
  // near SIZE_MAX and spun forever (a table size of -1 MiB once got
  // here).  The call runs on a detached thread so that a regression
  // fails instead of stalling the suite.
  auto count = std::make_shared<std::promise<std::size_t>>();
  std::future<std::size_t> got = count->get_future();
  std::thread([count] {
    count->set_value(TranspositionTable::slot_count_for(SIZE_MAX));
  }).detach();
  ASSERT_EQ(got.wait_for(std::chrono::seconds(10)), std::future_status::ready);
  // The largest power of two whose slots fit: 16-byte slots.
  EXPECT_EQ(got.get(), SIZE_MAX / 32 + 1);
  // 2^59 slots need exactly SIZE_MAX / 2 + 1 bytes.
  EXPECT_EQ(TranspositionTable::slot_count_for(SIZE_MAX / 2 + 1),
            SIZE_MAX / 32 + 1);
  EXPECT_EQ(TranspositionTable::slot_count_for(SIZE_MAX / 2), SIZE_MAX / 64 + 1);
}

TEST(TranspositionTable, MissThenStoreThenHit) {
  TranspositionTable tt(1 << 16);
  EXPECT_FALSE(tt.probe(42).has_value());
  tt.store(42, 5);
  EXPECT_EQ(tt.probe(42), 5u);
  EXPECT_EQ(tt.size(), 1u);
  EXPECT_EQ(tt.stats().misses, 1u);
  EXPECT_EQ(tt.stats().hits, 1u);
  EXPECT_EQ(tt.stats().stores, 1u);
  EXPECT_EQ(tt.stats().evictions, 0u);
}

TEST(TranspositionTable, ZeroKeyIsRemappedNotTreatedAsEmpty) {
  TranspositionTable tt(1 << 16);
  tt.store(0, 7);
  EXPECT_EQ(tt.probe(0), 7u);
  EXPECT_EQ(tt.size(), 1u);
}

TEST(TranspositionTable, StoreKeepsTheLargerBoundAndCountsEveryStore) {
  TranspositionTable tt(1 << 16);
  tt.store(1, 3);
  tt.store(1, 5);  // a tighter bound raises the entry
  tt.store(1, 5);
  tt.store(1, 4);  // a looser one never lowers it
  EXPECT_EQ(tt.probe(1), 5u);
  EXPECT_EQ(tt.size(), 1u);          // merges, not fresh inserts
  EXPECT_EQ(tt.stats().stores, 4u);  // but every merge counts a store
  EXPECT_EQ(tt.stats().evictions, 0u);
}

TEST(TranspositionTable, ZeroBoundIsALiveEntry) {
  // A bound of 0 proves nothing, yet it is an entry like any other: a
  // zero value must never read as an empty slot.
  TranspositionTable tt(1 << 16);
  tt.store(42, 0);
  EXPECT_EQ(tt.probe(42), 0u);
  EXPECT_EQ(tt.size(), 1u);
  EXPECT_EQ(tt.stats().stores, 1u);
  EXPECT_EQ(tt.stats().hits, 1u);
  tt.store(42, 2);  // and a later bound still raises it
  EXPECT_EQ(tt.probe(42), 2u);
  EXPECT_EQ(tt.size(), 1u);
}

TEST(TranspositionTable, EvictedKeyForgetsItsBound) {
  TranspositionTable tt(0);  // capacity 8 == one probe window
  ASSERT_EQ(tt.capacity(), 8u);
  tt.store(8, 50);
  // Seven more same-home keys fill the window; an eighth displaces the
  // home slot, which holds key 8.
  for (std::uint64_t k = 16; k <= 72; k += 8) {
    tt.store(k, static_cast<std::uint32_t>(k));
  }
  ASSERT_EQ(tt.stats().evictions, 1u);
  ASSERT_FALSE(tt.probe(8).has_value());
  // Key 8 comes back with a smaller bound: a fresh entry, not a merge
  // with the 50 that was evicted.
  tt.store(8, 3);
  EXPECT_EQ(tt.probe(8), 3u);
  EXPECT_EQ(tt.size(), 8u);
  EXPECT_EQ(tt.stats().evictions, 2u);
}

TEST(TranspositionTable, StoreOrderDoesNotChangeTheKeptBounds) {
  // Max-merge is commutative: any order of the same stores leaves every
  // key at its largest bound, as long as nothing is evicted.
  std::mt19937_64 rng(20261019);
  std::vector<std::pair<std::uint64_t, std::uint32_t>> stores;
  for (int i = 0; i < 400; ++i) {
    stores.emplace_back(1 + rng() % 40,
                        static_cast<std::uint32_t>(rng() % 100));
  }
  std::vector<std::pair<std::uint64_t, std::uint32_t>> expected;
  for (std::uint64_t key = 1; key <= 40; ++key) {
    std::optional<std::uint32_t> best;
    for (const auto& [k, v] : stores) {
      if (k == key) best = std::max(best.value_or(0), v);
    }
    if (best) expected.emplace_back(key, *best);
  }
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE(round);
    std::shuffle(stores.begin(), stores.end(), rng);
    TranspositionTable tt(1 << 16);
    for (const auto& [key, value] : stores) tt.store(key, value);
    auto entries = tt.dump();
    std::sort(entries.begin(), entries.end());
    EXPECT_EQ(entries, expected);
    EXPECT_EQ(tt.stats().stores, stores.size());
    EXPECT_EQ(tt.stats().evictions, 0u);
  }
}

TEST(TranspositionTable, FullProbeWindowEvictsTheHomeSlotDeterministically) {
  TranspositionTable tt(0);  // capacity 8 == one probe window
  ASSERT_EQ(tt.capacity(), 8u);
  // Eight keys that all hash to home slot 0 fill the whole table.
  for (std::uint64_t k = 8; k <= 64; k += 8) {
    tt.store(k, static_cast<std::uint32_t>(k));
  }
  EXPECT_EQ(tt.size(), 8u);
  EXPECT_EQ(tt.stats().evictions, 0u);
  // A ninth same-home key must displace the home slot (key 8), not fail
  // and not grow.
  tt.store(72, 72);
  EXPECT_EQ(tt.size(), 8u);
  EXPECT_EQ(tt.stats().evictions, 1u);
  EXPECT_FALSE(tt.probe(8).has_value());
  for (std::uint64_t k = 16; k <= 72; k += 8) {
    EXPECT_EQ(tt.probe(k), static_cast<std::uint32_t>(k)) << k;
  }
}

TEST(TranspositionTable, DumpReturnsEveryLiveEntry) {
  TranspositionTable tt(1 << 16);
  tt.store(11, 1);
  tt.store(22, 2);
  tt.store(33, 3);
  auto entries = tt.dump();
  std::sort(entries.begin(), entries.end());
  const std::vector<std::pair<std::uint64_t, std::uint32_t>> expected = {
      {11, 1}, {22, 2}, {33, 3}};
  EXPECT_EQ(entries, expected);
}

TEST(TranspositionTable, ClearDropsEntriesKeepsCapacityAndStats) {
  TranspositionTable tt(1 << 16);
  tt.store(5, 1);
  tt.store(6, 2);
  ASSERT_TRUE(tt.probe(5).has_value());
  const std::size_t capacity = tt.capacity();
  const std::uint64_t stores = tt.stats().stores;
  const std::uint64_t hits = tt.stats().hits;
  tt.clear();
  EXPECT_EQ(tt.size(), 0u);
  EXPECT_EQ(tt.capacity(), capacity);
  EXPECT_EQ(tt.stats().stores, stores);  // cumulative counters survive
  EXPECT_EQ(tt.stats().hits, hits);
  EXPECT_FALSE(tt.probe(5).has_value());  // entries do not
  EXPECT_FALSE(tt.probe(6).has_value());
  tt.store(5, 9);  // the table still works after a clear
  EXPECT_EQ(tt.probe(5), 9u);
}

TEST(TranspositionTable, StaleSlotsNeitherBlockTheWindowNorCountAsEvictions) {
  TranspositionTable tt(0);  // capacity 8 == one probe window
  ASSERT_EQ(tt.capacity(), 8u);
  for (std::uint64_t k = 8; k <= 64; k += 8) {
    tt.store(k, static_cast<std::uint32_t>(k));
  }
  ASSERT_EQ(tt.size(), 8u);
  tt.clear();
  const std::uint64_t evictions = tt.stats().evictions;
  // Eight new same-home keys land in the eight stale slots as if they
  // were empty: nothing is displaced and every one of them stays.
  for (std::uint64_t k = 72; k <= 128; k += 8) {
    tt.store(k, static_cast<std::uint32_t>(k));
  }
  EXPECT_EQ(tt.stats().evictions, evictions);
  EXPECT_EQ(tt.size(), 8u);
  for (std::uint64_t k = 72; k <= 128; k += 8) {
    EXPECT_EQ(tt.probe(k), static_cast<std::uint32_t>(k)) << k;
  }
  for (std::uint64_t k = 8; k <= 64; k += 8) {
    EXPECT_FALSE(tt.probe(k).has_value()) << k;
  }
}

TEST(TranspositionTable, DumpAfterClearReturnsOnlyCurrentEpochEntries) {
  TranspositionTable tt(1 << 16);
  tt.store(11, 1);
  tt.store(22, 9);
  tt.store(33, 3);
  tt.clear();
  EXPECT_TRUE(tt.dump().empty());
  tt.store(22, 7);  // a key seen before the clear, with a smaller bound
  tt.store(44, 4);
  auto entries = tt.dump();
  std::sort(entries.begin(), entries.end());
  // Stored fresh, not merged into the stale 9.
  const std::vector<std::pair<std::uint64_t, std::uint32_t>> expected = {
      {22, 7}, {44, 4}};
  EXPECT_EQ(entries, expected);
  EXPECT_EQ(tt.size(), 2u);
}

TEST(TranspositionTable, EpochWrapNeverRevivesAStaleEntry) {
  // A one-window table and the production-size one both wipe on wrap.
  for (const std::size_t bytes :
       {std::size_t{0}, core::SynthesisOptions::tt_mb << 20}) {
    SCOPED_TRACE(bytes);
    TranspositionTable tt(bytes);
    tt.store(42, 15);
    // Within 65536 clears the 16-bit epoch comes round to the value that
    // stamped key 42; only the wipe on wrap keeps it dead.  A dump scans
    // every slot, so the big table dumps only around the wrap.
    for (int i = 0; i < 65536; ++i) {
      tt.clear();
      ASSERT_FALSE(tt.probe(42).has_value()) << "after clear " << i + 1;
      if (tt.capacity() <= 8 || i >= 65530) {
        ASSERT_TRUE(tt.dump().empty()) << "after clear " << i + 1;
      }
    }
    EXPECT_EQ(tt.size(), 0u);
    EXPECT_TRUE(tt.dump().empty());
    tt.store(42, 9);  // a revived 15 would win the max-merge
    EXPECT_EQ(tt.probe(42), 9u);
    EXPECT_EQ(tt.size(), 1u);
  }
}

// The invariant that keeps results byte-identical: a reused table after
// clear() behaves exactly like a freshly allocated one.  One seeded
// trace of probes, stores and clears runs on a table that is cleared in
// place and on a new table per clear-delimited segment.
TEST(TranspositionTable, ClearedTableReplaysLikeAFreshOne) {
  constexpr std::size_t kBytes = 1 << 9;  // 32 slots: evictions happen
  std::mt19937_64 rng(20261016);
  std::vector<std::uint64_t> keys(200);
  for (std::uint64_t& k : keys) k = rng();
  keys[0] = 0;  // the remapped key takes part too

  TranspositionTable reused(kBytes);
  std::optional<TranspositionTable> fresh(std::in_place, kBytes);
  TtStats base;  // reused.stats() at the start of the segment
  int segments = 0;
  const auto end_segment = [&] {
    const TtStats& r = reused.stats();
    const TtStats& f = fresh->stats();
    EXPECT_EQ(r.hits - base.hits, f.hits) << segments;
    EXPECT_EQ(r.misses - base.misses, f.misses) << segments;
    EXPECT_EQ(r.stores - base.stores, f.stores) << segments;
    EXPECT_EQ(r.evictions - base.evictions, f.evictions) << segments;
    EXPECT_EQ(reused.size(), fresh->size()) << segments;
    EXPECT_EQ(reused.dump(), fresh->dump()) << segments;
    ++segments;
  };
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t key = keys[rng() % keys.size()];
    const unsigned roll = static_cast<unsigned>(rng() % 100);
    if (roll < 45) {
      const auto r = reused.probe(key);
      const auto f = fresh->probe(key);
      EXPECT_EQ(r, f) << op;
    } else if (roll < 99) {
      const auto value = static_cast<std::uint32_t>(rng() % 16);
      reused.store(key, value);
      fresh->store(key, value);
    } else {
      end_segment();
      reused.clear();
      fresh.emplace(kBytes);
      base = reused.stats();
    }
  }
  end_segment();
  EXPECT_GT(segments, 100);
  EXPECT_GT(reused.stats().evictions, 0u);
}

TEST(TranspositionTable, SlotCountForMatchesTheConstructor) {
  // Tiny to large tables: the allocation must not round the slot count
  // up with its alignment.
  for (const std::size_t bytes :
       {std::size_t{0}, std::size_t{1} << 10, std::size_t{1} << 16,
        std::size_t{1} << 20, std::size_t{2} << 20, std::size_t{3} << 20,
        std::size_t{16} << 20}) {
    EXPECT_EQ(TranspositionTable(bytes).capacity(),
              TranspositionTable::slot_count_for(bytes))
        << bytes;
  }
  // Different sizes really produce different capacities (the mismatch
  // check in core::synthesize depends on this being discriminating).
  EXPECT_NE(TranspositionTable::slot_count_for(1 << 16),
            TranspositionTable::slot_count_for(16 << 20));
  // Pinned: slots are 16 bytes, so a 16 MiB table holds 2^20 and the
  // production 1 MiB table 2^16.  A wider slot would halve these and move
  // every budget-truncated row.
  EXPECT_EQ(TranspositionTable::slot_count_for(16 << 20), std::size_t{1} << 20);
  constexpr std::size_t kProduction = core::SynthesisOptions::tt_mb << 20;
  EXPECT_EQ(TranspositionTable::slot_count_for(kProduction),
            std::size_t{1} << 16);
}

TEST(TranspositionTable, StorageIsAlignedForItsPageSize) {
  // Every size, the production one included, starts on a cache line.
  constexpr std::size_t kProduction = core::SynthesisOptions::tt_mb << 20;
  for (const std::size_t bytes : {std::size_t{0}, std::size_t{1} << 10,
                                  kProduction, std::size_t{16} << 20}) {
    const TranspositionTable tt(bytes);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(tt.storage()) % 64, 0u)
        << bytes;
  }
}

// One seeded stream of probes and stores.  Key 0 and keys sharing a
// home slot take part, so the remap and the probe window are exercised.
void replay_key_stream(TranspositionTable& tt) {
  std::mt19937_64 rng(16);
  std::vector<std::uint64_t> keys(300);
  for (std::uint64_t& k : keys) k = rng();
  keys[0] = 0;
  for (std::size_t i = 1; i < 40; ++i) keys[i] = keys[i - 1] + (1u << 20);
  for (int op = 0; op < 5000; ++op) {
    const std::uint64_t key = keys[rng() % keys.size()];
    if (rng() % 2 == 0) {
      (void)tt.probe(key);
    } else {
      // The stream once drew a bound kind after the value (g++ evaluated
      // the store's arguments right to left), and kind 0 stored nothing.
      // Both draws stay, so the keys and the placements stay as pinned.
      const auto value = static_cast<std::uint32_t>(rng() % 16);
      if (rng() % 4 != 0) tt.store(key, value);
    }
  }
}

std::uint64_t dump_fingerprint(const TranspositionTable& tt) {
  std::uint64_t h = 0;
  for (const auto& [key, value] : tt.dump()) {
    h = hash_mix(h, key);
    h = hash_mix(h, value);
  }
  return h;
}

TEST(TranspositionTable, KeyStreamReplayIsPinnedPerCapacity) {
  // Capacity, placement and eviction are result-relevant: these counts
  // and the slot-order dump may not move when the storage does.  The
  // stream's home-slot collisions are 2^20 apart, so they collide in the
  // production table too.
  const struct {
    std::size_t bytes;
    TtStats stats;
    std::size_t size;
    std::uint64_t dump;
  } cases[] = {
      {1 << 10, {508, 2053, 1819, 1387}, 64, 0x11b356d03076b51aull},
      {core::SynthesisOptions::tt_mb << 20, {1909, 652, 1819, 191}, 268,
       0x08d79ed7ed2b6ca8ull},
      {16 << 20, {1909, 652, 1819, 191}, 268, 0xcb675747981e695dull},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.bytes);
    TranspositionTable tt(c.bytes);
    replay_key_stream(tt);
    EXPECT_EQ(tt.stats().hits, c.stats.hits);
    EXPECT_EQ(tt.stats().misses, c.stats.misses);
    EXPECT_EQ(tt.stats().stores, c.stats.stores);
    EXPECT_EQ(tt.stats().evictions, c.stats.evictions);
    EXPECT_EQ(tt.size(), c.size);
    EXPECT_EQ(dump_fingerprint(tt), c.dump);
  }
}

TEST(TtStats, AccumulateAcrossWorkers) {
  TtStats a{1, 2, 3, 4};
  const TtStats b{10, 20, 30, 40};
  a += b;
  EXPECT_EQ(a.hits, 11u);
  EXPECT_EQ(a.misses, 22u);
  EXPECT_EQ(a.stores, 33u);
  EXPECT_EQ(a.evictions, 44u);
}

}  // namespace
}  // namespace seance::search
