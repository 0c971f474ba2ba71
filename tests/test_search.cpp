// Unit tests for the shared search core: NodeBudget's single accounting
// convention and the TranspositionTable's probe/store/merge/eviction
// mechanics.  The cross-engine soundness and differential properties
// live in tests/test_search_property.cpp.

#include "search/search.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

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

TEST(Bound, LowerUpperDecomposition) {
  EXPECT_FALSE(has_lower(Bound::kNone));
  EXPECT_FALSE(has_upper(Bound::kNone));
  EXPECT_TRUE(has_lower(Bound::kLower));
  EXPECT_FALSE(has_upper(Bound::kLower));
  EXPECT_FALSE(has_lower(Bound::kUpper));
  EXPECT_TRUE(has_upper(Bound::kUpper));
  EXPECT_TRUE(has_lower(Bound::kExact));
  EXPECT_TRUE(has_upper(Bound::kExact));
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

  const std::uint64_t w1[] = {1, 2};
  const std::uint64_t w2[] = {1, 3};
  EXPECT_EQ(hash_words(w1, 2), hash_words(w1, 2));
  EXPECT_NE(hash_words(w1, 2), hash_words(w2, 2));
  EXPECT_NE(hash_words(w1, 2), hash_words(w1, 1));

  EXPECT_NE(hash_u64(0), 0u);
  EXPECT_NE(hash_u64(1), hash_u64(2));
  // hash_mix is order-dependent: node signatures must distinguish
  // (root, state) from (state, root).
  EXPECT_NE(hash_mix(1, 2), hash_mix(2, 1));
  EXPECT_EQ(hash_mix(1, 2), hash_mix(1, 2));
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

TEST(TranspositionTable, MissThenStoreThenHit) {
  TranspositionTable tt(1 << 16);
  EXPECT_FALSE(tt.probe(42).has_value());
  tt.store(42, Bound::kLower, 5);
  const auto e = tt.probe(42);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->bound, Bound::kLower);
  EXPECT_EQ(e->value, 5u);
  EXPECT_EQ(tt.size(), 1u);
  EXPECT_EQ(tt.stats().misses, 1u);
  EXPECT_EQ(tt.stats().hits, 1u);
  EXPECT_EQ(tt.stats().stores, 1u);
  EXPECT_EQ(tt.stats().evictions, 0u);
}

TEST(TranspositionTable, ZeroKeyIsRemappedNotTreatedAsEmpty) {
  TranspositionTable tt(1 << 16);
  tt.store(0, Bound::kExact, 7);
  const auto e = tt.probe(0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->bound, Bound::kExact);
  EXPECT_EQ(e->value, 7u);
  EXPECT_EQ(tt.size(), 1u);
}

TEST(TranspositionTable, StoringNoneIsANoOp) {
  TranspositionTable tt(1 << 16);
  tt.store(42, Bound::kNone, 9);
  EXPECT_EQ(tt.size(), 0u);
  EXPECT_EQ(tt.stats().stores, 0u);
  EXPECT_FALSE(tt.probe(42).has_value());
}

TEST(TranspositionTable, LowerMergeKeepsTheMaxValue) {
  TranspositionTable tt(1 << 16);
  tt.store(1, Bound::kLower, 3);
  tt.store(1, Bound::kLower, 5);
  tt.store(1, Bound::kLower, 4);
  const auto e = tt.probe(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->bound, Bound::kLower);
  EXPECT_EQ(e->value, 5u);
  EXPECT_EQ(tt.size(), 1u);       // merges, not fresh inserts
  EXPECT_EQ(tt.stats().stores, 3u);  // but each merge counts a store
}

TEST(TranspositionTable, UpperMergeKeepsTheMinValue) {
  TranspositionTable tt(1 << 16);
  tt.store(1, Bound::kUpper, 9);
  tt.store(1, Bound::kUpper, 4);
  tt.store(1, Bound::kUpper, 6);
  const auto e = tt.probe(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->bound, Bound::kUpper);
  EXPECT_EQ(e->value, 4u);
}

TEST(TranspositionTable, LowerMeetingUpperAtTheSameValuePromotesExact) {
  TranspositionTable tt(1 << 16);
  tt.store(1, Bound::kLower, 5);
  tt.store(1, Bound::kUpper, 5);
  const auto e = tt.probe(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->bound, Bound::kExact);
  EXPECT_EQ(e->value, 5u);
}

TEST(TranspositionTable, LowerReplacesUpperButNotTheReverse) {
  TranspositionTable tt(1 << 16);
  // The Lower side is the pruning side: it replaces a stored Upper...
  tt.store(1, Bound::kUpper, 7);
  tt.store(1, Bound::kLower, 3);
  auto e = tt.probe(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->bound, Bound::kLower);
  EXPECT_EQ(e->value, 3u);
  // ...but an Upper never displaces a stored Lower.
  tt.store(1, Bound::kUpper, 9);
  e = tt.probe(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->bound, Bound::kLower);
  EXPECT_EQ(e->value, 3u);
}

TEST(TranspositionTable, ExactIsStickyAndIncomingExactOverwrites) {
  TranspositionTable tt(1 << 16);
  tt.store(1, Bound::kLower, 2);
  tt.store(1, Bound::kExact, 6);  // incoming Exact overwrites
  auto e = tt.probe(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->bound, Bound::kExact);
  EXPECT_EQ(e->value, 6u);

  const std::uint64_t stores_before = tt.stats().stores;
  tt.store(1, Bound::kLower, 9);  // sticky: nothing changes...
  tt.store(1, Bound::kUpper, 1);
  e = tt.probe(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->bound, Bound::kExact);
  EXPECT_EQ(e->value, 6u);
  EXPECT_EQ(tt.stats().stores, stores_before);  // ...and nothing counts
}

TEST(TranspositionTable, FullProbeWindowEvictsTheHomeSlotDeterministically) {
  TranspositionTable tt(0);  // capacity 8 == one probe window
  ASSERT_EQ(tt.capacity(), 8u);
  // Eight keys that all hash to home slot 0 fill the whole table.
  for (std::uint64_t k = 8; k <= 64; k += 8) {
    tt.store(k, Bound::kLower, static_cast<std::uint32_t>(k));
  }
  EXPECT_EQ(tt.size(), 8u);
  EXPECT_EQ(tt.stats().evictions, 0u);
  // A ninth same-home key must displace the home slot (key 8), not fail
  // and not grow.
  tt.store(72, Bound::kLower, 72);
  EXPECT_EQ(tt.size(), 8u);
  EXPECT_EQ(tt.stats().evictions, 1u);
  EXPECT_FALSE(tt.probe(8).has_value());
  for (std::uint64_t k = 16; k <= 72; k += 8) {
    const auto e = tt.probe(k);
    ASSERT_TRUE(e.has_value()) << k;
    EXPECT_EQ(e->value, static_cast<std::uint32_t>(k));
  }
}

TEST(TranspositionTable, DumpReturnsEveryLiveEntry) {
  TranspositionTable tt(1 << 16);
  tt.store(11, Bound::kLower, 1);
  tt.store(22, Bound::kUpper, 2);
  tt.store(33, Bound::kExact, 3);
  const auto entries = tt.dump();
  ASSERT_EQ(entries.size(), 3u);
  bool saw11 = false, saw22 = false, saw33 = false;
  for (const auto& [key, bound, value] : entries) {
    if (key == 11) saw11 = (bound == Bound::kLower && value == 1);
    if (key == 22) saw22 = (bound == Bound::kUpper && value == 2);
    if (key == 33) saw33 = (bound == Bound::kExact && value == 3);
  }
  EXPECT_TRUE(saw11);
  EXPECT_TRUE(saw22);
  EXPECT_TRUE(saw33);
}

TEST(TranspositionTable, ResetStatsKeepsEntries) {
  TranspositionTable tt(1 << 16);
  tt.store(5, Bound::kExact, 1);
  ASSERT_TRUE(tt.probe(5).has_value());
  tt.reset_stats();
  EXPECT_EQ(tt.stats().hits, 0u);
  EXPECT_EQ(tt.stats().stores, 0u);
  EXPECT_EQ(tt.size(), 1u);
  EXPECT_TRUE(tt.probe(5).has_value());  // entries survive the reset
}

TEST(TranspositionTable, ClearDropsEntriesKeepsCapacityAndStats) {
  TranspositionTable tt(1 << 16);
  tt.store(5, Bound::kExact, 1);
  tt.store(6, Bound::kLower, 2);
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
  tt.store(5, Bound::kUpper, 9);  // the table still works after a clear
  const auto entry = tt.probe(5);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->bound, Bound::kUpper);
  EXPECT_EQ(entry->value, 9u);
}

TEST(TranspositionTable, SlotCountForMatchesTheConstructor) {
  for (const std::size_t bytes :
       {std::size_t{0}, std::size_t{1} << 10, std::size_t{1} << 16,
        std::size_t{16} << 20}) {
    EXPECT_EQ(TranspositionTable(bytes).capacity(),
              TranspositionTable::slot_count_for(bytes));
  }
  // Different sizes really produce different capacities (the mismatch
  // check in core::synthesize depends on this being discriminating).
  EXPECT_NE(TranspositionTable::slot_count_for(1 << 16),
            TranspositionTable::slot_count_for(16 << 20));
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
