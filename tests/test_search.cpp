// Unit tests for the shared search core: NodeBudget's single accounting
// convention and the TranspositionTable's probe/store/merge/eviction
// mechanics.  The cross-engine soundness and differential properties
// live in tests/test_search_property.cpp.

#include "search/search.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <tuple>
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

TEST(TranspositionTable, StaleSlotsNeitherBlockTheWindowNorCountAsEvictions) {
  TranspositionTable tt(0);  // capacity 8 == one probe window
  ASSERT_EQ(tt.capacity(), 8u);
  for (std::uint64_t k = 8; k <= 64; k += 8) {
    tt.store(k, Bound::kLower, static_cast<std::uint32_t>(k));
  }
  ASSERT_EQ(tt.size(), 8u);
  tt.clear();
  const std::uint64_t evictions = tt.stats().evictions;
  // Eight new same-home keys land in the eight stale slots as if they
  // were empty: nothing is displaced and every one of them stays.
  for (std::uint64_t k = 72; k <= 128; k += 8) {
    tt.store(k, Bound::kUpper, static_cast<std::uint32_t>(k));
  }
  EXPECT_EQ(tt.stats().evictions, evictions);
  EXPECT_EQ(tt.size(), 8u);
  for (std::uint64_t k = 72; k <= 128; k += 8) {
    const auto e = tt.probe(k);
    ASSERT_TRUE(e.has_value()) << k;
    EXPECT_EQ(e->bound, Bound::kUpper);
  }
  for (std::uint64_t k = 8; k <= 64; k += 8) {
    EXPECT_FALSE(tt.probe(k).has_value()) << k;
  }
}

TEST(TranspositionTable, DumpAfterClearReturnsOnlyCurrentEpochEntries) {
  TranspositionTable tt(1 << 16);
  tt.store(11, Bound::kLower, 1);
  tt.store(22, Bound::kUpper, 2);
  tt.store(33, Bound::kExact, 3);
  tt.clear();
  EXPECT_TRUE(tt.dump().empty());
  tt.store(22, Bound::kLower, 7);  // a key seen before the clear
  tt.store(44, Bound::kExact, 4);
  const auto entries = tt.dump();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(tt.size(), 2u);
  for (const auto& [key, bound, value] : entries) {
    if (key == 22) {
      // Stored fresh, not merged into the stale Upper 2.
      EXPECT_EQ(bound, Bound::kLower);
      EXPECT_EQ(value, 7u);
    } else {
      EXPECT_EQ(key, 44u);
      EXPECT_EQ(bound, Bound::kExact);
      EXPECT_EQ(value, 4u);
    }
  }
}

TEST(TranspositionTable, EpochWrapNeverRevivesAStaleEntry) {
  // A one-window table and the production-size one both wipe on wrap.
  for (const std::size_t bytes :
       {std::size_t{0}, core::SynthesisOptions::tt_mb << 20}) {
    SCOPED_TRACE(bytes);
    TranspositionTable tt(bytes);
    tt.store(42, Bound::kExact, 5);
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
    tt.store(42, Bound::kLower, 9);
    const auto e = tt.probe(42);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->bound, Bound::kLower);
    EXPECT_EQ(e->value, 9u);
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
      ASSERT_EQ(r.has_value(), f.has_value()) << op;
      if (r) {
        EXPECT_EQ(r->bound, f->bound) << op;
        EXPECT_EQ(r->value, f->value) << op;
      }
    } else if (roll < 99) {
      const auto bound = static_cast<Bound>(rng() % 4);
      const auto value = static_cast<std::uint32_t>(rng() % 16);
      reused.store(key, bound, value);
      fresh->store(key, bound, value);
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
      tt.store(key, static_cast<Bound>(rng() % 4),
               static_cast<std::uint32_t>(rng() % 16));
    }
  }
}

std::uint64_t dump_fingerprint(const TranspositionTable& tt) {
  std::uint64_t h = 0;
  for (const auto& [key, bound, value] : tt.dump()) {
    h = hash_mix(h, key);
    h = hash_mix(h, static_cast<std::uint64_t>(bound) << 32 | value);
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
      {1 << 10, {508, 2053, 1700, 1387}, 64, 0x2c40897c9481f9dbull},
      {core::SynthesisOptions::tt_mb << 20, {1909, 652, 886, 191}, 268,
       0x899ab185ccbf9d61ull},
      {16 << 20, {1909, 652, 886, 191}, 268, 0x89bcedc7ddc57027ull},
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
