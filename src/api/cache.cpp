#include "api/cache.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "store/store.hpp"

namespace seance::api {

namespace {

/// Approximate heap footprint of one LRU entry — the strings plus the
/// fixed row and node overhead.  Exact malloc accounting is not worth
/// the bookkeeping; the budget is a bound, not an invoice.
std::size_t entry_bytes(const std::string& key, const driver::JobResult& row) {
  return key.size() + row.name.size() + row.detail.size() +
         sizeof(driver::JobResult) + 96;
}

}  // namespace

ResultCache::ResultCache(CacheConfig config) : config_(std::move(config)) {}

std::string ResultCache::entry_path(const std::string& key) const {
  return config_.dir + "/entry-" + fnv64_hex(key) + ".csv";
}

std::string ResultCache::encode_entry(const std::string& key,
                                      const driver::JobResult& row) {
  store::StoredReport stored;
  // The full key rides in the corpus line — the read-side proof that this
  // file answers *this* request (filenames only carry the key's hash, and
  // hashes can collide).  The synthesis/checks halves land on their usual
  // identity lines too, so an entry reads like any other store file.
  stored.identity.corpus = "cache:" + key;
  const std::size_t p1 = key.find('|');
  const std::size_t p2 =
      p1 == std::string::npos ? std::string::npos : key.find('|', p1 + 1);
  if (p2 != std::string::npos) {
    stored.identity.synthesis = key.substr(p1 + 1, p2 - p1 - 1);
    stored.identity.checks = key.substr(p2 + 1);
  }
  stored.report.jobs.push_back(row);
  return store::serialize(stored);
}

std::optional<driver::JobResult> ResultCache::decode_entry(
    const std::string& bytes, const std::string& key) {
  store::StoredReport stored;
  try {
    stored = store::parse(bytes, /*tolerate_partial_tail=*/true);
  } catch (const std::exception&) {
    return std::nullopt;  // torn or corrupt: stale, overwrite on write-back
  }
  if (stored.identity.corpus != "cache:" + key) return std::nullopt;
  if (stored.report.jobs.size() != 1) return std::nullopt;
  return stored.report.jobs.front();
}

void ResultCache::warm_insert(std::string key, driver::JobResult row) {
  if (warm_sealed_) {
    throw std::logic_error("api: warm tier is sealed (frozen key set)");
  }
  warm_rows_.emplace_back(std::move(key), std::move(row));
}

void ResultCache::warm_seal() {
  warm_sealed_ = true;
  if (warm_rows_.empty()) return;
  // Flat open addressing at <= 0.5 load over the frozen key set — the
  // FlatCubeSet idiom: one cache line per probe, no buckets, no rehash.
  std::size_t capacity = 1;
  while (capacity < warm_rows_.size() * 2) capacity <<= 1;
  warm_slots_.assign(capacity, WarmSlot{});
  warm_mask_ = capacity - 1;
  std::size_t live = 0;
  for (std::size_t i = 0; i < warm_rows_.size(); ++i) {
    const std::uint64_t hash = search::fnv64(warm_rows_[i].first);
    std::size_t slot = static_cast<std::size_t>(hash & warm_mask_);
    for (;;) {
      WarmSlot& s = warm_slots_[slot];
      if (s.index_plus_1 == 0) {
        s.hash = hash;
        s.index_plus_1 = static_cast<std::uint32_t>(i + 1);
        ++live;
        break;
      }
      if (s.hash == hash &&
          warm_rows_[s.index_plus_1 - 1].first == warm_rows_[i].first) {
        // Duplicate key in the seed set: last writer wins.
        s.index_plus_1 = static_cast<std::uint32_t>(i + 1);
        break;
      }
      slot = (slot + 1) & warm_mask_;
    }
  }
  stats_.warm_entries = live;
}

const driver::JobResult* ResultCache::warm_find(const std::string& key) const {
  if (warm_slots_.empty()) return nullptr;
  const std::uint64_t hash = search::fnv64(key);
  std::size_t slot = static_cast<std::size_t>(hash & warm_mask_);
  for (;;) {
    const WarmSlot& s = warm_slots_[slot];
    if (s.index_plus_1 == 0) return nullptr;
    if (s.hash == hash && warm_rows_[s.index_plus_1 - 1].first == key) {
      return &warm_rows_[s.index_plus_1 - 1].second;
    }
    slot = (slot + 1) & warm_mask_;
  }
}

std::optional<driver::JobResult> ResultCache::lookup(
    const std::string& key, CacheDisposition* disposition) {
  const auto set = [&](CacheDisposition d) {
    if (disposition) *disposition = d;
  };
  if (warm_sealed_) {
    if (const driver::JobResult* row = warm_find(key)) {
      ++stats_.hits;
      ++stats_.warm_hits;
      set(CacheDisposition::kHit);
      return *row;
    }
  }
  if (config_.mem_limit_bytes > 0) {
    const auto it = lru_index_.find(key);
    if (it != lru_index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.hits;
      set(CacheDisposition::kHit);
      return it->second->row;
    }
  }
  if (!config_.dir.empty()) {
    std::ifstream in(entry_path(key), std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      if (std::optional<driver::JobResult> row =
              decode_entry(buffer.str(), key)) {
        lru_put(key, *row);  // promote: repeat traffic skips the file read
        ++stats_.hits;
        set(CacheDisposition::kHit);
        return row;
      }
      ++stats_.stale;
      set(CacheDisposition::kStale);
      return std::nullopt;
    }
  }
  ++stats_.misses;
  set(CacheDisposition::kMiss);
  return std::nullopt;
}

void ResultCache::lru_put(const std::string& key,
                          const driver::JobResult& row) {
  if (config_.mem_limit_bytes == 0) return;
  const auto it = lru_index_.find(key);
  if (it != lru_index_.end()) {
    lru_bytes_ -= it->second->bytes;
    lru_.erase(it->second);
    lru_index_.erase(it);
  }
  LruEntry entry{key, row, entry_bytes(key, row)};
  lru_bytes_ += entry.bytes;
  lru_.push_front(std::move(entry));
  lru_index_[key] = lru_.begin();
  while (lru_bytes_ > config_.mem_limit_bytes && !lru_.empty()) {
    const LruEntry& tail = lru_.back();
    lru_bytes_ -= tail.bytes;
    lru_index_.erase(tail.key);
    lru_.pop_back();
  }
  stats_.entries = lru_.size();
  stats_.bytes = lru_bytes_;
}

void ResultCache::insert(const std::string& key,
                         const driver::JobResult& row) {
  lru_put(key, row);
  if (config_.dir.empty()) return;
  // Best-effort write-back: a full disk or unwritable directory degrades
  // the cache to memory-only, it never fails the request.  A torn write
  // is indistinguishable from a crashed writer and reads as stale.
  std::error_code ec;
  std::filesystem::create_directories(config_.dir, ec);
  std::ofstream out(entry_path(key), std::ios::binary | std::ios::trunc);
  if (out) out << encode_entry(key, row);
}

}  // namespace seance::api
