#include "search/search.hpp"

#include <algorithm>
#include <cstdlib>
#include <new>

namespace seance::search {
namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// Linear probe window. Short enough to stay in one or two cache
// lines, long enough that deterministic home-slot eviction is rare.
constexpr std::size_t kProbeWindow = 8;

constexpr std::size_t kCacheLine = 64;

// The calling thread's deadline; max() while no DeadlineScope is active.
thread_local DeadlineScope::Clock::time_point t_deadline =
    DeadlineScope::Clock::time_point::max();

}  // namespace

DeadlineScope::DeadlineScope(double timeout_ms)
    : deadline_(Clock::time_point::max()), outer_(t_deadline) {
  const auto now = Clock::now();
  const std::chrono::duration<double, std::milli> budget(
      std::max(timeout_ms, 0.0));
  // Compared as doubles, so a budget that passes cannot overflow the
  // cast; NaN fails it and means none.
  if (budget < Clock::time_point::max() - now) {
    deadline_ = now + std::chrono::duration_cast<Clock::duration>(budget);
  }
  t_deadline = std::min(outer_, deadline_);
}

DeadlineScope::~DeadlineScope() { t_deadline = outer_; }

bool DeadlineScope::expired() const { return Clock::now() >= deadline_; }

void poll_deadline() {
  if (t_deadline != DeadlineScope::Clock::time_point::max() &&
      DeadlineScope::Clock::now() >= t_deadline) {
    throw DeadlineExceeded();
  }
}

std::uint64_t fnv64(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = kFnvBasis;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::size_t TranspositionTable::slot_count_for(std::size_t bytes) {
  // slots * 2 * sizeof(Slot) <= bytes, divided through: the product
  // wraps near SIZE_MAX, and the doubling would then never end.
  std::size_t slots = kProbeWindow;
  while (slots <= bytes / (2 * sizeof(Slot))) slots *= 2;
  return slots;
}

void TranspositionTable::FreeStorage::operator()(Slot* p) const {
  std::free(p);
}

TranspositionTable::TranspositionTable(std::size_t bytes)
    : capacity_(slot_count_for(bytes)), mask_(capacity_ - 1) {
  // The size is a power of two of at least one probe window, so it is
  // a whole number of cache lines, as aligned_alloc requires.
  void* storage = std::aligned_alloc(kCacheLine, capacity_ * sizeof(Slot));
  if (storage == nullptr) throw std::bad_alloc();
  slots_.reset(static_cast<Slot*>(storage));
  std::uninitialized_value_construct_n(slots_.get(), capacity_);
}

std::optional<std::uint32_t> TranspositionTable::probe(std::uint64_t key) {
  const std::size_t h = home(key);
  for (std::size_t i = 0; i < kProbeWindow; ++i) {
    const Slot& s = slots_[(h + i) & mask_];
    if (!live(s)) break;  // never displaced past an empty slot
    if (s.key == key) {
      ++stats_.hits;
      return s.value;
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

void TranspositionTable::store(std::uint64_t key, std::uint32_t lower_bound) {
  ++stats_.stores;
  const std::size_t h = home(key);
  Slot* target = nullptr;
  for (std::size_t i = 0; i < kProbeWindow; ++i) {
    Slot& s = slots_[(h + i) & mask_];
    if (!live(s)) {
      target = &s;  // never displaced past an empty slot, as in probe
      break;
    }
    if (s.key == key) {
      s.value = std::max(s.value, lower_bound);
      return;
    }
  }
  if (target == nullptr) {
    target = &slots_[h];  // deterministic replacement
    ++stats_.evictions;
  } else {
    ++live_;
  }
  target->key = key;
  target->value = lower_bound;
  target->epoch = epoch_;
}

void TranspositionTable::clear() {
  live_ = 0;
  // A wrapped epoch would revive slots stamped 65535 clears ago.
  if (++epoch_ == 0) {
    std::fill_n(slots_.get(), capacity_, Slot{});
    epoch_ = 1;
  }
}

std::vector<std::pair<std::uint64_t, std::uint32_t>> TranspositionTable::dump()
    const {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> out;
  out.reserve(live_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    const Slot& s = slots_[i];
    if (live(s)) out.emplace_back(s.key, s.value);
  }
  return out;
}

}  // namespace seance::search
