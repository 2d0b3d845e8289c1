#include "src/mem/cache.h"

#include <sys/mman.h>

#include <cassert>
#include <new>

namespace casc {

Cache::Cache(const CacheConfig& config) : config_(config) {
  assert(config_.ways > 0);
  const uint64_t lines = config_.size_bytes / kLineSize;
  assert(lines >= config_.ways);
  num_sets_ = static_cast<uint32_t>(lines / config_.ways);
  assert(num_sets_ > 0);
  if (std::has_single_bit(num_sets_)) {
    set_shift_ = std::countr_zero(num_sets_);
  }
  const size_t count = static_cast<size_t>(num_sets_) * config_.ways;
  void* p = mmap(nullptr, count * sizeof(Line), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    throw std::bad_alloc();
  }
  lines_ = std::span<Line>(static_cast<Line*>(p), count);
}

Cache::~Cache() { munmap(lines_.data(), lines_.size_bytes()); }

void Cache::PinRange(Addr base, uint64_t size) {
  pinned_ranges_.push_back({base, base + size});
  epoch_++;
}

bool Cache::IsPinnedAddr(Addr addr) const {
  for (const auto& [lo, hi] : pinned_ranges_) {
    if (addr >= lo && addr < hi) {
      return true;
    }
  }
  return false;
}

bool Cache::Fill(Line* base, Addr tag, bool is_write, bool fill_pinned, bool* evicted_dirty) {
  misses_++;
  epoch_++;  // any fill may evict a memoized line
  // Victim: an invalid way if any, else the LRU among eligible ways. Pinned
  // lines are only evictable by pinned fills (the partition guarantee).
  Line* victim = nullptr;
  for (uint32_t w = 0; w < config_.ways; w++) {
    Line& line = base[w];
    if (!line.valid) {
      victim = &line;
      break;
    }
    if (line.pinned && !fill_pinned) {
      continue;
    }
    if (victim == nullptr || line.lru < victim->lru) {
      victim = &line;
    }
  }
  if (victim == nullptr) {
    // The whole set is pinned against this fill: bypass the cache.
    bypasses_++;
    return false;
  }
  if (victim->valid && victim->dirty) {
    writebacks_++;
    if (evicted_dirty != nullptr) {
      *evicted_dirty = true;
    }
  }
  victim->valid = true;
  victim->tag = tag;
  victim->dirty = is_write;
  victim->pinned = fill_pinned;
  victim->lru = ++lru_clock_;
  return false;
}

bool Cache::Probe(Addr addr) const {
  const uint32_t set = SetIndex(addr);
  const Addr tag = TagOf(addr);
  const Line* base = &lines_[static_cast<size_t>(set) * config_.ways];
  for (uint32_t w = 0; w < config_.ways; w++) {
    if (base[w].valid && base[w].tag == tag) {
      return true;
    }
  }
  return false;
}

bool Cache::Invalidate(Addr addr) {
  const uint32_t set = SetIndex(addr);
  const Addr tag = TagOf(addr);
  Line* base = &lines_[static_cast<size_t>(set) * config_.ways];
  for (uint32_t w = 0; w < config_.ways; w++) {
    Line& line = base[w];
    if (line.valid && line.tag == tag) {
      const bool was_dirty = line.dirty;
      line.valid = false;
      line.dirty = false;
      epoch_++;
      return was_dirty;
    }
  }
  return false;
}

void Cache::InvalidateAll() {
  for (Line& line : lines_) {
    line.valid = false;
    line.dirty = false;
    line.pinned = false;
  }
  epoch_++;
}

}  // namespace casc
