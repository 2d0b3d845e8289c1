// Timing-only set-associative cache model with true-LRU replacement and
// write-back/write-allocate policy. Holds tags only; data lives in
// PhysicalMemory (the classic decoupled functional/timing split).
#ifndef SRC_MEM_CACHE_H_
#define SRC_MEM_CACHE_H_

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "src/sim/types.h"

namespace casc {

struct CacheConfig {
  std::string name = "cache";
  uint64_t size_bytes = 32 * 1024;
  uint32_t ways = 8;
  Tick hit_latency = 4;
};

class Cache {
 public:
  explicit Cache(const CacheConfig& config);
  ~Cache();
  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  // A memoized hit: a pointer to the line that served a previous read access,
  // validated against the cache's structural epoch. The epoch advances on any
  // fill, invalidation, or pin change, so a stale ref can never replay — the
  // fetch path (Core's predecoded lines) uses this to skip the set walk on
  // the common all-hits stretch while keeping hit counts and LRU state
  // exactly as the full walk would leave them.
  struct LineRef {
    void* line = nullptr;
    uint64_t epoch = 0;
  };

  // Tag lookup with fill-on-miss. Returns true on hit. On miss the line is
  // installed; `evicted_dirty` (if non-null) reports whether a dirty victim
  // was written back.
  //
  // The hit path lives in the header so the per-instruction fetch chain
  // (Core -> MemorySystem -> Cache) inlines end to end; misses take the
  // out-of-line Fill.
  bool Access(Addr addr, bool is_write, bool* evicted_dirty = nullptr) {
    if (evicted_dirty != nullptr) {
      *evicted_dirty = false;
    }
    const uint32_t set = SetIndex(addr);
    const Addr tag = TagOf(addr);
    const bool fill_pinned = !pinned_ranges_.empty() && IsPinnedAddr(addr);
    Line* base = &lines_[static_cast<size_t>(set) * config_.ways];
    for (uint32_t w = 0; w < config_.ways; w++) {
      Line& line = base[w];
      if (line.valid && line.tag == tag) {
        line.lru = ++lru_clock_;
        line.dirty = line.dirty || is_write;
        line.pinned = line.pinned || fill_pinned;
        hits_++;
        return true;
      }
    }
    return Fill(base, tag, is_write, fill_pinned, evicted_dirty);
  }

  // Replays a memoized read hit: true iff `ref` still points at a line the
  // cache has not restructured since capture. Performs the same bookkeeping
  // as the Access hit path for a clean read (LRU bump + hit count). Refuses
  // to replay while pin ranges are installed: the full walk would also
  // refresh the line's pinned bit, and that nuance is not worth memoizing.
  bool FastHit(const LineRef& ref) {
    if (ref.epoch != epoch_ || !pinned_ranges_.empty()) {
      return false;
    }
    Line* line = static_cast<Line*>(ref.line);
    line->lru = ++lru_clock_;
    hits_++;
    return true;
  }

  // Captures a ref for `addr` after a hit so the next access can FastHit.
  // No-op (invalid ref) if the line is not actually present.
  void CaptureRef(Addr addr, LineRef* ref) {
    const uint32_t set = SetIndex(addr);
    const Addr tag = TagOf(addr);
    Line* base = &lines_[static_cast<size_t>(set) * config_.ways];
    for (uint32_t w = 0; w < config_.ways; w++) {
      if (base[w].valid && base[w].tag == tag) {
        ref->line = &base[w];
        ref->epoch = epoch_;
        return;
      }
    }
    ref->epoch = 0;
  }

  // Lookup without side effects.
  bool Probe(Addr addr) const;

  // Drops the line if present; returns true if it was present and dirty.
  bool Invalidate(Addr addr);

  void InvalidateAll();

  // §4: "pin the most critical instructions/data/translations ... in caches,
  // using fine-grain cache partitioning". Lines within a pinned range are
  // never chosen as victims by fills of unpinned addresses; if a set fills
  // up entirely with pinned lines, unpinned fills bypass the cache (counted).
  void PinRange(Addr base, uint64_t size);
  void ClearPins() { pinned_ranges_.clear(); }
  bool IsPinnedAddr(Addr addr) const;
  uint64_t bypasses() const { return bypasses_; }

  const CacheConfig& config() const { return config_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t writebacks() const { return writebacks_; }

  // Capacity in lines (for tier-sizing by the context store).
  uint64_t num_lines() const { return static_cast<uint64_t>(num_sets_) * config_.ways; }

 private:
  // All-zero bytes are an empty (invalid, clean, unpinned) line, so the line
  // array starts as fresh zero pages with no initialising pass.
  struct Line {
    Addr tag;
    bool valid;
    bool dirty;
    bool pinned;
    uint64_t lru;  // higher = more recently used
  };
  static_assert(std::is_trivial_v<Line>);

  // Set count is a power of two for every stock config; the masked path keeps
  // two 64-bit divisions off the per-access critical path. Results are
  // identical to the div/mod form either way.
  uint32_t SetIndex(Addr addr) const {
    const Addr line = addr / kLineSize;
    return static_cast<uint32_t>(set_shift_ >= 0 ? (line & (num_sets_ - 1))
                                                 : (line % num_sets_));
  }
  Addr TagOf(Addr addr) const {
    const Addr line = addr / kLineSize;
    return set_shift_ >= 0 ? (line >> set_shift_) : (line / num_sets_);
  }

  // Miss path: victim selection + install. Returns false (miss).
  bool Fill(Line* base, Addr tag, bool is_write, bool fill_pinned, bool* evicted_dirty);

  CacheConfig config_;
  uint32_t num_sets_;
  int set_shift_ = -1;  // log2(num_sets_) when a power of two, else -1
  // num_sets_ * ways, set-major. The array is an anonymous mapping of its own
  // rather than a heap block: an 8 MiB L3 is 3 MiB of lines, and a process
  // that builds and drops machines in turn would otherwise need a free heap
  // hole that large each time, growing the heap whenever fragmentation has
  // left none. Pages are faulted in as sets are first touched.
  std::span<Line> lines_;
  std::vector<std::pair<Addr, Addr>> pinned_ranges_;  // [base, end)
  // Structural epoch for LineRef validation; starts at 1 so a default
  // (zeroed) ref never replays.
  uint64_t epoch_ = 1;
  uint64_t lru_clock_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t writebacks_ = 0;
  uint64_t bypasses_ = 0;
};

}  // namespace casc

#endif  // SRC_MEM_CACHE_H_
