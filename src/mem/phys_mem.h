// Functional (contents-only) physical memory: a sparse, page-granular flat
// byte store. Timing is modeled separately by the cache hierarchy.
//
// The page table is a chained hash of page-sized nodes. Pages are only ever
// added, never moved or removed, so a page pointer stays valid for the
// memory's lifetime. Each shard (DESIGN.md §4i) gets a private one-entry page
// memo: shards run in alternating windows, so one shared memo would be
// evicted at every switch.
#ifndef SRC_MEM_PHYS_MEM_H_
#define SRC_MEM_PHYS_MEM_H_

#include <cassert>
#include <cstdint>
#include <cstring>

#include "src/sim/shard.h"
#include "src/sim/types.h"

namespace casc {

class PhysicalMemory {
 public:
  static constexpr uint32_t kPageBits = 12;
  static constexpr Addr kPageSize = 1ull << kPageBits;

  PhysicalMemory() = default;
  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;
  ~PhysicalMemory();

  void Read(Addr addr, void* out, size_t len) const;
  void Write(Addr addr, const void* data, size_t len);

  // Word accessors run once per simulated fetch/load/store; the single-page
  // fast path plus the per-shard one-entry page memo keeps them free of hash
  // lookups for the (overwhelmingly common) page-local access streams.
  uint64_t ReadUint(Addr addr, size_t len) const {
    assert(len <= 8);
    const Addr off = addr & (kPageSize - 1);
    if (off + len <= kPageSize) {
      const Page* page = FindPageFast(addr);
      if (page == nullptr) {
        return 0;
      }
      uint64_t v = 0;
      std::memcpy(&v, page->bytes + off, len);  // little-endian host assumed
      return v;
    }
    uint64_t v = 0;
    Read(addr, &v, len);
    return v;
  }
  void WriteUint(Addr addr, uint64_t value, size_t len) {
    assert(len <= 8);
    const Addr off = addr & (kPageSize - 1);
    if (off + len <= kPageSize) {
      std::memcpy(EnsurePage(addr).bytes + off, &value, len);
      return;
    }
    Write(addr, &value, len);
  }

  uint8_t Read8(Addr a) const { return static_cast<uint8_t>(ReadUint(a, 1)); }
  uint16_t Read16(Addr a) const { return static_cast<uint16_t>(ReadUint(a, 2)); }
  uint32_t Read32(Addr a) const { return static_cast<uint32_t>(ReadUint(a, 4)); }
  uint64_t Read64(Addr a) const { return ReadUint(a, 8); }
  void Write8(Addr a, uint8_t v) { WriteUint(a, v, 1); }
  void Write16(Addr a, uint16_t v) { WriteUint(a, v, 2); }
  void Write32(Addr a, uint32_t v) { WriteUint(a, v, 4); }
  void Write64(Addr a, uint64_t v) { WriteUint(a, v, 8); }

  // Number of materialized pages (for tests / footprint checks).
  size_t PageCount() const { return page_count_; }

 private:
  struct Page {
    uint8_t bytes[kPageSize];
  };
  struct Node {
    Addr idx;
    Node* next;
    Page page;
  };
  // Power-of-two bucket count; ~4 pages per chain at 256 MiB of touched
  // simulated memory.
  static constexpr size_t kBuckets = 16384;

  static size_t Bucket(Addr idx) {
    return static_cast<size_t>((idx * 0x9E3779B97F4A7C15ull) >> 50) & (kBuckets - 1);
  }

  const Page* FindPage(Addr addr) const {
    const Addr idx = addr >> kPageBits;
    for (const Node* n = buckets_[Bucket(idx)]; n != nullptr; n = n->next) {
      if (n->idx == idx) {
        return &n->page;
      }
    }
    return nullptr;
  }
  Page& EnsurePage(Addr addr);

  // Positive entries can never go stale (pages are never moved or removed).
  // Misses are not memoized (a later write may materialize the page).
  const Page* FindPageFast(Addr addr) const {
    const Addr idx = addr >> kPageBits;
    Memo& memo = memo_[shard::current];
    if (memo.page != nullptr && idx == memo.idx) {
      return memo.page;
    }
    const Page* page = FindPage(addr);
    if (page != nullptr) {
      memo.idx = idx;
      memo.page = page;
    }
    return page;
  }

  struct Memo {
    Addr idx = 0;
    const Page* page = nullptr;
  };

  Node* buckets_[kBuckets] = {};
  size_t page_count_ = 0;
  mutable Memo memo_[shard::kMaxShards];
};

}  // namespace casc

#endif  // SRC_MEM_PHYS_MEM_H_
