#include "src/mem/phys_mem.h"

#include <algorithm>

namespace casc {

PhysicalMemory::~PhysicalMemory() {
  for (Node* n : buckets_) {
    while (n != nullptr) {
      Node* next = n->next;
      delete n;
      n = next;
    }
  }
}

PhysicalMemory::Page& PhysicalMemory::EnsurePage(Addr addr) {
  const Addr idx = addr >> kPageBits;
  Node*& head = buckets_[Bucket(idx)];
  Node* node = head;
  while (node != nullptr && node->idx != idx) {
    node = node->next;
  }
  if (node == nullptr) {
    node = new Node();  // value-initialized: the page starts zeroed
    node->idx = idx;
    node->next = head;
    head = node;
    page_count_++;
  }
  Memo& memo = memo_[shard::current];
  memo.idx = idx;
  memo.page = &node->page;
  return node->page;
}

void PhysicalMemory::Read(Addr addr, void* out, size_t len) const {
  uint8_t* dst = static_cast<uint8_t*>(out);
  while (len > 0) {
    const Addr off = addr & (kPageSize - 1);
    const size_t chunk = std::min<size_t>(len, kPageSize - off);
    const Page* page = FindPage(addr);
    if (page != nullptr) {
      std::memcpy(dst, page->bytes + off, chunk);
    } else {
      std::memset(dst, 0, chunk);
    }
    addr += chunk;
    dst += chunk;
    len -= chunk;
  }
}

void PhysicalMemory::Write(Addr addr, const void* data, size_t len) {
  const uint8_t* src = static_cast<const uint8_t*>(data);
  while (len > 0) {
    const Addr off = addr & (kPageSize - 1);
    const size_t chunk = std::min<size_t>(len, kPageSize - off);
    Page& page = EnsurePage(addr);
    std::memcpy(page.bytes + off, src, chunk);
    addr += chunk;
    src += chunk;
    len -= chunk;
  }
}

}  // namespace casc
