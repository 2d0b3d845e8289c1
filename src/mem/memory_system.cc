#include "src/mem/memory_system.h"

#include <cassert>
#include <limits>

namespace casc {

namespace {
// Last line touched by a write of `len` bytes at `addr`, clamped to the top
// of the address space: `addr + len - 1` may wrap, and a `line <= last` loop
// would never terminate once `line + kLineSize` wraps past the final line.
// Same idiom as MonitorFilter::OnWrite (found by casc_fuzz; callers iterate
// with an equality exit).
Addr LastLineClamped(Addr addr, size_t len) {
  const Addr max_addr = std::numeric_limits<Addr>::max();
  const uint64_t span = len > 0 ? len - 1 : 0;
  const Addr last_byte = span > max_addr - addr ? max_addr : addr + span;
  return LineBase(last_byte);
}
}  // namespace

MemorySystem::MemorySystem(Simulation& sim, const MemConfig& config, uint32_t num_cores)
    : sim_(sim),
      config_(config),
      monitors_(config.monitor, sim.stats()),
      stat_reads_(sim.stats().Intern("mem.reads")),
      stat_writes_(sim.stats().Intern("mem.writes")),
      stat_fetches_(sim.stats().Intern("mem.fetches")),
      stat_dma_writes_(sim.stats().Intern("mem.dma_writes")),
      stat_dma_blocked_(sim.stats().Intern("mem.dma_blocked")) {
  core_caches_.reserve(num_cores);
  for (uint32_t i = 0; i < num_cores; i++) {
    CoreCaches cc;
    cc.l1i = std::make_unique<Cache>(config_.l1i);
    cc.l1d = std::make_unique<Cache>(config_.l1d);
    cc.l2 = std::make_unique<Cache>(config_.l2);
    core_caches_.push_back(std::move(cc));
  }
  l3_ = std::make_unique<Cache>(config_.l3);
  for (CoreCaches& cc : core_caches_) {
    cc.l3p = l3_.get();
  }
  for (uint32_t s = 0; s < shard::kMaxShards; s++) {
    filters_[s] = &monitors_;
  }
}

void MemorySystem::EnableSharding(ShardRouter* router) {
  assert(router != nullptr);
  assert(sim_.num_shards() == num_cores());
  router_ = router;
  num_shards_ = num_cores();
  // Core 0 keeps the legacy L3 and monitor filter; every other shard gets a
  // private slice/replica. The per-shard filters intern the same stat names
  // — the sharded registry folds their counts together on the read side.
  for (uint32_t s = 1; s < num_shards_; s++) {
    l3_slices_.push_back(std::make_unique<Cache>(config_.l3));
    core_caches_[s].l3p = l3_slices_.back().get();
    extra_filters_.push_back(std::make_unique<MonitorFilter>(config_.monitor, sim_.stats()));
    filters_[s] = extra_filters_.back().get();
  }
  write_logs_ = std::make_unique<ShardWriteLog[]>(num_shards_);
}

void MemorySystem::SetMonitorWakeHandler(MonitorFilter::WakeHandler handler) {
  monitors_.SetWakeHandler(handler);
  for (auto& f : extra_filters_) {
    f->SetWakeHandler(handler);
  }
}

bool MemorySystem::FirstWatcherOfAll(Addr addr, Ptid* out) const {
  bool found = false;
  Ptid best = 0;
  const uint32_t n = num_shards_ == 0 ? 1 : num_shards_;
  for (uint32_t s = 0; s < n; s++) {
    Ptid p;
    if (filters_[s]->FirstWatcherOf(addr, &p) && (!found || p < best)) {
      found = true;
      best = p;
    }
  }
  if (found) {
    *out = best;
  }
  return found;
}

void MemorySystem::LogWrittenLine(Addr line) {
  ShardWriteLog& log = write_logs_[shard::current];
  const uint32_t bit = BloomBit(line);
  uint64_t& word = log.bloom[bit >> 6];
  const uint64_t mask = 1ull << (bit & 63);
  if ((word & mask) != 0) {
    // Possible duplicate; confirm exactly so a bloom collision can never
    // drop a genuinely new line.
    for (Addr seen : log.lines) {
      if (seen == line) {
        return;
      }
    }
  }
  word |= mask;
  log.lines.push_back(line);
  log.first_tick.push_back(sim_.now());
}

void MemorySystem::LogWrittenRange(Addr addr, size_t len) {
  const Addr last = LastLineClamped(addr, len);
  for (Addr line = LineBase(addr);; line += kLineSize) {
    LogWrittenLine(line);
    if (line == last) {
      break;
    }
  }
}

void MemorySystem::FlushWindow() {
  for (uint32_t s = 0; s < num_shards_; s++) {
    ShardWriteLog& log = write_logs_[s];
    for (size_t i = 0; i < log.lines.size(); i++) {
      const Addr line = log.lines[i];
      const Tick when = log.first_tick[i] + router_->hop();
      for (uint32_t d = 0; d < num_shards_; d++) {
        if (d == s) {
          continue;
        }
        // Remote coherence, deferred from write time to the barrier: private
        // caches, the remote L3 slice, and the remote core's predecode.
        core_caches_[d].l1i->Invalidate(line);
        core_caches_[d].l1d->Invalidate(line);
        core_caches_[d].l2->Invalidate(line);
        core_caches_[d].l3p->Invalidate(line);
        for (const TaggedListener& listener : code_write_listeners_) {
          if (listener.core == d) {
            listener.fn(line);
          }
        }
        // Monitor replay: if shard d may be watching this line, deliver the
        // write to its filter at first-write-tick + hop. The replay runs in
        // shard d's own context next round, so wakeups go through the normal
        // local path. Arm-vs-store races inside one window resolve to "the
        // store arrives after the arm" — the filter state consulted is the
        // barrier-time (end of window) state.
        if (filters_[d]->MaybeWatched(line)) {
          MonitorFilter* filter = filters_[d];
          router_->Post(d, when, [filter, line] { filter->OnWrite(line, 1); });
        }
      }
      log.bloom[BloomBit(line) >> 6] &= ~(1ull << (BloomBit(line) & 63));
    }
    log.lines.clear();
    log.first_tick.clear();
  }
}

const MemorySystem::MmioRegion* MemorySystem::FindMmio(Addr addr) const {
  for (const MmioRegion& r : mmio_) {
    if (addr >= r.base && addr < r.base + r.size) {
      return &r;
    }
  }
  return nullptr;
}

void MemorySystem::RegisterMmio(Addr base, uint64_t size, MmioDevice* device) {
  assert(device != nullptr);
  assert(FindMmio(base) == nullptr && FindMmio(base + size - 1) == nullptr);
  mmio_.push_back(MmioRegion{base, size, device});
}

void MemorySystem::InvalidateForWrite(Addr addr, size_t len, CoreId writer) {
  const Addr last = LastLineClamped(addr, len);
  if (ShardedExecuting()) {
    // Inside a window only the writer's own shard state may be
    // touched: log the lines and notify the writer's predecode; every remote
    // core is invalidated at the barrier (FlushWindow).
    for (Addr line = LineBase(addr);; line += kLineSize) {
      LogWrittenLine(line);
      for (const TaggedListener& listener : code_write_listeners_) {
        if (listener.core == writer) {
          listener.fn(line);
        }
      }
      if (line == last) {
        break;
      }
    }
    return;
  }
  for (Addr line = LineBase(addr);; line += kLineSize) {
    for (uint32_t c = 0; c < core_caches_.size(); c++) {
      if (c == writer) {
        continue;
      }
      core_caches_[c].l1i->Invalidate(line);
      core_caches_[c].l1d->Invalidate(line);
      core_caches_[c].l2->Invalidate(line);
      if (num_shards_ != 0) {
        // Host-phase write on a sharded machine: remote L3 slices must not
        // keep a stale copy (legacy mode shares one L3, nothing to do).
        core_caches_[c].l3p->Invalidate(line);
      }
    }
    // Unlike the cache invalidation above, predecode invalidation includes
    // the writer: its own predecoded copy of the line is stale too.
    for (const TaggedListener& listener : code_write_listeners_) {
      listener.fn(line);
    }
    if (line == last) {
      break;
    }
  }
}

Tick MemorySystem::FetchPredecodedMiss(CoreId core, Addr addr, Cache::LineRef* ref) {
  Cache& l1i = *core_caches_[core].l1i;
  const Tick hit = l1i.config().hit_latency;
  const Tick lat = AccessLatency(core, addr, /*is_write=*/false, /*is_fetch=*/true);
  if (lat == hit) {
    l1i.CaptureRef(addr, ref);
  }
  return lat;
}

Tick MemorySystem::Read(CoreId core, Addr addr, size_t len, uint64_t* out) {
  stat_reads_++;
  const MmioRegion* mmio = FindMmio(addr);
  if (mmio != nullptr) {
    const uint64_t v = mmio->device->MmioRead(addr - mmio->base, len);
    if (out != nullptr) {
      *out = v;
    }
    return config_.mmio_latency;
  }
  if (out != nullptr) {
    *out = phys_.ReadUint(addr, len);
  }
  return AccessLatency(core, addr, /*is_write=*/false, /*is_fetch=*/false);
}

Tick MemorySystem::Write(CoreId core, Addr addr, size_t len, uint64_t value) {
  stat_writes_++;
  const MmioRegion* mmio = FindMmio(addr);
  if (mmio != nullptr) {
    mmio->device->MmioWrite(addr - mmio->base, len, value);
    // MMIO registers are monitorable too (§3.1: "one can monitor uncachable
    // addresses such as device memory or memory-mapped I/O registers").
    // Same-shard watchers see the write synchronously; cross-shard watchers
    // via the barrier replay.
    if (ShardedExecuting()) {
      LogWrittenRange(addr, len);
    }
    monitors().OnWrite(addr, len);
    return config_.mmio_latency;
  }
  phys_.WriteUint(addr, value, len);
  InvalidateForWrite(addr, len, core);
  monitors().OnWrite(addr, len);
  return AccessLatency(core, addr, /*is_write=*/true, /*is_fetch=*/false);
}

Tick MemorySystem::AtomicAdd(CoreId core, Addr addr, uint64_t delta, uint64_t* old) {
  const uint64_t prev = phys_.Read64(addr);
  if (old != nullptr) {
    *old = prev;
  }
  const Tick lat = Write(core, addr, 8, prev + delta);
  return lat + 4;  // lock/RMW penalty
}

Tick MemorySystem::AtomicCas(CoreId core, Addr addr, uint64_t expected, uint64_t desired,
                             uint64_t* old) {
  const uint64_t prev = phys_.Read64(addr);
  if (old != nullptr) {
    *old = prev;
  }
  if (prev != expected) {
    // Failed CAS: the line is still acquired exclusively (charged like a
    // write), but there is no functional update and no monitor notification.
    return AccessLatency(core, addr, /*is_write=*/true, /*is_fetch=*/false) + 4;
  }
  return Write(core, addr, 8, desired) + 4;  // lock/RMW penalty
}

void MemorySystem::DmaWrite(Addr addr, const void* data, size_t len) {
  if (!DmaWriteAllowed(addr, len)) {
    // The fabric rejects the write whole: no functional update, no
    // invalidation, no monitor wakeups. Devices observe nothing (real DMA
    // engines post writes and move on); the exception path checks
    // DmaWriteAllowed up front precisely because this failure is silent.
    stat_dma_blocked_++;
    return;
  }
  stat_dma_writes_++;
  phys_.Write(addr, data, len);
  const Addr last = LastLineClamped(addr, len);
  if (ShardedExecuting()) {
    // The DMA lands in the shard issuing it (the device's home shard):
    // invalidate and DDIO-allocate locally, notify the local predecode, and
    // leave every remote core to the barrier flush.
    const uint32_t s = shard::current;
    CoreCaches& cc = core_caches_[s];
    for (Addr line = LineBase(addr);; line += kLineSize) {
      LogWrittenLine(line);
      cc.l1i->Invalidate(line);
      cc.l1d->Invalidate(line);
      cc.l2->Invalidate(line);
      if (config_.dma_allocate_l3) {
        cc.l3p->Access(line, /*is_write=*/true);
      } else {
        cc.l3p->Invalidate(line);
      }
      for (const TaggedListener& listener : code_write_listeners_) {
        if (listener.core == s) {
          listener.fn(line);
        }
      }
      if (line == last) {
        break;
      }
    }
    monitors().OnWrite(addr, len);
    return;
  }
  // DMA invalidates every core's private lines; optionally allocates into the
  // shared L3 (DDIO-style) so the woken consumer hits on-chip.
  for (Addr line = LineBase(addr);; line += kLineSize) {
    for (auto& cc : core_caches_) {
      cc.l1i->Invalidate(line);
      cc.l1d->Invalidate(line);
      cc.l2->Invalidate(line);
    }
    if (config_.dma_allocate_l3) {
      l3_->Access(line, /*is_write=*/true);
    } else {
      l3_->Invalidate(line);
    }
    // Host-phase DMA on a sharded machine also maintains the remote slices.
    for (auto& slice : l3_slices_) {
      if (config_.dma_allocate_l3) {
        slice->Access(line, /*is_write=*/true);
      } else {
        slice->Invalidate(line);
      }
    }
    for (const TaggedListener& listener : code_write_listeners_) {
      listener.fn(line);
    }
    if (line == last) {
      break;
    }
  }
  monitors().OnWrite(addr, len);
}

void MemorySystem::DmaRead(Addr addr, void* out, size_t len) { phys_.Read(addr, out, len); }

Tick MemorySystem::BulkLatency(MemLevel level, uint32_t bytes) const {
  const Tick transfer = (bytes + config_.link_bytes_per_cycle - 1) / config_.link_bytes_per_cycle;
  switch (level) {
    case MemLevel::kL1:
      return config_.l1d.hit_latency + transfer;
    case MemLevel::kL2:
      return config_.l2.hit_latency + transfer;
    case MemLevel::kL3:
      return config_.l3.hit_latency + transfer;
    case MemLevel::kDram:
      return config_.dram_latency + transfer;
  }
  return config_.dram_latency + transfer;
}

uint64_t MemorySystem::LevelCapacity(MemLevel level) const {
  switch (level) {
    case MemLevel::kL1:
      return config_.l1d.size_bytes;
    case MemLevel::kL2:
      return config_.l2.size_bytes;
    case MemLevel::kL3:
      return config_.l3.size_bytes;
    case MemLevel::kDram:
      return UINT64_MAX;
  }
  return UINT64_MAX;
}

}  // namespace casc
