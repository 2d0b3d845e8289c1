// Unit tests for the memory system: functional memory, timing caches,
// MMIO dispatch, DMA, and the generalized monitor filter.
#include <gtest/gtest.h>

#include <limits>

#include "src/mem/cache.h"
#include "src/mem/memory_system.h"
#include "src/mem/monitor_filter.h"
#include "src/mem/phys_mem.h"
#include "src/sim/simulation.h"

namespace casc {
namespace {

TEST(PhysicalMemoryTest, ReadsZeroBeforeWrite) {
  PhysicalMemory mem;
  EXPECT_EQ(mem.Read64(0x1000), 0u);
  EXPECT_EQ(mem.PageCount(), 0u);
}

TEST(PhysicalMemoryTest, RoundTripsScalars) {
  PhysicalMemory mem;
  mem.Write64(0x2000, 0x1122334455667788ull);
  EXPECT_EQ(mem.Read64(0x2000), 0x1122334455667788ull);
  EXPECT_EQ(mem.Read32(0x2000), 0x55667788u);
  EXPECT_EQ(mem.Read8(0x2007), 0x11u);
  mem.Write16(0x2100, 0xbeef);
  EXPECT_EQ(mem.Read16(0x2100), 0xbeefu);
}

TEST(PhysicalMemoryTest, CrossPageAccess) {
  PhysicalMemory mem;
  const Addr addr = PhysicalMemory::kPageSize - 4;
  mem.Write64(addr, 0xa1b2c3d4e5f60718ull);
  EXPECT_EQ(mem.Read64(addr), 0xa1b2c3d4e5f60718ull);
  EXPECT_EQ(mem.PageCount(), 2u);
}

TEST(CacheTest, HitAfterMiss) {
  Cache c(CacheConfig{"t", 4096, 4, 4});
  EXPECT_FALSE(c.Access(0x100, false));
  EXPECT_TRUE(c.Access(0x100, false));
  EXPECT_TRUE(c.Access(0x13f, false));  // same 64B line
  EXPECT_FALSE(c.Access(0x140, false));
  EXPECT_EQ(c.hits(), 2u);
  EXPECT_EQ(c.misses(), 2u);
}

TEST(CacheTest, LruEviction) {
  // 4 lines, 2 ways -> 2 sets. Lines mapping to set 0: 0x0, 0x80, 0x100...
  Cache c(CacheConfig{"t", 256, 2, 4});
  EXPECT_FALSE(c.Access(0x000, false));
  EXPECT_FALSE(c.Access(0x080, false));
  EXPECT_TRUE(c.Access(0x000, false));   // 0x080 is now LRU
  EXPECT_FALSE(c.Access(0x100, false));  // evicts 0x080
  EXPECT_TRUE(c.Access(0x000, false));
  EXPECT_FALSE(c.Access(0x080, false));
}

TEST(CacheTest, DirtyWritebackOnEviction) {
  Cache c(CacheConfig{"t", 256, 2, 4});
  c.Access(0x000, true);  // dirty
  c.Access(0x080, false);
  bool dirty = false;
  c.Access(0x100, false, &dirty);  // evicts 0x000 (LRU, dirty)
  EXPECT_TRUE(dirty);
  EXPECT_EQ(c.writebacks(), 1u);
}

TEST(CacheTest, InvalidateReportsDirty) {
  Cache c(CacheConfig{"t", 4096, 4, 4});
  c.Access(0x200, true);
  EXPECT_TRUE(c.Invalidate(0x200));
  EXPECT_FALSE(c.Probe(0x200));
  EXPECT_FALSE(c.Invalidate(0x200));
}

// Line arrays start as fresh zero pages: a cache built after another one
// was filled (dirty, pinned) and dropped must start empty, cold and clean.
TEST(CacheTest, FreshCacheStartsEmptyAfterAnotherIsDropped) {
  const CacheConfig cfg{"l3", 8u << 20, 16, 40};
  const uint64_t lines = (8u << 20) / kLineSize;
  {
    Cache used(cfg);
    used.PinRange(0, 64 * lines);
    for (uint64_t i = 0; i < lines; i++) {
      used.Access(i * kLineSize, true);
    }
    ASSERT_TRUE(used.Probe(0));
  }
  Cache c(cfg);
  EXPECT_EQ(c.num_lines(), lines);
  for (uint64_t i = 0; i < lines; i += 4099) {
    EXPECT_FALSE(c.Probe(i * kLineSize));
  }
  bool evicted_dirty = true;
  EXPECT_FALSE(c.Access(0, false, &evicted_dirty));
  EXPECT_FALSE(evicted_dirty);
  EXPECT_TRUE(c.Access(0, false));
  EXPECT_FALSE(c.Invalidate(0));  // the refill was clean
  EXPECT_EQ(c.misses(), 1u);
  EXPECT_EQ(c.writebacks(), 0u);
  EXPECT_EQ(c.bypasses(), 0u);
}

TEST(CachePinTest, PinnedLinesSurviveThrash) {
  // 2-way, 2-set cache; pin one line and thrash its set with conflicting
  // unpinned fills: the pinned line must stay resident (§4 partitioning).
  Cache c(CacheConfig{"t", 256, 2, 4});
  c.PinRange(0x000, 64);
  c.Access(0x000, false);  // pinned fill
  for (int i = 1; i <= 20; i++) {
    c.Access(static_cast<Addr>(i) * 0x80, false);  // same set, unpinned
  }
  EXPECT_TRUE(c.Probe(0x000));
  EXPECT_EQ(c.bypasses(), 0u);  // one way was always left for unpinned data
}

TEST(CachePinTest, FullyPinnedSetBypassesUnpinnedFills) {
  Cache c(CacheConfig{"t", 256, 2, 4});
  c.PinRange(0x000, 0x200);
  c.Access(0x000, false);  // pinned, set 0 way 0
  c.Access(0x100, false);  // pinned, set 0 way 1
  c.Access(0x280, false);  // unpinned... maps to set 2? 0x280/64=10, 10%2=0 -> set 0
  EXPECT_GT(c.bypasses(), 0u);
  EXPECT_FALSE(c.Probe(0x280));
  EXPECT_TRUE(c.Probe(0x000));
  EXPECT_TRUE(c.Probe(0x100));
}

TEST(CachePinTest, PinnedFillMayReplacePinnedLine) {
  Cache c(CacheConfig{"t", 256, 2, 4});
  c.PinRange(0x000, 0x1000);
  c.Access(0x000, false);
  c.Access(0x100, false);
  c.Access(0x200, false);  // pinned fill evicts the LRU pinned line
  EXPECT_TRUE(c.Probe(0x200));
  EXPECT_FALSE(c.Probe(0x000));
}

TEST(CachePinTest, ClearPinsRestoresNormalEviction) {
  Cache c(CacheConfig{"t", 256, 2, 4});
  c.PinRange(0x000, 64);
  c.Access(0x000, false);
  c.ClearPins();
  // New fills are unpinned, but the already-pinned line keeps its flag until
  // invalidated — documented behavior.
  c.InvalidateAll();
  c.Access(0x000, false);
  c.Access(0x080, false);
  c.Access(0x100, false);
  EXPECT_FALSE(c.Probe(0x000));  // normal LRU eviction again
}

class MemorySystemTest : public ::testing::Test {
 protected:
  MemorySystemTest() : sim_(3.0), mem_(sim_, MemConfig{}, 2) {}
  Simulation sim_;
  MemorySystem mem_;
};

TEST_F(MemorySystemTest, LatencyTiersStack) {
  const MemConfig& cfg = mem_.config();
  // Cold: L1 + L2 + L3 + DRAM.
  const Tick cold = mem_.AccessLatency(0, 0x10000, false, false);
  EXPECT_EQ(cold, cfg.l1d.hit_latency + cfg.l2.hit_latency + cfg.l3.hit_latency +
                      cfg.dram_latency);
  // Warm: L1 hit.
  EXPECT_EQ(mem_.AccessLatency(0, 0x10000, false, false), cfg.l1d.hit_latency);
  // Other core: private miss, shared L3 hit.
  EXPECT_EQ(mem_.AccessLatency(1, 0x10000, false, false),
            cfg.l1d.hit_latency + cfg.l2.hit_latency + cfg.l3.hit_latency);
}

TEST_F(MemorySystemTest, ReadWriteFunctional) {
  uint64_t v = 0;
  mem_.Write(0, 0x3000, 8, 0xdeadbeefcafef00dull);
  mem_.Read(0, 0x3000, 8, &v);
  EXPECT_EQ(v, 0xdeadbeefcafef00dull);
}

TEST_F(MemorySystemTest, CrossCoreWriteInvalidates) {
  uint64_t v = 0;
  mem_.Read(1, 0x4000, 8, &v);                      // core 1 caches the line
  EXPECT_EQ(mem_.AccessLatency(1, 0x4000, false, false), mem_.config().l1d.hit_latency);
  mem_.Write(0, 0x4000, 8, 7);                      // core 0 writes -> invalidate core 1
  const Tick lat = mem_.AccessLatency(1, 0x4000, false, false);
  EXPECT_GT(lat, mem_.config().l1d.hit_latency);
  mem_.Read(1, 0x4000, 8, &v);
  EXPECT_EQ(v, 7u);
}

TEST_F(MemorySystemTest, DmaWritesMemoryAndInvalidates) {
  uint64_t v = 0;
  mem_.Read(0, 0x5000, 8, &v);  // warm core 0
  const uint8_t payload[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  mem_.DmaWrite(0x5000, payload, sizeof(payload));
  mem_.Read(0, 0x5000, 1, &v);
  EXPECT_EQ(v, 1u);
  mem_.Read(0, 0x500f, 1, &v);
  EXPECT_EQ(v, 16u);
}

TEST_F(MemorySystemTest, DmaAllocatesIntoL3) {
  const uint8_t b = 9;
  mem_.DmaWrite(0x9000, &b, 1);
  // DDIO: the line should now be an L3 hit (L1+L2 miss).
  const MemConfig& cfg = mem_.config();
  EXPECT_EQ(mem_.AccessLatency(0, 0x9000, false, false),
            cfg.l1d.hit_latency + cfg.l2.hit_latency + cfg.l3.hit_latency);
}

class TestMmioDevice : public MmioDevice {
 public:
  uint64_t MmioRead(Addr offset, size_t) override { return 0x100 + offset; }
  void MmioWrite(Addr offset, size_t, uint64_t value) override {
    last_offset = offset;
    last_value = value;
  }
  Addr last_offset = 0;
  uint64_t last_value = 0;
};

TEST_F(MemorySystemTest, MmioDispatch) {
  TestMmioDevice dev;
  mem_.RegisterMmio(0xf000000, 0x1000, &dev);
  uint64_t v = 0;
  const Tick rlat = mem_.Read(0, 0xf000010, 8, &v);
  EXPECT_EQ(v, 0x110u);
  EXPECT_EQ(rlat, mem_.config().mmio_latency);
  mem_.Write(0, 0xf000020, 4, 42);
  EXPECT_EQ(dev.last_offset, 0x20u);
  EXPECT_EQ(dev.last_value, 42u);
}

TEST_F(MemorySystemTest, BulkLatencyScalesWithBytes) {
  const MemConfig& cfg = mem_.config();
  // 272 B of register state over a 32 B link: 9 beats.
  EXPECT_EQ(mem_.BulkLatency(MemLevel::kL2, 272), cfg.l2.hit_latency + 9);
  EXPECT_EQ(mem_.BulkLatency(MemLevel::kL3, 784), cfg.l3.hit_latency + 25);
  EXPECT_GT(mem_.BulkLatency(MemLevel::kDram, 272), mem_.BulkLatency(MemLevel::kL3, 272));
}

class MonitorFilterTest : public ::testing::Test {
 protected:
  MonitorFilterTest() : filter_(MonitorFilterConfig{}, stats_) {
    filter_.SetWakeHandler([this](Ptid p, Addr line) { wakes_.push_back({p, line}); });
  }
  StatsRegistry stats_;
  MonitorFilter filter_;
  std::vector<std::pair<Ptid, Addr>> wakes_;
};

TEST_F(MonitorFilterTest, WakesWaitingThreadOnWrite) {
  ASSERT_TRUE(filter_.AddWatch(3, 0x1000));
  filter_.SetWaiting(3, true);
  filter_.OnWrite(0x1008, 8);  // same line
  ASSERT_EQ(wakes_.size(), 1u);
  EXPECT_EQ(wakes_[0].first, 3u);
  EXPECT_EQ(wakes_[0].second, 0x1000u);
}

TEST_F(MonitorFilterTest, NoWakeWhenNotWaitingButPendingRecorded) {
  ASSERT_TRUE(filter_.AddWatch(3, 0x1000));
  filter_.OnWrite(0x1000, 8);
  EXPECT_TRUE(wakes_.empty());
  EXPECT_TRUE(filter_.ConsumePending(3));   // mwait would return immediately
  EXPECT_FALSE(filter_.ConsumePending(3));  // consumed
}

TEST_F(MonitorFilterTest, UnrelatedLineDoesNotWake) {
  ASSERT_TRUE(filter_.AddWatch(3, 0x1000));
  filter_.SetWaiting(3, true);
  filter_.OnWrite(0x2000, 8);
  EXPECT_TRUE(wakes_.empty());
}

TEST_F(MonitorFilterTest, MultipleWatchesPerThread) {
  ASSERT_TRUE(filter_.AddWatch(7, 0x1000));
  ASSERT_TRUE(filter_.AddWatch(7, 0x2000));
  filter_.SetWaiting(7, true);
  filter_.OnWrite(0x2000, 1);
  ASSERT_EQ(wakes_.size(), 1u);
  EXPECT_EQ(wakes_[0].second, 0x2000u);
}

TEST_F(MonitorFilterTest, WakeFiresOnceForBackToBackWrites) {
  ASSERT_TRUE(filter_.AddWatch(3, 0x1000));
  filter_.SetWaiting(3, true);
  filter_.OnWrite(0x1000, 8);
  filter_.OnWrite(0x1000, 8);
  EXPECT_EQ(wakes_.size(), 1u);
}

TEST_F(MonitorFilterTest, PerThreadCapacityEnforced) {
  MonitorFilterConfig cfg;
  cfg.max_watches_per_thread = 2;
  MonitorFilter f(cfg, stats_);
  EXPECT_TRUE(f.AddWatch(1, 0x0));
  EXPECT_TRUE(f.AddWatch(1, 0x40));
  EXPECT_FALSE(f.AddWatch(1, 0x80));
  EXPECT_EQ(stats_.GetCounter("monitor.overflows"), 1u);
}

TEST_F(MonitorFilterTest, GlobalCapacityEnforced) {
  MonitorFilterConfig cfg;
  cfg.max_watch_lines = 2;
  MonitorFilter f(cfg, stats_);
  EXPECT_TRUE(f.AddWatch(1, 0x0));
  EXPECT_TRUE(f.AddWatch(2, 0x40));
  EXPECT_FALSE(f.AddWatch(3, 0x80));
  // Re-watching an already-tracked line still succeeds.
  EXPECT_TRUE(f.AddWatch(3, 0x40));
}

TEST_F(MonitorFilterTest, ClearWatchesStopsWakes) {
  ASSERT_TRUE(filter_.AddWatch(3, 0x1000));
  filter_.ClearWatches(3);
  filter_.SetWaiting(3, true);
  filter_.OnWrite(0x1000, 8);
  EXPECT_TRUE(wakes_.empty());
  EXPECT_EQ(filter_.WatchedLineCount(), 0u);
}

TEST_F(MonitorFilterTest, MultiLineWriteTriggersAllSpannedLines) {
  ASSERT_TRUE(filter_.AddWatch(1, 0x1000));
  ASSERT_TRUE(filter_.AddWatch(2, 0x1040));
  filter_.SetWaiting(1, true);
  filter_.SetWaiting(2, true);
  filter_.OnWrite(0x1030, 32);  // spans both lines
  EXPECT_EQ(wakes_.size(), 2u);
}

TEST_F(MonitorFilterTest, WriteEndingAtAddressSpaceTopTerminatesAndWakes) {
  // Regression: a write whose last byte is the final address used to wrap the
  // `line <= last` iterator (line + kLineSize overflows to 0) and spin
  // forever. The last line must trigger exactly once and the loop must exit.
  const Addr kLastLine = LineBase(std::numeric_limits<Addr>::max());
  ASSERT_TRUE(filter_.AddWatch(3, kLastLine));
  filter_.SetWaiting(3, true);
  filter_.OnWrite(std::numeric_limits<Addr>::max() - 7, 8);
  ASSERT_EQ(wakes_.size(), 1u);
  EXPECT_EQ(wakes_[0].second, kLastLine);
}

TEST_F(MonitorFilterTest, OversizedWriteClampsToAddressSpaceTop) {
  // Regression: addr + len - 1 overflowing Addr made the spanned-line range
  // empty, so watched lines near the top were silently skipped. The span must
  // clamp to the top of the address space and trigger every covered line.
  const Addr kLastLine = LineBase(std::numeric_limits<Addr>::max());
  ASSERT_TRUE(filter_.AddWatch(1, kLastLine - kLineSize));
  ASSERT_TRUE(filter_.AddWatch(2, kLastLine));
  filter_.SetWaiting(1, true);
  filter_.SetWaiting(2, true);
  filter_.OnWrite(kLastLine - kLineSize, 0x100);  // end wraps past the top
  EXPECT_EQ(wakes_.size(), 2u);
}

TEST_F(MonitorFilterTest, ZeroLengthWriteTouchesOnlyItsBaseLine) {
  ASSERT_TRUE(filter_.AddWatch(3, 0x1000));
  ASSERT_TRUE(filter_.AddWatch(4, 0x1040));
  filter_.SetWaiting(3, true);
  filter_.SetWaiting(4, true);
  filter_.OnWrite(0x1000, 0);
  ASSERT_EQ(wakes_.size(), 1u);
  EXPECT_EQ(wakes_[0].first, 3u);
}

TEST_F(MonitorFilterTest, RejectedWatchLeavesNoThreadState) {
  // Regression: AddWatch default-created the per-thread entry before checking
  // capacity, so every rejected ptid left a stale ThreadState behind that
  // ClearWatches never reclaimed.
  MonitorFilterConfig cfg;
  cfg.max_watch_lines = 1;
  MonitorFilter f(cfg, stats_);
  ASSERT_TRUE(f.AddWatch(1, 0x0));
  EXPECT_FALSE(f.AddWatch(2, 0x40));  // global capacity hit
  EXPECT_EQ(f.TrackedThreadCount(), 1u);
  // The rejected ptid also has no phantom pending event.
  EXPECT_FALSE(f.ConsumePending(2));
}

TEST_F(MonitorFilterTest, ZeroPerThreadCapacityTracksNothing) {
  MonitorFilterConfig cfg;
  cfg.max_watches_per_thread = 0;
  MonitorFilter f(cfg, stats_);
  EXPECT_FALSE(f.AddWatch(1, 0x0));
  EXPECT_EQ(f.TrackedThreadCount(), 0u);
  EXPECT_EQ(stats_.GetCounter("monitor.overflows"), 1u);
}

TEST_F(MonitorFilterTest, UnwatchedWriteNeverTriggers) {
  // The summary filter short-circuits writes to unwatched lines; a watched
  // line must still count a trigger.
  ASSERT_TRUE(filter_.AddWatch(1, 0x1000));
  filter_.OnWrite(0x40000, 8);
  EXPECT_EQ(stats_.GetCounter("monitor.triggers"), 0u);
  filter_.OnWrite(0x1000, 8);
  EXPECT_EQ(stats_.GetCounter("monitor.triggers"), 1u);
}

TEST_F(MonitorFilterTest, SummaryCountsWatchersClearOfOneKeepsOtherLive) {
  // Two ptids watch the same line. Clearing one must not zero the summary
  // slot (it counts distinct watched lines, not watchers): the write still
  // wakes the remaining watcher.
  ASSERT_TRUE(filter_.AddWatch(1, 0x1000));
  ASSERT_TRUE(filter_.AddWatch(2, 0x1000));
  filter_.ClearWatches(1);
  filter_.SetWaiting(2, true);
  filter_.OnWrite(0x1000, 8);
  ASSERT_EQ(wakes_.size(), 1u);
  EXPECT_EQ(wakes_[0].first, 2u);
  // Clearing the last watcher releases the line entirely.
  filter_.ClearWatches(2);
  ASSERT_TRUE(filter_.AddWatch(3, 0x9000));  // keeps the watcher map non-empty
  filter_.OnWrite(0x1000, 8);
  EXPECT_EQ(stats_.GetCounter("monitor.triggers"), 1u);
}

TEST_F(MonitorFilterTest, RewatchAfterClearStillWakes) {
  ASSERT_TRUE(filter_.AddWatch(1, 0x1000));
  filter_.ClearWatches(1);
  ASSERT_TRUE(filter_.AddWatch(1, 0x1000));
  filter_.SetWaiting(1, true);
  filter_.OnWrite(0x1000, 8);
  ASSERT_EQ(wakes_.size(), 1u);
  EXPECT_EQ(wakes_[0].first, 1u);
}

// Regression (found by casc_fuzz via tests/corpus/monitor_wrap.casm): a
// write whose last byte is the top of the address space made `addr + len`
// wrap to 0, so the `line <= last` invalidation loops in InvalidateForWrite
// and DmaWrite never terminated. The clamp must keep the walk on the final
// line; monitors there must still fire.
TEST_F(MonitorFilterTest, MemorySystemWriteEndingAtTopTerminatesAndWakes) {
  Simulation sim;
  MemorySystem mem(sim, MemConfig{}, 2);
  std::vector<Ptid> woken;
  mem.monitors().SetWakeHandler([&](Ptid p, Addr) { woken.push_back(p); });
  const Addr top_line = std::numeric_limits<Addr>::max() - (kLineSize - 1);
  ASSERT_TRUE(mem.monitors().AddWatch(3, top_line));
  mem.monitors().SetWaiting(3, true);
  // CPU-side store: 8 bytes ending exactly at Addr max.
  mem.Write(0, std::numeric_limits<Addr>::max() - 7, 8, 0xdeadbeef);
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], 3u);
  uint64_t out = 0;
  mem.Read(0, std::numeric_limits<Addr>::max() - 7, 8, &out);
  EXPECT_EQ(out, 0xdeadbeefu);
}

TEST_F(MonitorFilterTest, DmaWriteEndingAtTopTerminatesAndWakes) {
  Simulation sim;
  MemorySystem mem(sim, MemConfig{}, 2);
  std::vector<Ptid> woken;
  mem.monitors().SetWakeHandler([&](Ptid p, Addr) { woken.push_back(p); });
  const Addr top_line = std::numeric_limits<Addr>::max() - (kLineSize - 1);
  ASSERT_TRUE(mem.monitors().AddWatch(5, top_line));
  mem.monitors().SetWaiting(5, true);
  const uint16_t tail = 0xbeef;
  mem.DmaWrite(std::numeric_limits<Addr>::max() - 1, &tail, 2);
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], 5u);
}

TEST_F(MonitorFilterTest, DmaWriteThroughMemorySystemWakes) {
  Simulation sim;
  MemorySystem mem(sim, MemConfig{}, 1);
  std::vector<Ptid> woken;
  mem.monitors().SetWakeHandler([&](Ptid p, Addr) { woken.push_back(p); });
  ASSERT_TRUE(mem.monitors().AddWatch(9, 0x8000));
  mem.monitors().SetWaiting(9, true);
  const uint64_t pkt = 0x1234;
  mem.DmaWrite(0x8000, &pkt, 8);
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], 9u);
}

}  // namespace
}  // namespace casc
