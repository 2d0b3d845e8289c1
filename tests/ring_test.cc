// Tests for the shared-ring syscall/IPC transport (DESIGN.md §4l): batched
// submit/collect round trips, full-ring backpressure, the completion
// overwrite guard, ticket wraparound at the 2^64 index max, the worker
// park/deep-park/scale-up policy (including the lost-wakeup regression), and
// bit-identical results at every host-thread count.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "src/cpu/machine.h"
#include "src/runtime/ring.h"

namespace casc {
namespace {

constexpr Addr kRingBase = 0x00400000;
constexpr Addr kFlagAddr = 0x00300000;

uint64_t Read64(Machine& m, Addr a) {
  uint8_t raw[8];
  m.mem().DmaRead(a, raw, sizeof(raw));
  uint64_t v = 0;
  std::memcpy(&v, raw, 8);
  return v;
}

// Handler used throughout: ret = a0 + a1 after `a2` cycles of compute, so
// tests can both check data integrity and skew per-request service times.
SyscallHandler AddHandler() {
  return [](GuestContext& ctx, const SyscallRequest& req, uint64_t* ret) -> GuestTask {
    if (req.a2 > 0) {
      co_await ctx.Compute(req.a2);
    }
    *ret = req.a0 + req.a1;
  };
}

TEST(RingTest, SingleCallRoundTrip) {
  Machine m;
  RingConfig cfg;
  cfg.entries = 8;
  cfg.num_workers = 2;
  cfg.name = "rt";
  RingServer server(m, 0, 0, kRingBase, cfg, AddHandler());
  server.Install();
  uint64_t ret = 0;
  const Ptid client = m.BindNative(
      0, 2,
      [&](GuestContext& ctx) -> GuestTask {
        co_await ctx.Call(RingCall(ctx, server.ring(), {.nr = 1, .a0 = 40, .a1 = 2}, &ret));
        co_await ctx.StopSelf();
      },
      /*supervisor=*/false);  // user mode: the transport needs no privilege
  m.Start(client);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(ret, 42u);
  EXPECT_EQ(server.served(), 1u);
}

TEST(RingTest, BatchCompletesOutOfOrderAndCollectsInOrder) {
  Machine m;
  RingConfig cfg;
  cfg.entries = 16;
  cfg.num_workers = 4;
  cfg.name = "batch";
  RingServer server(m, 0, 0, kRingBase, cfg, AddHandler());
  server.Install();
  constexpr uint32_t kN = 12;
  std::vector<SyscallRequest> reqs;
  for (uint64_t i = 0; i < kN; i++) {
    // Earlier tickets get *longer* service times, so with 4 workers the
    // completions post out of ticket order and RingCollect must reassemble.
    reqs.push_back({.nr = 1, .a0 = i, .a1 = 1000 + i, .a2 = (kN - i) * 500});
  }
  uint64_t rets[kN] = {};
  const Ptid client = m.BindNative(
      0, 4,
      [&](GuestContext& ctx) -> GuestTask {
        co_await ctx.Call(RingCallBatch(ctx, server.ring(), reqs.data(), kN, rets));
        co_await ctx.StopSelf();
      },
      false);
  m.Start(client);
  ASSERT_TRUE(m.RunToQuiescence());
  for (uint64_t i = 0; i < kN; i++) {
    EXPECT_EQ(rets[i], 1000 + 2 * i) << "ticket " << i;
  }
  EXPECT_EQ(server.served(), static_cast<uint64_t>(kN));
  // All four workers got a share (service skew guarantees overlap).
  uint64_t sum = 0;
  for (uint32_t w = 0; w < 4; w++) {
    sum += server.served_by(w);
  }
  EXPECT_EQ(sum, static_cast<uint64_t>(kN));
}

// Two full laps submitted before a single collect: the workers drain lap one
// into the completion ring, then stall on the overwrite guard — the CR slots
// still hold unconsumed lap-one completions — until the client consumes
// them. The submission side must also survive slot reuse (lap-two tickets
// overwrite lap-one descriptors only after their taken tags).
TEST(RingTest, FullRingBackpressureAndCompletionOverwriteGuard) {
  Machine m;
  RingConfig cfg;
  cfg.entries = 4;
  cfg.num_workers = 2;
  cfg.name = "guard";
  RingServer server(m, 0, 0, kRingBase, cfg, AddHandler());
  server.Install();
  constexpr uint32_t kN = 8;  // 2 * entries outstanding before any collect
  std::vector<SyscallRequest> reqs;
  for (uint64_t i = 0; i < kN; i++) {
    reqs.push_back({.nr = 1, .a0 = i, .a1 = 100, .a2 = 50});
  }
  uint64_t rets[kN] = {};
  const Ptid client = m.BindNative(
      0, 2,
      [&](GuestContext& ctx) -> GuestTask {
        uint64_t first = 0;
        co_await ctx.Call(RingSubmitBatch(ctx, server.ring(), reqs.data(), 4, &first));
        uint64_t second = 0;
        co_await ctx.Call(RingSubmitBatch(ctx, server.ring(), reqs.data() + 4, 4, &second));
        co_await ctx.Store(kFlagAddr, 1);
        co_await ctx.Compute(1000000);  // hold all 8 completions unconsumed
        co_await ctx.Call(RingCollect(ctx, server.ring(), first, kN, rets));
        co_await ctx.StopSelf();
      },
      false);
  m.Start(client);
  m.RunFor(300000);
  // Mid-flight invariant: both batches submitted, but only the first lap of
  // completions posted — the workers are parked on the overwrite guard.
  ASSERT_EQ(Read64(m, kFlagAddr), 1u);
  EXPECT_EQ(Read64(m, server.ring().sr_ticket()), 8u);
  EXPECT_EQ(Read64(m, server.ring().cr_head()), 4u) << "overwrite guard must hold lap two";
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(Read64(m, server.ring().cr_head()), 8u);
  for (uint64_t i = 0; i < kN; i++) {
    EXPECT_EQ(rets[i], i + 100) << "ticket " << i;
  }
}

// Tickets are u64 and the ring math must be continuous across the 2^64 wrap:
// InstallRing can seed the allocator just below the wrap, and a workload
// whose tickets straddle index max produces the same results as one starting
// at zero (slot indices stay `t mod entries`; tags stay exact equality).
TEST(RingTest, TicketWraparoundAtIndexMax) {
  auto run = [](uint64_t start_ticket) {
    Machine m;
    RingConfig cfg;
    cfg.entries = 8;
    cfg.num_workers = 2;
    cfg.name = "wrap";
    RingServer server(m, 0, 0, kRingBase, cfg, AddHandler());
    server.Install(start_ticket);
    std::vector<uint64_t> rets;
    const Ptid client = m.BindNative(
        0, 2,
        [&](GuestContext& ctx) -> GuestTask {
          for (uint64_t round = 0; round < 3; round++) {
            SyscallRequest reqs[6];
            uint64_t out[6] = {};
            for (uint64_t i = 0; i < 6; i++) {
              reqs[i] = {.nr = 1, .a0 = round * 10 + i, .a1 = 7, .a2 = 20};
            }
            co_await ctx.Call(RingCallBatch(ctx, server.ring(), reqs, 6, out));
            for (uint64_t i = 0; i < 6; i++) {
              rets.push_back(out[i]);
            }
          }
          co_await ctx.StopSelf();
        },
        false);
    m.Start(client);
    EXPECT_TRUE(m.RunToQuiescence());
    EXPECT_EQ(server.served(), 18u);
    return rets;
  };
  // 18 tickets from 2^64 - 9: the allocator and every slot index wrap.
  const auto wrapped = run(~uint64_t{0} - 8);
  const auto zero = run(0);
  EXPECT_EQ(wrapped, zero);
  ASSERT_EQ(wrapped.size(), 18u);
  EXPECT_EQ(wrapped[0], 7u);
  EXPECT_EQ(wrapped[17], 25u + 7u);  // round 2, i 5
}

// Park/wake regression (the PR-5 lost-wakeup shape): a trickle leaves the
// non-lead worker deep-parked (stopped), then a burst larger than the
// scale-up threshold arrives. The lead must keep serving — it never
// deep-parks — and must restart the sibling; nothing may hang even though
// the burst raced the sibling's StopSelf.
TEST(RingTest, DeepParkScaleUpAndNoLostWakeup) {
  Machine m;
  RingConfig cfg;
  cfg.entries = 16;
  cfg.num_workers = 2;
  cfg.name = "park";
  cfg.spin_polls = 2;
  cfg.park_rounds = 1;  // deep-park after one empty mwait wake
  cfg.scale_up_backlog = 3;
  RingServer server(m, 0, 0, kRingBase, cfg, AddHandler());
  server.Install();
  uint64_t burst_rets[12] = {};
  const Ptid client = m.BindNative(
      0, 2,
      [&](GuestContext& ctx) -> GuestTask {
        // Trickle: each call wakes both workers but only one wins the claim;
        // the loser's empty wakes push it past park_rounds into deep park.
        for (uint64_t i = 0; i < 6; i++) {
          uint64_t ret = 0;
          co_await ctx.Call(RingCall(ctx, server.ring(), {.nr = 1, .a0 = i, .a1 = 0}, &ret));
          co_await ctx.Compute(5000);
        }
        // Burst: backlog crosses scale_up_backlog, the lead restarts the
        // deep-parked sibling mid-burst.
        SyscallRequest reqs[12];
        for (uint64_t i = 0; i < 12; i++) {
          reqs[i] = {.nr = 1, .a0 = i, .a1 = 500, .a2 = 300};
        }
        co_await ctx.Call(RingCallBatch(ctx, server.ring(), reqs, 12, burst_rets));
        co_await ctx.StopSelf();
      },
      false);
  m.Start(client);
  ASSERT_TRUE(m.RunToQuiescence()) << "a lost wakeup would hang the burst";
  EXPECT_EQ(server.served(), 18u);
  EXPECT_GE(server.deep_parks(), 1u);
  EXPECT_GE(server.scale_wakes(), 1u);
  for (uint64_t i = 0; i < 12; i++) {
    EXPECT_EQ(burst_rets[i], i + 500);
  }
}

TEST(RingTest, ScaleDownWithDeepParkDisabledKeepsWorkersResident) {
  Machine m;
  RingConfig cfg;
  cfg.entries = 8;
  cfg.num_workers = 2;
  cfg.name = "nodeep";
  cfg.spin_polls = 1;
  cfg.park_rounds = 1;
  cfg.allow_deep_park = false;  // ablation: mwait-park only
  RingServer server(m, 0, 0, kRingBase, cfg, AddHandler());
  server.Install();
  const Ptid client = m.BindNative(
      0, 2,
      [&](GuestContext& ctx) -> GuestTask {
        for (uint64_t i = 0; i < 8; i++) {
          uint64_t ret = 0;
          co_await ctx.Call(RingCall(ctx, server.ring(), {.nr = 1, .a0 = i, .a1 = i}, &ret));
          co_await ctx.Compute(4000);
        }
        co_await ctx.StopSelf();
      },
      false);
  m.Start(client);
  ASSERT_TRUE(m.RunToQuiescence());
  EXPECT_EQ(server.served(), 8u);
  EXPECT_EQ(server.deep_parks(), 0u);
  EXPECT_EQ(server.scale_wakes(), 0u);
}

// The determinism contract (DESIGN.md §4l): all actors of a ring live on its
// home core, so under the sharded engine every ring is shard-local and the
// observable results — returns, stats, final clock — are bit-identical across
// runs and to the legacy engine. Four cores each run an independent ring
// workload.
struct RingSnapshot {
  Tick final_now = 0;
  std::vector<uint64_t> sums;
  std::string stats_json;
  bool quiesced = false;

  bool operator==(const RingSnapshot& o) const {
    return final_now == o.final_now && sums == o.sums && stats_json == o.stats_json &&
           quiesced == o.quiesced;
  }
};

RingSnapshot RunShardedRings(uint32_t host_threads) {
  constexpr uint32_t kCores = 4;
  MachineConfig mc;
  mc.num_cores = kCores;
  mc.hwt.threads_per_core = 8;
  mc.host_threads = host_threads;
  Machine m(mc);
  std::vector<std::unique_ptr<RingServer>> servers;
  for (uint32_t c = 0; c < kCores; c++) {
    RingConfig cfg;
    cfg.entries = 8;
    cfg.num_workers = 2;
    cfg.name = "c" + std::to_string(c);
    cfg.spin_polls = 2;
    cfg.park_rounds = 1;
    servers.push_back(std::make_unique<RingServer>(
        m, c, 0, kRingBase + static_cast<Addr>(c) * 0x10000, cfg, AddHandler()));
    servers[c]->Install();
  }
  std::vector<Ptid> clients;
  for (uint32_t c = 0; c < kCores; c++) {
    clients.push_back(m.BindNative(
        c, 2,
        [&, c](GuestContext& ctx) -> GuestTask {
          uint64_t sum = 0;
          for (uint64_t round = 0; round < 4; round++) {
            SyscallRequest reqs[5];
            uint64_t rets[5] = {};
            for (uint64_t i = 0; i < 5; i++) {
              reqs[i] = {.nr = 1, .a0 = c * 100 + round * 10 + i, .a1 = i, .a2 = 40 * i};
            }
            co_await ctx.Call(RingCallBatch(ctx, servers[c]->ring(), reqs, 5, rets));
            for (uint64_t i = 0; i < 5; i++) {
              sum += rets[i];
            }
          }
          co_await ctx.Store(kFlagAddr + c * 0x100, sum);
          co_await ctx.StopSelf();
        },
        false));
  }
  for (Ptid p : clients) {
    m.Start(p);
  }
  RingSnapshot s;
  s.quiesced = m.RunToQuiescence();
  s.final_now = m.sim().now();
  for (uint32_t c = 0; c < kCores; c++) {
    s.sums.push_back(Read64(m, kFlagAddr + c * 0x100));
  }
  std::ostringstream os;
  m.sim().stats().DumpJson(os);
  s.stats_json = os.str();
  return s;
}

TEST(RingTest, ResultsIdenticalAcrossRunsAndEngines) {
  const RingSnapshot base = RunShardedRings(/*host_threads=*/1);
  EXPECT_TRUE(base.quiesced);
  for (uint32_t c = 0; c < 4; c++) {
    EXPECT_NE(base.sums[c], 0u) << "core " << c;
  }
  for (uint32_t ht : {1u, 0u}) {
    EXPECT_EQ(RunShardedRings(ht), base) << "host_threads=" << ht;
  }
}

}  // namespace
}  // namespace casc
