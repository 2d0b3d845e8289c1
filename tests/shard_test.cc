// Tests for the sharded engine (DESIGN.md §4i): cross-shard start/stop,
// monitor invalidation across shards, clock normalization, tracer merging,
// and the headline claim — observable simulation results are a pure function
// of (program, seed, config): two runs are bit-identical, and a single-core
// sharded machine matches the legacy engine exactly.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/cpu/machine.h"
#include "src/hwt/tracer.h"

namespace casc {
namespace {

constexpr Addr FlagAddr(uint32_t c) { return 0x200000 + 0x100 * c; }
constexpr Addr SlotAddr(uint32_t c) { return 0x300000 + 0x100 * c; }

uint64_t Read64(Machine& m, Addr a) {
  uint8_t raw[8];
  m.mem().DmaRead(a, raw, sizeof(raw));
  uint64_t v = 0;
  std::memcpy(&v, raw, 8);
  return v;
}

// Everything observable about a finished run. Two runs of the same workload
// must compare equal on all of it.
struct RunSnapshot {
  Tick final_now = 0;
  std::vector<uint64_t> insts;
  std::vector<uint64_t> slots;
  std::string stats_json;
  bool halted = false;
  bool quiesced = false;

  bool operator==(const RunSnapshot& o) const {
    return final_now == o.final_now && insts == o.insts && slots == o.slots &&
           stats_json == o.stats_json && halted == o.halted && quiesced == o.quiesced;
  }
};

RunSnapshot Snapshot(Machine& m, bool quiesced, uint32_t num_slots) {
  RunSnapshot s;
  s.final_now = m.sim().now();
  for (uint32_t c = 0; c < m.num_cores(); c++) {
    s.insts.push_back(m.core(c).instructions_retired());
  }
  for (uint32_t c = 0; c < num_slots; c++) {
    s.slots.push_back(Read64(m, SlotAddr(c)));
  }
  std::ostringstream os;
  m.sim().stats().DumpJson(os);
  s.stats_json = os.str();
  s.halted = m.halted();
  s.quiesced = quiesced;
  return s;
}

// A 4-core token ring: worker 0 starts workers 1..3 (cross-shard Start),
// then each round passes a token around the ring through per-core flag
// lines. Every flag line has exactly one writer (the predecessor) and one
// monitoring reader (the owner), so the program is data-race-free and its
// cross-shard traffic — remote starts, stores landing on lines watched by
// another shard's monitor filter, the wakes they trigger — is exactly the
// mailbox traffic the engine must deliver deterministically.
RunSnapshot RunTokenRing(uint32_t host_threads, uint64_t rounds) {
  constexpr uint32_t kCores = 4;
  MachineConfig cfg;
  cfg.num_cores = kCores;
  cfg.hwt.threads_per_core = 4;
  cfg.host_threads = host_threads;
  Machine m(cfg);

  std::vector<Ptid> workers(kCores);
  for (uint32_t c = 0; c < kCores; c++) {
    const uint32_t next = (c + 1) % kCores;
    workers[c] = m.BindNative(
        c, 0,
        [c, next, rounds](GuestContext& ctx) -> GuestTask {
          for (uint64_t k = 1; k <= rounds; k++) {
            if (c == 0) {
              // Initiator: send the token, then wait for it to come back.
              co_await ctx.Store(FlagAddr(1), k);
            }
            for (;;) {
              co_await ctx.Monitor(FlagAddr(c));
              const uint64_t v = co_await ctx.Load(FlagAddr(c));
              if (v >= k) {
                break;
              }
              co_await ctx.Mwait();
            }
            co_await ctx.Compute(11 + c);
            co_await ctx.Store(SlotAddr(c), k * 1000 + c);
            if (c != 0) {
              co_await ctx.Store(FlagAddr(next), k);
            }
          }
          co_await ctx.StopSelf();
        },
        /*supervisor=*/true);
  }
  // Guest-side cross-core starts: a booter on core 0 starts every other
  // worker through the cross-shard path (host-phase Start would be serial).
  const Ptid booter = m.BindNative(
      0, 1,
      [&workers](GuestContext& ctx) -> GuestTask {
        for (uint32_t c = 1; c < workers.size(); c++) {
          co_await ctx.Start(workers[c]);
        }
        co_await ctx.StopSelf();
      },
      /*supervisor=*/true);
  m.Start(booter);
  m.Start(workers[0]);
  const bool quiesced = m.RunToQuiescence();
  return Snapshot(m, quiesced, kCores);
}

TEST(ShardEngineTest, TokenRingIdenticalAcrossRuns) {
  const RunSnapshot base = RunTokenRing(/*host_threads=*/1, /*rounds=*/25);
  EXPECT_TRUE(base.quiesced);
  EXPECT_FALSE(base.halted);
  // Every worker completed all rounds.
  for (uint32_t c = 0; c < 4; c++) {
    EXPECT_EQ(base.slots[c], 25u * 1000 + c);
  }
  EXPECT_EQ(RunTokenRing(/*host_threads=*/1, 25), base);
}

TEST(ShardEngineTest, TokenRingFunctionallyMatchesLegacyEngine) {
  // The legacy engine charges no conservative-window hop on monitor wakes,
  // so timing may differ — but the architectural outcome (who ran, what was
  // written) must not.
  const RunSnapshot legacy = RunTokenRing(/*host_threads=*/0, /*rounds=*/25);
  const RunSnapshot sharded = RunTokenRing(/*host_threads=*/1, /*rounds=*/25);
  EXPECT_TRUE(legacy.quiesced);
  EXPECT_TRUE(sharded.quiesced);
  EXPECT_EQ(legacy.slots, sharded.slots);
  EXPECT_FALSE(sharded.halted);
}

TEST(ShardEngineTest, SingleCoreShardedMatchesLegacyExactly) {
  // With one shard there is no cross-shard traffic to re-time: the solo fast
  // path must reproduce the legacy engine's results bit-for-bit, stats and
  // clock included.
  auto run = [](uint32_t host_threads) {
    MachineConfig cfg;
    cfg.hwt.threads_per_core = 4;
    cfg.host_threads = host_threads;
    Machine m(cfg);
    std::vector<Ptid> ps;
    for (uint32_t t = 0; t < 2; t++) {
      ps.push_back(m.BindNative(
          0, t,
          [t](GuestContext& ctx) -> GuestTask {
            for (uint64_t k = 0; k < 300; k++) {
              co_await ctx.Compute(1 + (k % 7));
              co_await ctx.Store(SlotAddr(t), k);
              co_await ctx.Load(SlotAddr(t));
            }
            co_await ctx.StopSelf();
          },
          /*supervisor=*/true));
    }
    for (Ptid p : ps) {
      m.Start(p);
    }
    const bool quiesced = m.RunToQuiescence();
    return Snapshot(m, quiesced, 2);
  };
  EXPECT_EQ(run(0), run(1));
}

TEST(ShardEngineTest, CrossShardStopIsDeterministic) {
  auto run = [] {
    MachineConfig cfg;
    cfg.num_cores = 2;
    cfg.host_threads = 1;
    Machine m(cfg);
    const Ptid spinner = m.BindNative(
        1, 0,
        [](GuestContext& ctx) -> GuestTask {
          for (;;) {
            const uint64_t v = co_await ctx.Load(SlotAddr(1));
            co_await ctx.Store(SlotAddr(1), v + 1);
          }
        },
        /*supervisor=*/true);
    const Ptid boss = m.BindNative(
        0, 0,
        [spinner](GuestContext& ctx) -> GuestTask {
          co_await ctx.Start(spinner);
          co_await ctx.Compute(5000);
          co_await ctx.Stop(spinner);
          co_await ctx.StopSelf();
        },
        /*supervisor=*/true);
    m.Start(boss);
    const bool quiesced = m.RunToQuiescence();
    return Snapshot(m, quiesced, 2);
  };
  const RunSnapshot base = run();
  EXPECT_TRUE(base.quiesced);
  EXPECT_GT(base.slots[1], 0u);  // the spinner made progress before the stop
  EXPECT_EQ(run(), base);
}

TEST(ShardEngineTest, RunForNormalizesEveryShardToTheLimit) {
  MachineConfig cfg;
  cfg.num_cores = 4;
  cfg.host_threads = 1;
  Machine m(cfg);
  const Tick start = m.sim().now();
  m.RunFor(12345);
  EXPECT_EQ(m.sim().now(), start + 12345);
  // All shards observe the same clock after normalization.
  for (uint32_t s = 0; s < m.sim().num_shards(); s++) {
    EXPECT_EQ(m.sim().QueueFor(s).now(), start + 12345);
  }
}

TEST(ShardEngineTest, TracerMergeIsDeterministicAcrossRuns) {
  auto trace = [] {
    MachineConfig cfg;
    cfg.num_cores = 2;
    cfg.host_threads = 1;
    Machine m(cfg);
    ThreadTracer tracer;
    m.threads().SetTracer(&tracer);
    std::vector<Ptid> ps;
    for (uint32_t c = 0; c < 2; c++) {
      ps.push_back(m.BindNative(
          c, 0,
          [c](GuestContext& ctx) -> GuestTask {
            for (int k = 0; k < 20; k++) {
              co_await ctx.Monitor(FlagAddr(c));
              co_await ctx.Compute(3 + c);
            }
            co_await ctx.StopSelf();
          },
          /*supervisor=*/true));
    }
    for (Ptid p : ps) {
      m.Start(p);
    }
    m.RunToQuiescence();
    std::vector<std::tuple<Tick, Ptid, TraceCause>> out;
    for (const ThreadTracer::Event& e : tracer.events()) {
      out.emplace_back(e.tick, e.ptid, e.cause);
    }
    return out;
  };
  const auto base = trace();
  EXPECT_FALSE(base.empty());
  // Merged view is tick-ordered and identical across runs.
  for (size_t i = 1; i < base.size(); i++) {
    EXPECT_LE(std::get<0>(base[i - 1]), std::get<0>(base[i]));
  }
  EXPECT_EQ(trace(), base);
}

TEST(ShardEngineTest, TooManyCoresFallBackToLegacyEngine) {
  MachineConfig cfg;
  cfg.num_cores = shard::kMaxShards + 1;
  cfg.hwt.threads_per_core = 1;
  cfg.host_threads = 1;
  Machine m(cfg);
  EXPECT_FALSE(m.sharded());
  m.RunFor(100);  // the legacy path still drives the machine
  EXPECT_EQ(m.sim().now(), 100u);
}

// host_threads names the engine: 0 legacy, 1 sharded. Any larger value
// aborts rather than silently running one of them, whether it is set on the
// config or through the process-wide default.
TEST(ShardEngineDeathTest, HostThreadsAboveOneAbort) {
  MachineConfig cfg;
  cfg.host_threads = 2;
  EXPECT_DEATH(Machine{cfg}, "host_threads 2 does not exist");
  EXPECT_DEATH(
      {
        SetDefaultHostThreads(4);
        Machine m;
      },
      "host_threads 4 does not exist");
}

}  // namespace
}  // namespace casc
