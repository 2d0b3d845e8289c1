#include "src/runtime/kscheduler.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace casc {

KernelScheduler::KernelScheduler(Machine& machine, CoreId core, uint32_t local_slot,
                                 const SchedulerConfig& config)
    : machine_(machine),
      core_(core),
      local_slot_(local_slot),
      config_(config),
      placements_(machine.sim().stats().Intern("runtime.sched.placements")),
      migrations_(machine.sim().stats().Intern("runtime.sched.migrations")) {}

void KernelScheduler::AddWorkerPool(CoreId core, uint32_t first_local, uint32_t count) {
  Pool pool;
  pool.core = core;
  for (uint32_t i = 0; i < count; i++) {
    pool.slots.push_back(machine_.threads().PtidOf(core, first_local + i));
  }
  pools_.push_back(std::move(pool));
}

uint64_t KernelScheduler::Submit(Addr pc, uint64_t a0, uint64_t a1, uint64_t prio) {
  SoftThreadInfo st;
  st.id = softs_.size();
  st.pc = pc;
  st.a0 = a0;
  st.a1 = a1;
  st.prio = prio;
  softs_.push_back(st);
  pending_.push_back(st.id);
  doorbell_seq_++;
  machine_.mem().DmaWrite64(config_.submit_doorbell, doorbell_seq_);
  return st.id;
}

SyscallHandler KernelScheduler::SpawnHandler() {
  return [this](GuestContext& ctx, const SyscallRequest& req, uint64_t* ret) -> GuestTask {
    // Shard-safety guard: this handler mutates host-side scheduler state
    // (softs_/pending_/doorbell_seq_) from a ring-worker guest coroutine.
    // On the sharded engine that is only sound if the worker runs on the
    // scheduler's core (same shard): from another core the mutation would
    // land mid-window without the cross-shard hop, so its effect would
    // depend on the order shards run in rather than on simulated time. A
    // cross-core install is refused.
    if (machine_.threads().CoreOf(ctx.ptid()) != core_) {
      std::fprintf(stderr,
                   "KernelScheduler::SpawnHandler: refused spawn from core %u; the handler's "
                   "RingServer must be installed on the scheduler's core %u\n",
                   machine_.threads().CoreOf(ctx.ptid()), core_);
      *ret = kSchedSpawnRefused;
      co_return;
    }
    SoftThreadInfo st;
    st.id = softs_.size();
    st.pc = req.a0;
    st.a0 = req.a1;
    st.a1 = 0;
    st.prio = req.a2 != 0 ? req.a2 : 1;
    softs_.push_back(st);
    pending_.push_back(st.id);
    doorbell_seq_++;
    // A plain store, not DMA: the ring worker is a guest thread, so the
    // doorbell write takes the timed CPU path and wakes the scheduler.
    co_await ctx.Store(config_.submit_doorbell, doorbell_seq_);
    *ret = st.id;
  };
}

Ptid KernelScheduler::LocationOf(uint64_t soft_id) const {
  return soft_id < softs_.size() ? softs_[soft_id].location : kInvalidPtid;
}

int KernelScheduler::PoolIndexOf(Ptid ptid) const {
  for (size_t i = 0; i < pools_.size(); i++) {
    for (Ptid p : pools_[i].slots) {
      if (p == ptid) {
        return static_cast<int>(i);
      }
    }
  }
  return -1;
}

Ptid KernelScheduler::FindFreeSlot() {
  // Least-loaded pool first (locality-aware placement would refine this).
  Ptid best = kInvalidPtid;
  size_t best_load = SIZE_MAX;
  for (const Pool& pool : pools_) {
    size_t load = 0;
    Ptid free_slot = kInvalidPtid;
    for (Ptid p : pool.slots) {
      bool occupied = false;
      for (const SoftThreadInfo& st : softs_) {
        if (st.location == p) {
          occupied = true;
          break;
        }
      }
      if (occupied) {
        load++;
      } else if (free_slot == kInvalidPtid) {
        free_slot = p;
      }
    }
    if (free_slot != kInvalidPtid && load < best_load) {
      best_load = load;
      best = free_slot;
    }
  }
  return best;
}

void KernelScheduler::Install() {
  sched_ptid_ = machine_.BindNative(
      core_, local_slot_, [this](GuestContext& ctx) -> GuestTask { return Run(ctx); },
      /*supervisor=*/true);
  // Schedulers are critical: pin the context near the pipeline.
  machine_.threads().thread(sched_ptid_).set_pinned(true);
  machine_.Start(sched_ptid_);
}

GuestTask KernelScheduler::Place(GuestContext& ctx, SoftThreadInfo* st, Ptid slot) {
  // Seed the hardware thread's registers and priority, then start it. Each
  // rpush is a real instruction with real cost.
  co_await ctx.Rpush(slot, static_cast<uint32_t>(RemoteReg::kPc), st->pc);
  co_await ctx.Rpush(slot, 10, st->a0);
  co_await ctx.Rpush(slot, 11, st->a1);
  co_await ctx.Rpush(slot, static_cast<uint32_t>(RemoteReg::kPrio), st->prio);
  co_await ctx.Start(slot);
  st->location = slot;
  placements_++;
}

GuestTask KernelScheduler::Migrate(GuestContext& ctx, SoftThreadInfo* st, Ptid to) {
  const Ptid from = st->location;
  co_await ctx.Stop(from);
  // Move the full register image: 31 GPRs + pc + prio. This is the "swap a
  // software thread in and out" path the paper wants to make rare.
  for (uint32_t r = 1; r < kNumGprs; r++) {
    const uint64_t v = co_await ctx.Rpull(from, r);
    co_await ctx.Rpush(to, r, v);
  }
  const uint64_t pc = co_await ctx.Rpull(from, static_cast<uint32_t>(RemoteReg::kPc));
  co_await ctx.Rpush(to, static_cast<uint32_t>(RemoteReg::kPc), pc);
  const uint64_t prio = co_await ctx.Rpull(from, static_cast<uint32_t>(RemoteReg::kPrio));
  co_await ctx.Rpush(to, static_cast<uint32_t>(RemoteReg::kPrio), prio);
  co_await ctx.Start(to);
  st->location = to;
  migrations_++;
}

GuestTask KernelScheduler::Run(GuestContext& ctx) {
  co_await ctx.Monitor(config_.timer_counter);
  co_await ctx.Monitor(config_.submit_doorbell);
  for (;;) {
    // 1. Place pending software threads.
    while (!pending_.empty()) {
      const Ptid slot = FindFreeSlot();
      if (slot == kInvalidPtid) {
        break;  // all hardware threads busy; retry next tick
      }
      SoftThreadInfo* st = &softs_[pending_.front()];
      co_await ctx.Compute(30);  // placement decision
      co_await ctx.Call(Place(ctx, st, slot));
      pending_.pop_front();
    }
    // 2. Balance pools: migrate one image from the most- to the
    // least-loaded pool when the gap exceeds the threshold.
    if (pools_.size() > 1) {
      co_await ctx.Compute(40);  // survey cost
      std::vector<size_t> load(pools_.size(), 0);
      for (const SoftThreadInfo& st : softs_) {
        const int pi = st.location == kInvalidPtid ? -1 : PoolIndexOf(st.location);
        if (pi >= 0) {
          load[static_cast<size_t>(pi)]++;
        }
      }
      const size_t max_i = static_cast<size_t>(
          std::max_element(load.begin(), load.end()) - load.begin());
      const size_t min_i = static_cast<size_t>(
          std::min_element(load.begin(), load.end()) - load.begin());
      if (load[max_i] >= load[min_i] + config_.balance_threshold &&
          load[min_i] < pools_[min_i].slots.size()) {
        // Pick a victim in the overloaded pool and a free slot in the other.
        SoftThreadInfo* victim = nullptr;
        for (SoftThreadInfo& st : softs_) {
          if (st.location != kInvalidPtid &&
              PoolIndexOf(st.location) == static_cast<int>(max_i)) {
            victim = &st;
            break;
          }
        }
        Ptid dest = kInvalidPtid;
        for (Ptid p : pools_[min_i].slots) {
          bool occupied = false;
          for (const SoftThreadInfo& st : softs_) {
            if (st.location == p) {
              occupied = true;
              break;
            }
          }
          if (!occupied) {
            dest = p;
            break;
          }
        }
        if (victim != nullptr && dest != kInvalidPtid) {
          co_await ctx.Call(Migrate(ctx, victim, dest));
        }
      }
    }
    co_await ctx.Mwait();  // until the next timer tick or submission
  }
}

}  // namespace casc
