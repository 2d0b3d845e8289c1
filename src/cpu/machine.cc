#include "src/cpu/machine.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace casc {

namespace {
uint32_t g_default_host_threads = 0;
}  // namespace

void SetDefaultHostThreads(uint32_t n) { g_default_host_threads = n; }
uint32_t GetDefaultHostThreads() { return g_default_host_threads; }

bool HostThreadsFlagOk(uint64_t n) {
  if (n <= 1) {
    return true;
  }
  std::fprintf(stderr, "--host-threads must be 0 (legacy engine) or 1 (sharded engine)\n");
  return false;
}

Machine::Machine(const MachineConfig& config)
    : config_(config), sim_(config.ghz, config.seed) {
  uint32_t host_threads = config_.host_threads == MachineConfig::kHostThreadsDefault
                              ? GetDefaultHostThreads()
                              : config_.host_threads;
  if (host_threads > 1) {
    std::fprintf(stderr,
                 "Machine: host_threads %u does not exist (0 = legacy engine, 1 = sharded "
                 "engine)\n",
                 host_threads);
    std::abort();
  }
  if (config_.num_cores > shard::kMaxShards) {
    host_threads = 0;  // beyond the shard table: fall back to the legacy engine
  }
  if (host_threads == 1) {
    // Sharding must be enabled before anything schedules an event or
    // captures a queue pointer.
    sim_.EnableSharding(config_.num_cores);
    engine_ = std::make_unique<ShardEngine>(sim_, config_.num_cores, config_.cross_shard_hop);
    sim_.set_router(engine_.get());
  }
  mem_ = std::make_unique<MemorySystem>(sim_, config_.mem, config_.num_cores);
  if (engine_ != nullptr) {
    mem_->EnableSharding(engine_.get());
  }
  ts_ = std::make_unique<ThreadSystem>(sim_, *mem_, config_.hwt, config_.num_cores);
  if (engine_ != nullptr) {
    engine_->AddBarrierHook([this] { mem_->FlushWindow(); });
    engine_->AddBarrierHook([this] { ts_->MergeHaltProposals(); });
    engine_->SetHaltedFn([this] { return ts_->halted(); });
  }
  for (uint32_t c = 0; c < config_.num_cores; c++) {
    cores_.push_back(std::make_unique<Core>(sim_, *mem_, *ts_, c, config_.timings));
    Core* core = cores_.back().get();
    ts_->SetWakeHook(c, [core] { core->Kick(); });
  }
}

Ptid Machine::CheckedPtid(const char* caller, CoreId core, uint32_t local_thread) const {
  const uint32_t threads = ts_->config().threads_per_core;
  if (core >= num_cores() || local_thread >= threads) {
    std::fprintf(stderr, "%s: core %u thread %u is outside %u cores x %u threads\n", caller, core,
                 local_thread, num_cores(), threads);
    std::abort();
  }
  return ts_->PtidOf(core, local_thread);
}

Ptid Machine::Load(CoreId core, uint32_t local_thread, const Program& program, bool supervisor,
                   const std::string& entry, Addr edp) {
  const Ptid ptid = CheckedPtid("Load", core, local_thread);
  program.LoadInto(mem_->phys());
  // LoadInto writes physical memory directly (no MemorySystem::Write), so the
  // code-write listeners never saw it — drop all predecoded lines.
  for (auto& c : cores_) {
    c->InvalidatePredecodeAll();
  }
  const Addr pc = entry.empty() ? program.base : program.Symbol(entry);
  ts_->InitThread(ptid, pc, supervisor, edp);
  return ptid;
}

Ptid Machine::LoadSource(CoreId core, uint32_t local_thread, const std::string& source,
                         bool supervisor, const std::string& entry, Addr edp, Addr base) {
  CheckedPtid("LoadSource", core, local_thread);
  const AssembleResult result = Assembler::Assemble(source, base);
  if (!result.ok) {
    std::fprintf(stderr, "assembly failed: %s\n", result.error.c_str());
    std::abort();
  }
  return Load(core, local_thread, result.program, supervisor, entry, edp);
}

Ptid Machine::BindNative(CoreId core, uint32_t local_thread, NativeProgram program,
                         bool supervisor, Addr edp) {
  const Ptid ptid = CheckedPtid("BindNative", core, local_thread);
  cores_[core]->BindNative(ptid, std::move(program));
  ts_->InitThread(ptid, /*pc=*/0, supervisor, edp);
  return ptid;
}

void Machine::Start(Ptid ptid) { ts_->MakeRunnable(ptid); }

void Machine::SetHcallHandler(Core::HcallHandler handler) {
  for (auto& core : cores_) {
    core->SetHcallHandler(handler);
  }
}

void Machine::SetConcurrencyObserver(ConcurrencyObserver* observer) {
  ts_->SetConcurrencyObserver(observer);
  for (auto& core : cores_) {
    core->SetConcurrencyObserver(observer);
  }
}

void Machine::SetPredecodeEnabled(bool enabled) {
  for (auto& core : cores_) {
    core->set_predecode_enabled(enabled);
  }
}

void Machine::RunUntil(Tick tick) {
  if (engine_ != nullptr) {
    engine_->Advance(tick, std::numeric_limits<uint64_t>::max(), /*stop_on_halt=*/false,
                     /*normalize_to_limit=*/true);
    return;
  }
  sim_.queue().RunUntil(tick);
}

bool Machine::RunToQuiescence(uint64_t max_events) {
  if (engine_ != nullptr) {
    const uint64_t fired =
        engine_->Advance(std::numeric_limits<Tick>::max(), max_events, /*stop_on_halt=*/false,
                         /*normalize_to_limit=*/false);
    return fired < max_events;
  }
  const uint64_t fired = sim_.queue().RunAll(max_events);
  return fired < max_events;
}

bool Machine::DrainBudget(Tick limit) {
  if (engine_ != nullptr) {
    engine_->Advance(limit, std::numeric_limits<uint64_t>::max(), /*stop_on_halt=*/true,
                     /*normalize_to_limit=*/false);
    for (uint32_t s = 0; s < sim_.num_shards(); s++) {
      if (!sim_.QueueFor(s).Empty()) {
        return false;
      }
    }
    return true;
  }
  while (!ts_->halted() && sim_.queue().RunOneUntil(limit)) {
  }
  return sim_.queue().Empty();
}

}  // namespace casc
