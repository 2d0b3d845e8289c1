// The three workloads (perfbench/README.md explains why each exists). Every
// input — working-set walks, arrival times, service times, target clients —
// is generated here from the seed, so the simulator receives only the
// generated inputs. Machines use the MachineConfig a user gets by default;
// the only fields set are core and hardware-thread counts.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench.h"
#include "probe.h"
#include "src/cpu/machine.h"
#include "src/dev/fabric.h"
#include "src/dev/nic.h"
#include "src/runtime/ring.h"
#include "src/runtime/rpc.h"

namespace perfbench {

using casc::Addr;
using casc::GuestContext;
using casc::GuestTask;
using casc::Machine;
using casc::MachineConfig;
using casc::Ptid;
using casc::Tick;

namespace {

// --- shared helpers ----------------------------------------------------------

// The benchmark's own generator, independent of the simulator's Rng so a
// change to the program never changes the inputs.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : gen_(seed * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull) {}
  uint64_t Next() { return gen_(); }
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Exponential with the given mean, truncated to [1, max].
  Tick Exponential(double mean, Tick max) {
    const double v = -mean * std::log1p(-Unit());
    return std::clamp<Tick>(static_cast<Tick>(v + 0.5), 1, max);
  }

 private:
  std::mt19937_64 gen_;
};

// Poisson arrival offsets (cycles after the first arrival) for `n` requests.
std::vector<Tick> PoissonArrivals(InputRng& rng, size_t n, double mean_gap) {
  std::vector<Tick> at(n);
  Tick t = 0;
  for (size_t i = 0; i < n; i++) {
    at[i] = t;
    t += rng.Exponential(mean_gap, static_cast<Tick>(mean_gap * 40));
  }
  return at;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

uint64_t Counter(Machine& m, const std::string& name) { return m.sim().stats().GetCounter(name); }

uint64_t PerCore(Machine& m, const std::string& prefix, const std::string& suffix) {
  uint64_t total = 0;
  for (uint32_t c = 0; c < m.num_cores(); c++) {
    total += Counter(m, prefix + std::to_string(c) + suffix);
  }
  return total;
}

// Raw cumulative counters of every layer, read through public accessors.
struct Counters {
  std::map<std::string, uint64_t> v;
  uint64_t operator[](const std::string& k) const { return v.at(k); }
};

Counters Snapshot(Machine& m) {
  Counters c;
  uint64_t inst = 0, pd_hits = 0, pd_misses = 0, fused = 0;
  uint64_t l1d_h = 0, l1d_m = 0, l1i_h = 0, l1i_m = 0, l2_h = 0, l2_m = 0;
  for (uint32_t i = 0; i < m.num_cores(); i++) {
    inst += m.core(i).instructions_retired();
    pd_hits += m.core(i).predecode_hits();
    pd_misses += m.core(i).predecode_misses();
    fused += m.core(i).fused_pairs_total();
    l1d_h += m.mem().l1d(i).hits();
    l1d_m += m.mem().l1d(i).misses();
    l1i_h += m.mem().l1i(i).hits();
    l1i_m += m.mem().l1i(i).misses();
    l2_h += m.mem().l2(i).hits();
    l2_m += m.mem().l2(i).misses();
  }
  c.v = {
      {"cpu.instructions", inst},
      {"cpu.active_cycles", PerCore(m, "cpu.core", ".active_cycles")},
      {"cpu.idle_wakeups", PerCore(m, "cpu.core", ".idle_wakeups")},
      {"cpu.predecode_hits", pd_hits},
      {"cpu.predecode_misses", pd_misses},
      {"cpu.fused_pairs", fused},
      {"mem.reads", Counter(m, "mem.reads")},
      {"mem.writes", Counter(m, "mem.writes")},
      {"mem.fetches", Counter(m, "mem.fetches")},
      {"mem.dma_writes", Counter(m, "mem.dma_writes")},
      {"l1d.hits", l1d_h},
      {"l1d.misses", l1d_m},
      {"l1i.hits", l1i_h},
      {"l1i.misses", l1i_m},
      {"l2.hits", l2_h},
      {"l2.misses", l2_m},
      {"monitor.triggers", Counter(m, "monitor.triggers")},
      {"monitor.wakes", Counter(m, "monitor.wakes")},
      {"hwt.restores_rf", PerCore(m, "hwt.core", ".restores_rf")},
      {"hwt.restores_l2", PerCore(m, "hwt.core", ".restores_l2")},
      {"hwt.restores_l3", PerCore(m, "hwt.core", ".restores_l3")},
      {"hwt.restores_dram", PerCore(m, "hwt.core", ".restores_dram")},
      {"hwt.mwait_blocks", Counter(m, "hwt.mwait_blocks")},
      {"hwt.mwait_immediate", Counter(m, "hwt.mwait_immediate")},
      {"hwt.vtid_cache_hits", Counter(m, "hwt.vtid_cache_hits")},
      {"hwt.vtid_cache_misses", Counter(m, "hwt.vtid_cache_misses")},
      {"sim.events", m.sim().TotalEventsFired()},
  };
  return c;
}

// Fills the machine-wide part of a rep's result from counter snapshots taken
// around the timed region.
void FillMachine(Machine& m, const Counters& b, const Counters& a, Probe& probe, RepResult* r) {
  auto d = [&](const std::string& k) { return static_cast<double>(a[k] - b[k]); };
  r->cores = m.num_cores();
  r->instructions = a["cpu.instructions"] - b["cpu.instructions"];
  r->events = a["sim.events"] - b["sim.events"];
  r->engine = m.sharded() ? "sharded" : "legacy";
  r->host_threads = m.sharded() ? m.config().host_threads : 1;
  auto& L = r->layer;
  for (const char* k : {"cpu.instructions", "cpu.active_cycles", "cpu.idle_wakeups", "mem.reads",
                        "mem.writes", "mem.fetches", "mem.dma_writes", "hwt.restores_rf",
                        "hwt.restores_l2", "hwt.restores_l3", "hwt.restores_dram",
                        "hwt.mwait_blocks", "hwt.mwait_immediate", "sim.events"}) {
    L[k] = d(k);
  }
  L["mem.monitor.triggers"] = d("monitor.triggers");
  L["mem.monitor.wakes"] = d("monitor.wakes");
  L["mem.monitor.wakes_per_trigger"] = Ratio(d("monitor.wakes"), d("monitor.triggers"));
  L["cpu.predecode_hit_ratio"] =
      Ratio(d("cpu.predecode_hits"), d("cpu.predecode_hits") + d("cpu.predecode_misses"));
  L["cpu.fused_pair_rate"] = Ratio(2 * d("cpu.fused_pairs"), d("cpu.instructions"));
  L["mem.l1d.miss_ratio"] = Ratio(d("l1d.misses"), d("l1d.hits") + d("l1d.misses"));
  L["mem.l1i.miss_ratio"] = Ratio(d("l1i.misses"), d("l1i.hits") + d("l1i.misses"));
  L["mem.l2.miss_ratio"] = Ratio(d("l2.misses"), d("l2.hits") + d("l2.misses"));
  L["hwt.vtid_cache_hit_ratio"] =
      Ratio(d("hwt.vtid_cache_hits"), d("hwt.vtid_cache_hits") + d("hwt.vtid_cache_misses"));
  // Context-restore latency over the whole rep (the histogram is cumulative).
  casc::Histogram restore;
  for (uint32_t c = 0; c < m.num_cores(); c++) {
    if (const casc::Histogram* h =
            m.sim().stats().GetHist("hwt.core" + std::to_string(c) + ".restore_latency")) {
      restore.Merge(*h);
    }
  }
  L["hwt.restore_latency_p99_cycles"] = static_cast<double>(restore.P99());
  if (probe.traced()) {
    auto& T = r->traced_layer;
    std::vector<uint64_t> w2r = probe.capture()->wake_to_run();
    std::sort(w2r.begin(), w2r.end());
    T["hwt.wake_to_run_p99_cycles"] = static_cast<double>(Percentile(w2r, 0.99));
    T["sim.shard.rounds"] = static_cast<double>(probe.rounds());
  }
  std::sort(r->latencies.begin(), r->latencies.end());
}

// Fires `fn(i)` at base + offsets[i] for every i, one pending event at a time
// on shard 0's queue (the host side of a sharded machine).
class ArrivalChain {
 public:
  ArrivalChain(Machine& m, const std::vector<Tick>& offsets, std::function<void(size_t)> fn)
      : queue_(m.sim().QueueFor(0)), offsets_(offsets), fn_(std::move(fn)), event_([this] {
          fn_(next_++);
          if (next_ < offsets_.size()) {
            queue_.Schedule(&event_, base_ + offsets_[next_]);
          }
        }) {}
  ~ArrivalChain() {
    if (event_.scheduled()) {
      queue_.Deschedule(&event_);
    }
  }
  ArrivalChain(const ArrivalChain&) = delete;
  ArrivalChain& operator=(const ArrivalChain&) = delete;

  void Start(Tick base) {
    base_ = base;
    if (!offsets_.empty()) {
      queue_.Schedule(&event_, base_ + offsets_[0]);
    }
  }
  size_t fired() const { return next_; }

 private:
  casc::EventQueue& queue_;
  const std::vector<Tick>& offsets_;
  std::function<void(size_t)> fn_;
  casc::LambdaEvent<std::function<void()>> event_;
  Tick base_ = 0;
  size_t next_ = 0;
};

// Exactly-once reply bookkeeping shared by the two request workloads.
struct Replies {
  explicit Replies(size_t n) : seen(n, false) {}
  std::vector<bool> seen;
  std::vector<uint64_t> latencies;
  uint64_t verified = 0;
  Tick last = 0;
  std::vector<std::string> errors;

  // Records one observed reply to request `id`; `ok` says its value matched.
  void Observe(uint64_t id, bool ok, Tick sent, Tick now) {
    if (id >= seen.size()) {
      Fail("reply to unknown request " + std::to_string(id));
      return;
    }
    if (seen[id]) {
      Fail("duplicate reply to request " + std::to_string(id));
      return;
    }
    seen[id] = true;
    if (!ok) {
      Fail("wrong reply value for request " + std::to_string(id));
      return;
    }
    verified++;
    latencies.push_back(now - sent);
    last = std::max(last, now);
  }
  void Fail(std::string e) {
    if (errors.size() < 8) {
      errors.push_back(std::move(e));
    }
  }
  bool all() const { return verified == seen.size(); }
};

// Runs `m` in RunFor slices until `done()` or `limit`, with a span per slice.
void RunSlices(Machine& m, Probe& probe, Tick slice, Tick limit,
               const std::function<bool()>& done, const std::function<void()>& on_slice) {
  while (!done() && m.sim().now() < limit && !m.halted()) {
    {
      ScopedSpan span(probe.spans(), "RunFor", "sim");
      m.RunFor(std::min(slice, limit - m.sim().now()));
    }
    probe.OnSlice(m);
    on_slice();
  }
}

// --- interp_mix --------------------------------------------------------------

struct InterpInputs {
  static constexpr uint32_t kThreads = 4;
  static constexpr uint32_t kNodes = 3072;  // 16-byte nodes: 48 KiB per thread
  static constexpr uint32_t kJobs = 1024;
  static constexpr uint32_t kElemsPerJob = 256;
  static Addr Code(uint32_t t) { return 0x1000 + 0x1000 * static_cast<Addr>(t); }
  static Addr Data(uint32_t t) { return 0x100000 + 0x20000 * static_cast<Addr>(t); }
  static Addr Log(uint32_t t) { return 0x200000 + 0x4000 * static_cast<Addr>(t); }
  static Addr Csum(uint32_t t) { return 0x280000 + 64 * static_cast<Addr>(t); }

  // Per thread: next-node index and initial value of every node, the source,
  // and the checksum the host computes by running the same walk.
  std::vector<std::vector<uint32_t>> next;
  std::vector<std::vector<uint64_t>> value;
  std::vector<std::string> source;
  std::vector<uint64_t> checksum;
};

std::string InterpSource(uint32_t t) {
  using I = InterpInputs;
  auto n = [](uint64_t v) { return std::to_string(v); };
  // Register use: a0 node, a1 jobs left, a2 log cursor, a3 checksum,
  // a4 job start cycle, a5 nodes left in the job.
  return "  li a0, " + n(I::Data(t)) + "\n" +  //
         "  li a1, " + n(I::kJobs) + "\n" +    //
         "  li a2, " + n(I::Log(t)) + "\n" +   //
         "  li a3, 0\n"
         "job:\n"
         "  csrrd a4, cycle\n"
         "  li a5, " +
         n(I::kElemsPerJob) +
         "\n"
         "walk:\n"
         "  ld t0, 0(a0)\n"      // next node
         "  ld t1, 8(a0)\n"      // value   } load+ALU pair
         "  add a3, a3, t1\n"    //         }
         "  addi t1, t1, 1\n"    // addi+store pair: write the value back
         "  sd t1, 8(a0)\n"      //
         "  andi t2, t1, 1\n"    // data-dependent branch
         "  beq t2, r0, even\n"  //
         "  xor a3, a3, t0\n"
         "even:\n"
         "  mv a0, t0\n"
         "  addi a5, a5, -1\n"
         "  bne a5, r0, walk\n"
         "  csrrd t3, cycle\n"
         "  sub t3, t3, a4\n"
         "  sd t3, 0(a2)\n"  // job latency log
         "  addi a2, a2, 8\n"
         "  addi a1, a1, -1\n"
         "  bne a1, r0, job\n"
         "  li t4, " +
         n(I::Csum(t)) +
         "\n"
         "  sd a3, 0(t4)\n"
         "  halt\n";
}

std::shared_ptr<const InterpInputs> MakeInterpInputs(uint64_t seed) {
  using I = InterpInputs;
  InputRng rng(seed);
  auto in = std::make_shared<InterpInputs>();
  for (uint32_t t = 0; t < I::kThreads; t++) {
    // Sattolo's shuffle: one cycle through every node, in seeded order.
    std::vector<uint32_t> next(I::kNodes);
    for (uint32_t i = 0; i < I::kNodes; i++) {
      next[i] = i;
    }
    for (uint32_t i = I::kNodes - 1; i > 0; i--) {
      std::swap(next[i], next[rng.Below(i)]);
    }
    std::vector<uint64_t> value(I::kNodes);
    for (uint64_t& v : value) {
      v = rng.Next();
    }
    // Host reference of the guest walk.
    std::vector<uint64_t> mem = value;
    uint64_t node = 0, csum = 0;
    for (uint64_t e = 0; e < uint64_t{I::kJobs} * I::kElemsPerJob; e++) {
      const uint64_t nxt = next[node];
      csum += mem[node];
      mem[node]++;
      if (mem[node] & 1) {
        csum ^= I::Data(t) + 16 * nxt;
      }
      node = nxt;
    }
    in->next.push_back(std::move(next));
    in->value.push_back(std::move(value));
    in->source.push_back(InterpSource(t));
    in->checksum.push_back(csum);
  }
  return in;
}

class InterpMix final : public Workload {
 public:
  explicit InterpMix(std::shared_ptr<const InterpInputs> in) : in_(std::move(in)) {}

  void Setup(Probe& probe) override {
    using I = InterpInputs;
    {
      ScopedSpan span(probe.spans(), "Machine", "sim");
      m_ = std::make_unique<Machine>(MachineConfig{});
    }
    probe.Attach(*m_);
    casc::PhysicalMemory& phys = m_->mem().phys();
    for (uint32_t t = 0; t < I::kThreads; t++) {
      for (uint32_t i = 0; i < I::kNodes; i++) {
        const Addr node = I::Data(t) + 16 * static_cast<Addr>(i);
        phys.Write64(node, I::Data(t) + 16 * static_cast<Addr>(in_->next[t][i]));
        phys.Write64(node + 8, in_->value[t][i]);
      }
      Ptid p = 0;
      {
        ScopedSpan span(probe.spans(), "LoadSource", "isa");
        p = m_->LoadSource(0, t, in_->source[t], /*supervisor=*/true, "", 0, I::Code(t));
      }
      ptids_.push_back(p);
    }
    // Simulated caches start cold: the walk's first pass is 1/85 of the work.
  }

  void Run(Probe& probe) override {
    before_ = Snapshot(*m_);
    start_ = m_->sim().now();
    for (Ptid p : ptids_) {
      m_->Start(p);
    }
    bool quiet = false;
    while (!quiet && !m_->halted()) {
      {
        ScopedSpan span(probe.spans(), "DrainBudget", "sim");
        quiet = m_->DrainBudget(m_->sim().now() + kSlice);
      }
      probe.OnSlice(*m_);
    }
  }

  void Collect(Probe& probe, RepResult* r) override {
    using I = InterpInputs;
    const Counters after = Snapshot(*m_);
    r->sim_cycles = m_->sim().now() - start_;
    casc::PhysicalMemory& phys = m_->mem().phys();
    for (uint32_t t = 0; t < I::kThreads; t++) {
      r->attempted += I::kJobs;
      const uint64_t got = phys.Read64(I::Csum(t));
      bool ok = got == in_->checksum[t];
      if (!ok) {
        r->errors.push_back("interp_mix thread " + std::to_string(t) + " checksum " +
                            std::to_string(got) + " != host " +
                            std::to_string(in_->checksum[t]));
      }
      std::vector<uint64_t> lat;
      for (uint32_t j = 0; j < I::kJobs; j++) {
        const uint64_t cycles = phys.Read64(I::Log(t) + 8 * static_cast<Addr>(j));
        if (cycles == 0 || cycles > r->sim_cycles) {
          ok = false;
        }
        lat.push_back(cycles);
      }
      if (ok) {
        r->verified += I::kJobs;
        r->latencies.insert(r->latencies.end(), lat.begin(), lat.end());
      } else if (got == in_->checksum[t]) {
        r->errors.push_back("interp_mix thread " + std::to_string(t) + " job log is invalid");
      }
    }
    FillMachine(*m_, before_, after, probe, r);
    // Cross-check: every element is two loads and one store, plus one log
    // store per job and one checksum store per thread.
    const uint64_t elems = uint64_t{I::kThreads} * I::kJobs * I::kElemsPerJob;
    const uint64_t want_reads = 2 * elems;
    const uint64_t want_writes = elems + uint64_t{I::kThreads} * (I::kJobs + 1);
    if (r->layer["mem.reads"] != want_reads || r->layer["mem.writes"] != want_writes) {
      r->errors.push_back("interp_mix mem.reads/mem.writes " +
                          std::to_string(r->layer["mem.reads"]) + "/" +
                          std::to_string(r->layer["mem.writes"]) + " != guest loads/stores " +
                          std::to_string(want_reads) + "/" + std::to_string(want_writes));
    }
  }

 private:
  // About 20 ms of host time, so the SpeedClock the probe ticks can cut the
  // timed region into segments of its own length.
  static constexpr Tick kSlice = 1 << 17;
  std::shared_ptr<const InterpInputs> in_;
  std::unique_ptr<Machine> m_;
  std::vector<Ptid> ptids_;
  Counters before_;
  Tick start_ = 0;
};

// --- ring_syscall ------------------------------------------------------------

struct RingInputs {
  // More clients than the RF, L2 and L3 context tiers hold (16 + 64 + 512),
  // so wakes restore contexts from every tier, DRAM included.
  static constexpr uint32_t kClients = 640;
  static constexpr uint32_t kWorkers = 2;   // RingConfig default
  static constexpr size_t kRequests = 16000;
  static constexpr double kMeanService = 400;
  // 0.7 of the closed-loop capacity: 640 clients calling back to back through
  // this ring complete one call per 320 cycles (README, "Offered load").
  static constexpr double kMeanGap = 320 / 0.7;
  static constexpr uint32_t kQueue = 256;  // per-client request slots
  static constexpr Addr kRingBase = 0x00400000;
  static Addr Mailbox(uint32_t c) { return 0x00600000 + 64 * static_cast<Addr>(c); }
  static Addr Slot(uint32_t c, uint64_t i) {
    return 0x01000000 + (static_cast<Addr>(c) * kQueue + i % kQueue) * 32;
  }
  // The value the ring handler returns for a request; clients check it.
  static uint64_t Answer(uint64_t id, uint64_t arg) {
    return (arg ^ (id * 0x9E3779B97F4A7C15ull)) + 1;
  }

  std::vector<Tick> at;
  std::vector<uint32_t> client;
  std::vector<uint64_t> arg;
  std::vector<uint64_t> service;
};

std::shared_ptr<const RingInputs> MakeRingInputs(uint64_t seed) {
  using I = RingInputs;
  InputRng rng(seed);
  auto in = std::make_shared<RingInputs>();
  in->at = PoissonArrivals(rng, I::kRequests, I::kMeanGap);
  for (size_t i = 0; i < I::kRequests; i++) {
    in->client.push_back(static_cast<uint32_t>(rng.Below(I::kClients)));
    in->arg.push_back(rng.Next());
    in->service.push_back(rng.Exponential(I::kMeanService, 20 * I::kMeanService));
  }
  return in;
}

class RingSyscall final : public Workload {
 public:
  explicit RingSyscall(std::shared_ptr<const RingInputs> in)
      : in_(std::move(in)), replies_(RingInputs::kRequests) {}

  void Setup(Probe& probe) override {
    using I = RingInputs;
    probe_ = &probe;
    MachineConfig cfg;
    cfg.hwt.threads_per_core = 1024;  // 2 ring workers + 640 clients
    {
      ScopedSpan span(probe.spans(), "Machine", "sim");
      m_ = std::make_unique<Machine>(cfg);
    }
    probe.Attach(*m_);
    casc::RingConfig rc;
    rc.name = "bench";
    server_ = std::make_unique<casc::RingServer>(
        *m_, 0, 0, I::kRingBase, rc,
        [](GuestContext& ctx, const casc::SyscallRequest& req, uint64_t* ret) -> GuestTask {
          co_await ctx.Compute(req.a2);
          *ret = RingInputs::Answer(req.a0, req.a1);
        });
    {
      ScopedSpan span(probe.spans(), "RingServer.Install", "runtime");
      server_->Install();
    }
    for (uint32_t c = 0; c < I::kClients; c++) {
      ScopedSpan span(probe.spans(), "BindNative", "cpu");
      const Ptid p = m_->BindNative(
          0, I::kWorkers + c, [this, c](GuestContext& ctx) { return Client(ctx, c); },
          /*supervisor=*/false);
      m_->Start(p);
    }
    // Warm-up: every client arms its mailbox and parks.
    RunSlices(*m_, probe, kSlice, 4 * kSlice, [] { return false; }, [] {});
  }

  void Run(Probe& probe) override {
    using I = RingInputs;
    before_ = Snapshot(*m_);
    start_ = m_->sim().now();
    posted_.assign(I::kClients, 0);
    ArrivalChain arrivals(*m_, in_->at, [this](size_t i) { Arrive(i); });
    arrivals.Start(start_ + 1);
    const Tick limit = start_ + 1 + in_->at.back() + kDrain;
    const casc::Ring ring = server_->ring();
    casc::PhysicalMemory& phys = m_->mem().phys();
    RunSlices(
        *m_, probe, kSlice, limit, [this] { return replies_.all(); },
        [&] { backlog_.push_back(phys.Read64(ring.sr_ticket()) - phys.Read64(ring.sr_head())); });
    sent_ = arrivals.fired();
  }

  void Collect(Probe& probe, RepResult* r) override {
    const Counters after = Snapshot(*m_);
    r->attempted = RingInputs::kRequests;
    r->verified = replies_.verified;
    r->latencies = replies_.latencies;
    r->sim_cycles = replies_.last > start_ ? replies_.last - start_ : m_->sim().now() - start_;
    r->errors = replies_.errors;
    if (!replies_.all()) {
      r->errors.push_back("ring_syscall: " + std::to_string(replies_.seen.size() - replies_.verified) +
                          " of " + std::to_string(replies_.seen.size()) +
                          " requests unanswered or wrong");
    }
    FillMachine(*m_, before_, after, probe, r);
    std::sort(backlog_.begin(), backlog_.end());
    auto& L = r->layer;
    L["runtime.ring.served"] = static_cast<double>(server_->served());
    L["runtime.ring.deep_parks"] = static_cast<double>(server_->deep_parks());
    L["runtime.ring.scale_wakes"] = static_cast<double>(server_->scale_wakes());
    L["runtime.ring.backlog_p99"] = static_cast<double>(Percentile(backlog_, 0.99));
    // Cross-checks against the benchmark's own counts.
    if (server_->served() != replies_.verified) {
      r->errors.push_back("runtime.ring.served " + std::to_string(server_->served()) +
                          " != verified replies " + std::to_string(replies_.verified));
    }
    if (L["mem.dma_writes"] != 2.0 * static_cast<double>(sent_)) {
      r->errors.push_back("mem.dma_writes " + std::to_string(L["mem.dma_writes"]) +
                          " != 2 x arrivals " + std::to_string(sent_));
    }
  }

 private:
  static constexpr Tick kSlice = 16384;
  static constexpr Tick kDrain = 20'000'000;

  // Host side of one arrival: DMA the request into the client's slot, then
  // bump its mailbox tail (the watched line) — the wake.
  void Arrive(size_t i) {
    using I = RingInputs;
    const uint32_t c = in_->client[i];
    ScopedSpan span(probe_->spans(), "DmaWrite", "dev", i + 1);
    const uint64_t slot[3] = {i, in_->arg[i], in_->service[i]};
    const Addr slot_addr = I::Slot(c, posted_[c]);
    m_->mem().DmaWrite(slot_addr, slot, sizeof(slot));
    posted_[c]++;
    m_->mem().DmaWrite64(I::Mailbox(c), posted_[c]);
    if (Capture* cap = probe_->capture()) {
      cap->NoteDma(slot_addr);
      cap->NoteDma(I::Mailbox(c));
    }
  }

  // One client: parks on its mailbox line, serves each request it finds with
  // one exception-less ring call, reports the reply, re-parks.
  GuestTask Client(GuestContext& ctx, uint32_t c) {
    using I = RingInputs;
    const casc::Ring ring = server_->ring();
    uint64_t seen = 0;
    co_await ctx.Monitor(I::Mailbox(c));
    for (;;) {
      const uint64_t tail = co_await ctx.Load(I::Mailbox(c));
      if (tail == seen) {
        co_await ctx.Mwait();
        continue;
      }
      while (seen < tail) {
        const Addr slot = I::Slot(c, seen);
        const uint64_t id = co_await ctx.Load(slot);
        const uint64_t arg = co_await ctx.Load(slot + 8);
        const uint64_t service = co_await ctx.Load(slot + 16);
        seen++;
        uint64_t ret = 0;
        co_await ctx.Call(casc::RingCall(
            ctx, ring, {.nr = 1, .a0 = id, .a1 = arg, .a2 = service}, &ret));
        ScopedSpan span(probe_->spans(), "Reply", "runtime", id + 1);
        const bool ok = id < in_->arg.size() && in_->client[id] == c &&
                        ret == I::Answer(id, in_->arg[id]);
        replies_.Observe(id, ok, id < in_->at.size() ? start_ + 1 + in_->at[id] : 0,
                         m_->sim().now());
      }
    }
  }

  std::shared_ptr<const RingInputs> in_;
  std::unique_ptr<Machine> m_;
  std::unique_ptr<casc::RingServer> server_;
  Probe* probe_ = nullptr;
  Replies replies_;
  std::vector<uint64_t> posted_;
  std::vector<uint64_t> backlog_;
  Counters before_;
  Tick start_ = 0;
  size_t sent_ = 0;
};

// --- rpc_fabric --------------------------------------------------------------

struct RpcInputs {
  static constexpr uint32_t kNodes = 4;
  static constexpr uint32_t kWorkers = 16;
  static constexpr size_t kRequests = 4000;
  static constexpr double kMeanService = 2000;
  static constexpr double kLoad = 0.6;  // per node
  static constexpr uint64_t kClient = 9;
  static constexpr uint64_t kFirstServer = 1;

  std::vector<Tick> at;
  std::vector<uint64_t> service;
};

std::shared_ptr<const RpcInputs> MakeRpcInputs(uint64_t seed) {
  using I = RpcInputs;
  InputRng rng(seed);
  auto in = std::make_shared<RpcInputs>();
  in->at = PoissonArrivals(rng, I::kRequests, I::kMeanService / I::kLoad / I::kNodes);
  for (size_t i = 0; i < I::kRequests; i++) {
    in->service.push_back(rng.Exponential(I::kMeanService, 20 * static_cast<Tick>(I::kMeanService)));
  }
  return in;
}

class RpcFabric final : public Workload {
 public:
  explicit RpcFabric(std::shared_ptr<const RpcInputs> in)
      : in_(std::move(in)), replies_(RpcInputs::kRequests) {}

  void Setup(Probe& probe) override {
    using I = RpcInputs;
    probe_ = &probe;
    MachineConfig cfg;
    cfg.num_cores = I::kNodes;
    {
      ScopedSpan span(probe.spans(), "Machine", "sim");
      m_ = std::make_unique<Machine>(cfg);
    }
    probe.Attach(*m_);
    fabric_ = std::make_unique<casc::Fabric>(m_->sim(), casc::FabricConfig{});
    if (probe.traced()) {
      fabric_->SetDeliveryObserver([this](uint64_t, uint64_t) { delivered_++; });
    }
    casc::NicConfig ccfg;
    ccfg.mmio_base = 0xf0f00000;
    client_nic_ = std::make_unique<casc::Nic>(m_->sim(), m_->mem(), ccfg);
    fabric_->Attach(I::kClient, client_nic_.get());
    casc::SetupNicRings(m_->mem(), *client_nic_, 0x20000000);
    client_nic_->SetRxObserver([this](const std::vector<uint8_t>& frame) { OnReply(frame); });
    for (uint32_t n = 0; n < I::kNodes; n++) {
      casc::NicConfig ncfg;
      ncfg.mmio_base = 0xf0000000 + static_cast<Addr>(n) * 0x100000;
      ncfg.home_core = n;
      nics_.push_back(std::make_unique<casc::Nic>(m_->sim(), m_->mem(), ncfg));
      fabric_->Attach(I::kFirstServer + n, nics_.back().get());
      nodes_.push_back(std::make_unique<casc::RpcNode>(
          *m_, n, I::kFirstServer + n, nics_.back().get(),
          0x03000000 + static_cast<Addr>(n) * 0x01000000, I::kWorkers,
          casc::RpcMode::kThreadPerRequest));
      ScopedSpan span(probe.spans(), "RpcNode.Install", "runtime");
      nodes_.back()->Install();
    }
    RunSlices(*m_, probe, 2000, 2000, [] { return false; }, [] {});
  }

  void Run(Probe& probe) override {
    before_ = Snapshot(*m_);
    start_ = m_->sim().now();
    ArrivalChain arrivals(*m_, in_->at, [this](size_t i) { Arrive(i); });
    arrivals.Start(start_ + 1);
    const Tick limit = start_ + 1 + in_->at.back() + kDrain;
    RunSlices(*m_, probe, kSlice, limit, [this] { return replies_.all(); }, [] {});
    sent_ = arrivals.fired();
  }

  void Collect(Probe& probe, RepResult* r) override {
    const Counters after = Snapshot(*m_);
    r->attempted = RpcInputs::kRequests;
    r->verified = replies_.verified;
    r->latencies = replies_.latencies;
    r->sim_cycles = replies_.last > start_ ? replies_.last - start_ : m_->sim().now() - start_;
    r->errors = replies_.errors;
    if (!replies_.all()) {
      r->errors.push_back("rpc_fabric: " + std::to_string(replies_.seen.size() - replies_.verified) +
                          " of " + std::to_string(replies_.seen.size()) +
                          " requests unanswered or wrong");
    }
    FillMachine(*m_, before_, after, probe, r);
    uint64_t served = 0, server_rx = 0;
    for (size_t n = 0; n < nodes_.size(); n++) {
      served += nodes_[n]->served();
      server_rx += nics_[n]->rx_frames();
    }
    const uint64_t client_rx = client_nic_->rx_frames();
    const uint64_t frames = fabric_->frames_routed();
    auto& L = r->layer;
    L["runtime.rpc.served"] = static_cast<double>(served);
    L["dev.fabric.frames"] = static_cast<double>(frames);
    L["dev.nic.rx_frames"] = static_cast<double>(server_rx + client_rx);
    // Cross-checks against the benchmark's own counts.
    auto check = [&](const char* what, uint64_t got, uint64_t want) {
      if (got != want) {
        r->errors.push_back(std::string("rpc_fabric ") + what + " " + std::to_string(got) +
                            " != " + std::to_string(want));
      }
    };
    check("runtime.rpc.served vs req_completed", served, replies_.verified);
    check("dev.fabric.frames vs sent + received", frames, sent_ + replies_.verified);
    check("server dev.nic.rx_frames vs sent", server_rx, sent_);
    check("client dev.nic.rx_frames vs received", client_rx, replies_.verified);
    if (probe.traced()) {
      check("fabric delivery observer vs frames_routed", delivered_, frames);
    }
  }

 private:
  static constexpr Tick kSlice = 16384;
  static constexpr Tick kDrain = 20'000'000;

  void Arrive(size_t i) {
    using I = RpcInputs;
    ScopedSpan span(probe_->spans(), "InjectFrom", "dev", i + 1);
    const uint64_t dst = I::kFirstServer + i % I::kNodes;  // round-robin
    fabric_->InjectFrom(I::kClient, casc::RpcFrame::Make(dst, I::kClient, i, in_->service[i]));
  }

  // Client NIC RX observer: match the reply to its request and release the
  // RX slot (the client has no guest; the benchmark consumes its ring).
  void OnReply(const std::vector<uint8_t>& frame) {
    using I = RpcInputs;
    const casc::FabricHeader h = casc::FabricHeader::ReadFrom(frame);
    uint64_t id = 0;
    std::memcpy(&id, frame.data() + casc::RpcFrame::kReqIdOff, 8);
    ScopedSpan span(probe_->spans(), "Reply", "dev", id + 1);
    const bool ok = h.dst == I::kClient && h.src == I::kFirstServer + id % I::kNodes;
    replies_.Observe(id, ok, id < in_->at.size() ? start_ + 1 + in_->at[id] : 0,
                     m_->sim().now());
    m_->mem().Write(0, client_nic_->config().mmio_base + casc::kNicRxHead, 8, ++consumed_);
  }

  std::shared_ptr<const RpcInputs> in_;
  std::unique_ptr<Machine> m_;
  std::unique_ptr<casc::Fabric> fabric_;
  std::unique_ptr<casc::Nic> client_nic_;
  std::vector<std::unique_ptr<casc::Nic>> nics_;
  std::vector<std::unique_ptr<casc::RpcNode>> nodes_;
  Probe* probe_ = nullptr;
  Replies replies_;
  Counters before_;
  Tick start_ = 0;
  size_t sent_ = 0;
  uint64_t consumed_ = 0;
  uint64_t delivered_ = 0;
};

}  // namespace

WorkloadFactory MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "interp_mix") {
    auto in = MakeInterpInputs(seed);
    return [in] { return std::make_unique<InterpMix>(in); };
  }
  if (name == "ring_syscall") {
    auto in = MakeRingInputs(seed);
    return [in] { return std::make_unique<RingSyscall>(in); };
  }
  if (name == "rpc_fabric") {
    auto in = MakeRpcInputs(seed);
    return [in] { return std::make_unique<RpcFabric>(in); };
  }
  return {};
}

}  // namespace perfbench
