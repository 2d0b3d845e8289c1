// casc performance benchmark driver (perfbench/README.md).
//
//   casc_perfbench --workload <interp_mix|ring_syscall|rpc_fabric> --seed <n>
//                  --seconds <s> --trace <0|1> [--trace-file <path>]
//
// Repeats the workload — a fresh Machine each time, on inputs generated once
// from the seed — until `--seconds` of host time have passed, then prints one
// JSON line: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. Host times are calibrated against the host's speed while they
// run (calibrate.h). Every rep must produce identical simulated results;
// outputs, cross-checks and that determinism are verified before anything is
// printed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.h"
#include "calibrate.h"
#include "probe.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_file;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a->trace = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (k == "--trace-file") {
      a->trace_file = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 && (a->trace == 0 || a->trace == 1);
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Peak resident memory of this program image. VmHWM restarts at exec, where
// getrusage's ru_maxrss also counts the parent that forked the benchmark.
double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  char line[256];
  double kb = 0;
  while (f != nullptr && std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) {
      break;
    }
  }
  if (f != nullptr) {
    std::fclose(f);
  }
  if (kb == 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    kb = static_cast<double>(ru.ru_maxrss);
  }
  return kb / 1024.0;
}

struct Traced {
  RepResult result;
  std::unique_ptr<Probe> probe;
  std::unique_ptr<SpanLog> spans;
};

// One rep, timed by a SpeedClock that the probe ticks after every slice.
// Set-up is a few milliseconds, too short for the calibration passes on its
// two sides to gauge it, so it is scaled by the whole rep's mean speed.
RepResult RunRep(const WorkloadFactory& factory, Probe& probe) {
  std::unique_ptr<Workload> w = factory();
  RepResult r;
  SpeedClock clock;
  probe.set_clock(&clock);
  clock.Start();
  w->Setup(probe);
  clock.Cut();
  r.setup_wall_s = clock.raw_s();
  const double setup_scaled = clock.scaled_s();
  w->Run(probe);
  clock.Cut();
  probe.set_clock(nullptr);
  r.run_s = clock.scaled_s() - setup_scaled;
  r.run_wall_s = clock.raw_s() - r.setup_wall_s;
  r.setup_s = r.setup_wall_s * clock.scaled_s() / clock.raw_s();
  w->Collect(probe, &r);
  return r;
}

// The simulated part of a rep, printed exactly; equal strings = equal reps.
std::string Fingerprint(const RepResult& r, bool traced_part) {
  std::string s;
  char buf[96];
  auto add = [&](const std::string& k, double v) {
    std::snprintf(buf, sizeof(buf), "%.17g;", v);
    s += k + "=" + buf;
  };
  if (traced_part) {
    for (const auto& [k, v] : r.traced_layer) {
      add(k, v);
    }
    return s;
  }
  add("sim_cycles", static_cast<double>(r.sim_cycles));
  add("instructions", static_cast<double>(r.instructions));
  add("events", static_cast<double>(r.events));
  add("attempted", static_cast<double>(r.attempted));
  add("verified", static_cast<double>(r.verified));
  uint64_t h = 1469598103934665603ull;
  for (uint64_t v : r.latencies) {
    h = (h ^ v) * 1099511628211ull;
  }
  add("latency_hash", static_cast<double>(h >> 11));
  add("latency_count", static_cast<double>(r.latencies.size()));
  for (const auto& [k, v] : r.layer) {
    add(k, v);
  }
  return s;
}

struct Metric {
  std::string name;
  const char* unit;
  double value;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); i++) {
    std::printf("%s\"%s\": {\"value\": %.15g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

// Layer counts every workload reports; a workload without the layer reports 0.
const std::vector<std::pair<std::string, const char*>>& LayerCounts() {
  static const std::vector<std::pair<std::string, const char*>> k = {
      {"cpu.instructions", "count"},
      {"cpu.active_cycles", "cycles"},
      {"cpu.idle_wakeups", "count"},
      {"cpu.predecode_hit_ratio", "ratio"},
      {"cpu.fused_pair_rate", "ratio"},
      {"mem.reads", "count"},
      {"mem.writes", "count"},
      {"mem.fetches", "count"},
      {"mem.dma_writes", "count"},
      {"mem.l1d.miss_ratio", "ratio"},
      {"mem.l1i.miss_ratio", "ratio"},
      {"mem.l2.miss_ratio", "ratio"},
      {"mem.monitor.triggers", "count"},
      {"mem.monitor.wakes", "count"},
      {"mem.monitor.wakes_per_trigger", "ratio"},
      {"hwt.restores_rf", "count"},
      {"hwt.restores_l2", "count"},
      {"hwt.restores_l3", "count"},
      {"hwt.restores_dram", "count"},
      {"hwt.restore_latency_p99_cycles", "cycles"},
      {"hwt.mwait_blocks", "count"},
      {"hwt.mwait_immediate", "count"},
      {"hwt.vtid_cache_hit_ratio", "ratio"},
      {"sim.events", "count"},
      {"dev.fabric.frames", "count"},
      {"dev.nic.rx_frames", "count"},
      {"runtime.ring.served", "count"},
      {"runtime.ring.deep_parks", "count"},
      {"runtime.ring.scale_wakes", "count"},
      {"runtime.ring.backlog_p99", "count"},
      {"runtime.rpc.served", "count"},
  };
  return k;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: casc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                 " [--trace-file <path>]\n");
    return 2;
  }
  const WorkloadFactory factory = MakeWorkload(args.workload, args.seed);
  if (!factory) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const bool trace = args.trace == 1;
  constexpr size_t kCaptureCap = 2u << 20;

  // Verification of every rep as it finishes: outputs and cross-checks, then
  // determinism against the first rep of its kind. Only the first rep keeps
  // its latency sample, so memory stays flat however many reps run.
  std::vector<std::string> errors;
  uint64_t attempted = 0, failed = 0;
  auto note = [&](const std::string& e) {
    if (std::find(errors.begin(), errors.end(), e) == errors.end()) {
      errors.push_back(e);
    }
  };
  std::string ref_print, ref_traced_print;
  auto check = [&](RepResult* r, bool is_traced) {
    attempted += r->attempted;
    failed += r->attempted - r->verified;
    for (const std::string& e : r->errors) {
      note(e);
    }
    const std::string print = Fingerprint(*r, false);
    if (ref_print.empty()) {
      ref_print = print;
    } else {
      if (print != ref_print) {
        note("determinism: simulated results differ between reps of seed " +
             std::to_string(args.seed) + (is_traced ? " (traced vs untraced)" : ""));
      }
      std::vector<uint64_t>().swap(r->latencies);
    }
    if (is_traced) {
      const std::string traced_print = Fingerprint(*r, true);
      if (ref_traced_print.empty()) {
        ref_traced_print = traced_print;
      } else if (traced_print != ref_traced_print) {
        note("determinism: traced-only counts differ between traced reps");
      }
    }
  };

  // Reps until the next one would overrun the time budget: at least two of
  // each kind run, so determinism is always checked. A traced run alternates
  // untraced and traced reps so both see the same host conditions.
  std::vector<RepResult> plain;
  std::vector<Traced> traced;
  const Clock::time_point start = Clock::now();
  double round_s = 0;  // host time of the last untraced (+ traced) rep
  while (plain.size() < 2 || (trace && traced.size() < 2) ||
         SecondsSince(start) + round_s <= args.seconds) {
    const Clock::time_point round_start = Clock::now();
    Probe none(nullptr, 0);
    plain.push_back(RunRep(factory, none));
    check(&plain.back(), false);
    if (trace) {
      Traced t;
      t.spans = std::make_unique<SpanLog>();
      t.probe = std::make_unique<Probe>(t.spans.get(), traced.empty() ? kCaptureCap : 0);
      t.result = RunRep(factory, *t.probe);
      check(&t.result, true);
      traced.push_back(std::move(t));
    }
    round_s = SecondsSince(round_start);
  }
  const RepResult& ref = plain.front();
  size_t above_p99 = 0;
  const uint64_t p99 = Percentile(ref.latencies, 0.99, &above_p99);
  if (above_p99 < 10) {
    note("only " + std::to_string(above_p99) + " latency samples above p99 (need 10)");
  }
  if (ref.instructions == 0 || ref.sim_cycles == 0 || ref.events == 0) {
    note("the timed region simulated nothing");
  }
  const bool correct = errors.empty() && failed == 0;

  std::printf("# workload=%s seed=%llu engine=%s host_threads=%u cores=%u reps=%zu traced_reps=%zu"
              " req_samples=%zu above_p99=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), ref.engine.c_str(),
              ref.host_threads, ref.cores, plain.size(), traced.size(), ref.latencies.size(),
              above_p99);
  for (const std::string& e : errors) {
    std::fprintf(stderr, "CHECK FAILED [%s seed %llu]: %s\n", args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), e.c_str());
  }
  if (failed > 0) {
    std::fprintf(stderr, "CHECK FAILED [%s seed %llu]: %llu of %llu requests failed\n",
                 args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
  }

  // Host times: the median of the fastest quarter of reps (FastQuarter).
  // Simulated counts are identical in every rep, so the rates follow run_s.
  std::vector<double> setup, setup_wall, run, run_wall;
  for (const RepResult& r : plain) {
    setup.push_back(r.setup_s);
    setup_wall.push_back(r.setup_wall_s);
    run.push_back(r.run_s);
    run_wall.push_back(r.run_wall_s);
  }
  const double run_s = FastQuarter(run);
  const double run_wall_s = FastQuarter(run_wall);
  std::printf("# wall (not calibrated): run_s=%.6f setup_s=%.6f; run_s median over all reps:"
              " %.6f wall, %.6f calibrated\n",
              run_wall_s, FastQuarter(setup_wall), Median(run_wall), Median(run));
  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"setup_s", "s", FastQuarter(setup)},
        {"run_s", "s", run_s},
        {"sim_mips", "Minst/s", static_cast<double>(ref.instructions) / run_s / 1e6},
        {"sim_mcycles_per_s", "Mcycle/s", static_cast<double>(ref.sim_cycles) / run_s / 1e6},
        {"host_ns_per_event", "ns", run_s * 1e9 / static_cast<double>(ref.events)},
        {"peak_rss_mb", "MB", PeakRssMb()},
        {"sim_cycles", "cycles", static_cast<double>(ref.sim_cycles)},
        {"sim_ipc", "inst/cycle",
         static_cast<double>(ref.instructions) / static_cast<double>(ref.sim_cycles) / ref.cores},
        {"req_p50_cycles", "cycles", static_cast<double>(Percentile(ref.latencies, 0.50))},
        {"req_p99_cycles", "cycles", static_cast<double>(p99)},
        {"req_completed", "count", static_cast<double>(ref.verified)},
        {"verified_frac", "fraction",
         static_cast<double>(attempted - failed) / static_cast<double>(attempted)},
    };
  } else {
    const RepResult& tr = traced.front().result;
    std::vector<double> traced_run, assemble;
    for (const Traced& t : traced) {
      traced_run.push_back(t.result.run_s);
      assemble.push_back(t.spans->TotalMs("LoadSource"));
    }
    const Probe& probe = *traced.front().probe;
    std::vector<double> live(probe.live_events().begin(), probe.live_events().end());
    const ReplayCost cost =
        Replay(*traced.front().probe->capture(), static_cast<uint64_t>(Median(live)));
    auto L = [&](const std::string& k) {
      auto it = tr.layer.find(k);
      return it == tr.layer.end() ? 0.0 : it->second;
    };
    for (const auto& [name, unit] : LayerCounts()) {
      metrics.push_back({name, unit, L(name)});
    }
    metrics.push_back({"hwt.wake_to_run_p99_cycles", "cycles",
                       tr.traced_layer.at("hwt.wake_to_run_p99_cycles")});
    metrics.push_back({"sim.shard.rounds", "count", tr.traced_layer.at("sim.shard.rounds")});
    const double inst = static_cast<double>(tr.instructions);
    metrics.push_back({"cpu.host_ns_per_inst", "ns", run_s * 1e9 / inst});
    metrics.push_back({"isa.assemble_ms", "ms", Median(assemble)});
    metrics.push_back({"mem.cache.host_ns_per_access", "ns", cost.cache_ns});
    metrics.push_back({"mem.monitor.host_ns_per_write_watched", "ns", cost.monitor_watched_ns});
    metrics.push_back({"mem.monitor.host_ns_per_write_unwatched", "ns", cost.monitor_unwatched_ns});
    metrics.push_back({"sim.eventq.host_ns_per_op", "ns", cost.eventq_ns});
    // Estimated host time of the replayed layers over the run's own op
    // counts; what they do not explain is reported, not hidden.
    const double writes = L("mem.writes") + L("mem.dma_writes");
    const double est_s =
        1e-9 * (cost.cache_ns * (L("mem.reads") + L("mem.writes")) +
                writes * (cost.watched_frac * cost.monitor_watched_ns +
                          (1 - cost.watched_frac) * cost.monitor_unwatched_ns) +
                cost.eventq_ns * L("sim.events"));
    metrics.push_back({"trace.overhead_frac", "fraction", FastQuarter(traced_run) / run_s - 1});
    metrics.push_back({"trace.unattributed_frac", "fraction", 1 - est_s / run_wall_s});
    if (!args.trace_file.empty() &&
        !traced.front().spans->WriteChromeTrace(args.trace_file, "casc_perfbench " + args.workload)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_file.c_str());
      return 1;
    }
  }
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "CHECK FAILED: metric %s is not finite\n", m.name.c_str());
      return 1;
    }
  }
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
