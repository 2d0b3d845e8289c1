// casc-run: assemble a .casm file and run it on a simulated machine.
//
//   casc-run prog.casm [--entry=symbol] [--supervisor=true] [--max-cycles=N]
//            [--cores=1] [--threads-per-core=64] [--host-threads=0|1] [--trace]
//            [--trace-json=<path>] [--dump-stats] [--stats-json=<path>]
//            [--no-lint] [--race-check]
//
// The program is linted by default before it runs (diagnostics go to stderr;
// the simulation proceeds regardless — the simulator is the ground truth).
// Pass --no-lint to skip the analysis.
//
// Conventions: the program runs on hardware thread 0 in supervisor mode by
// default. If the image defines harness thread symbols (tN_entry etc., see
// src/verify/harness.h), every declared thread is set up instead and the
// tN_main threads start at boot. `hcall 1` prints a0 in decimal, `hcall 2`
// prints it in hex, `hcall 0`/`halt` ends the thread. Exit code: 0 if the
// machine quiesced without halting, 1 on machine halt (unhandled fault),
// 2 on usage errors (including any unknown --flag), 3 if --race-check
// reported a race.
//
// --race-check attaches the vector-clock race detector (DESIGN.md §4h) as a
// concurrency observer; detected races print to stderr after the run. With
// the flag off, no observer is installed and the hot path only pays a null
// pointer test.
//
// --host-threads selects the event engine (DESIGN.md §4i): 0 (the default)
// is the legacy single-queue engine, 1 the sharded engine with one shard per
// core run in serial conservative sync windows; any other value is a usage
// error. Simulated results are a pure function of (program, seed, config).
// --race-check forces the legacy engine (the vector-clock observer needs the
// global event order, which sharded windows do not keep); a note goes to
// stderr.
// With a multi-core machine (--cores=N), harness threads land on core
// ptid / threads-per-core — `--cores=4 --threads-per-core=1` spreads t0..t3
// across four cores/shards.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "src/analysis/lint.h"
#include "src/cpu/machine.h"
#include "src/hwt/tracer.h"
#include "src/sim/config.h"
#include "src/verify/harness.h"
#include "src/verify/race_detector.h"

using namespace casc;

namespace {

void PrintUsage(FILE* out) {
  std::fprintf(out,
               "usage: casc-run <file.casm> [--entry=symbol] [--supervisor=true]\n"
               "                [--max-cycles=N] [--cores=1] [--threads-per-core=64]\n"
               "                [--host-threads=0|1] [--trace] [--trace-json=<path>]\n"
               "                [--dump-stats] [--stats-json=<path>] [--no-lint]\n"
               "                [--race-check] [--help]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--help") {
    PrintUsage(stdout);
    return 0;
  }
  if (argc < 2) {
    PrintUsage(stderr);
    return 2;
  }
  const std::string path = argv[1];
  Config cfg;
  std::string err;
  if (!cfg.ParseArgs(argc - 1, argv + 1, &err) ||
      !cfg.CheckKnownKeys({"entry", "supervisor", "max-cycles", "cores", "threads-per-core",
                           "host-threads", "trace", "trace-json", "dump-stats", "stats-json",
                           "no-lint", "race-check"},
                          &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    PrintUsage(stderr);
    return 2;
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return 1;
  }
  std::ostringstream ss;
  ss << in.rdbuf();

  MachineConfig mc;
  mc.num_cores = static_cast<uint32_t>(cfg.GetUint("cores", 1));
  mc.hwt.threads_per_core = static_cast<uint32_t>(cfg.GetUint("threads-per-core", 64));
  const uint64_t host_threads = cfg.GetUint("host-threads", 0);
  if (!HostThreadsFlagOk(host_threads)) {
    return 2;
  }
  mc.host_threads = static_cast<uint32_t>(host_threads);
  if (cfg.GetBool("race-check", false) && mc.host_threads != 0) {
    std::fprintf(stderr,
                 "note: --race-check forces --host-threads=0 (the race observer "
                 "needs the legacy engine's global event order)\n");
    mc.host_threads = 0;
  }

  const AssembleResult assembled = Assembler::Assemble(ss.str(), /*base=*/0x1000);
  if (!assembled.ok) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), assembled.error.c_str());
    return 1;
  }
  if (!cfg.GetBool("no-lint", false)) {
    analysis::LintOptions lo;
    lo.entry_symbol = cfg.GetString("entry");
    lo.flow.entry_supervisor = cfg.GetBool("supervisor", true);
    lo.flow.tdt_capacity = mc.hwt.threads_per_core;
    const analysis::LintResult lint = analysis::Lint(assembled.program, lo);
    analysis::PrintDiagnostics(lint, std::cerr);
  }

  Machine m(mc);
  ThreadTracer tracer;
  const bool trace_text = cfg.GetBool("trace", false);
  const std::string trace_json = cfg.GetString("trace-json");
  if (trace_text || !trace_json.empty()) {
    m.threads().SetTracer(&tracer);
  }
  m.SetHcallHandler([&](Core&, HwThread& t, int64_t code) {
    if (code == 1) {
      std::printf("[hcall] a0 = %llu\n", (unsigned long long)t.ReadGpr(10));
    } else if (code == 2) {
      std::printf("[hcall] a0 = 0x%llx\n", (unsigned long long)t.ReadGpr(10));
    }
  });

  verify::RaceDetector race_detector(mc.hwt.threads_per_core);
  if (cfg.GetBool("race-check", false)) {
    m.SetConcurrencyObserver(&race_detector);
  }

  // Harness images describe their own machine setup; plain programs run on
  // thread 0.
  const std::vector<verify::ThreadSpec> specs =
      verify::ParseThreadSpecs(assembled.program, mc.hwt.threads_per_core);
  Ptid p = 0;
  if (specs.empty()) {
    p = m.Load(0, 0, assembled.program, cfg.GetBool("supervisor", true),
               cfg.GetString("entry"), /*edp=*/0);
  } else {
    m.mem().AddSupervisorOnlyRange(0, 0x1000);
    assembled.program.LoadInto(m.mem().phys());
    for (const verify::ThreadSpec& s : specs) {
      m.threads().InitThread(s.ptid, s.entry, s.supervisor, s.edp, s.tdtr, s.tdt_size);
    }
    p = specs.front().ptid;
  }
  const Tick start = m.sim().now();
  if (specs.empty()) {
    m.Start(p);
  } else {
    for (const verify::ThreadSpec& s : specs) {
      if (s.auto_start) {
        m.Start(s.ptid);
      }
    }
  }
  const uint64_t max_cycles = cfg.GetUint("max-cycles", 100'000'000);
  // Drain events up to the budget without advancing the clock past the last
  // real event (so the cycle report is meaningful). DrainBudget picks the
  // right engine: per-event on legacy machines, windowed rounds on sharded
  // ones — same observable results either way.
  // The budget saturates at Tick max: a huge --max-cycles must not wrap the
  // limit around to a tick behind `start`.
  const Tick limit = max_cycles > std::numeric_limits<Tick>::max() - start
                         ? std::numeric_limits<Tick>::max()
                         : start + max_cycles;
  const bool drained = m.DrainBudget(limit);

  std::printf("---\n");
  std::printf("cycles     : %llu\n", (unsigned long long)(m.sim().now() - start));
  uint64_t insts = 0;
  for (uint32_t c = 0; c < m.num_cores(); c++) {
    insts += m.core(c).instructions_retired();
  }
  std::printf("instructions: %llu\n", (unsigned long long)insts);
  std::printf("state      : %s%s\n",
              m.halted() ? "HALTED: " : (drained ? "quiesced" : "cycle budget exhausted"),
              m.halted() ? m.halt_reason().c_str() : "");
  std::printf("registers  :");
  for (uint32_t r = 10; r <= 17; r++) {
    std::printf(" a%u=%llu", r - 10, (unsigned long long)m.threads().thread(p).ReadGpr(r));
  }
  std::printf("\n");
  if (trace_text) {
    std::printf("timeline (start..now):\n");
    tracer.DumpTimeline(std::cout, start, m.sim().now() + 1, 72);
  }
  if (!trace_json.empty()) {
    std::ofstream out(trace_json);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", trace_json.c_str());
      return 2;
    }
    tracer.DumpChromeTrace(out);
    std::printf("trace      : %s (%zu events%s)\n", trace_json.c_str(), tracer.events().size(),
                tracer.dropped() > 0 ? ", TRUNCATED" : "");
  }
  if (cfg.GetBool("dump-stats", false)) {
    m.sim().stats().Dump(std::cout);
  }
  const std::string stats_json = cfg.GetString("stats-json");
  if (!stats_json.empty()) {
    std::ofstream out(stats_json);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", stats_json.c_str());
      return 2;
    }
    m.sim().stats().DumpJson(out);
  }
  if (cfg.GetBool("race-check", false)) {
    for (const verify::RaceReport& r : race_detector.reports()) {
      std::fprintf(stderr, "%s\n",
                   verify::RaceDetector::Format(r, &assembled.program).c_str());
    }
    std::printf("race-check : %s (%llu racy access pair(s))\n",
                race_detector.clean() ? "clean" : "RACES FOUND",
                (unsigned long long)race_detector.race_hits());
    if (!race_detector.clean()) {
      return 3;
    }
  }
  return m.halted() ? 1 : 0;
}
