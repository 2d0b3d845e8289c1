// Shared types of the casc performance benchmark (perfbench/README.md).
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

class Probe;

// Everything one repetition ("rep") of a workload measured. Simulated values
// must repeat bit for bit for one seed; host times vary run to run.
struct RepResult {
  // --- simulated, exact ---------------------------------------------------
  uint64_t sim_cycles = 0;    // simulated cycles of the timed region
  uint64_t instructions = 0;  // retired on all cores: interpreted + native ops
  uint64_t events = 0;        // Simulation::TotalEventsFired() in the timed region
  uint32_t cores = 0;
  uint64_t attempted = 0;  // requests (jobs on interp_mix) the workload issued
  uint64_t verified = 0;   // of those, answered once with the right value
  std::vector<uint64_t> latencies;  // request sojourns in cycles, sorted
  // Per-layer counts and ratios, keyed by their BENCHMARK.json names. `layer`
  // is filled on every rep; `traced_layer` only on traced reps (values that
  // need an observer attached).
  std::map<std::string, double> layer;
  std::map<std::string, double> traced_layer;
  // Verification and cross-check failures, each a readable sentence.
  std::vector<std::string> errors;

  // --- host ---------------------------------------------------------------
  // Set-up (Machine construction, guests, warm-up) and the timed region, in
  // seconds at the calibration's reference host speed (calibrate.h), and as
  // wall seconds.
  double setup_s = 0;
  double run_s = 0;
  double setup_wall_s = 0;
  double run_wall_s = 0;
  std::string engine;  // "legacy" or "sharded"
  uint32_t host_threads = 0;
};

// One workload instance, built fresh for every rep from inputs the factory
// generated once from the seed.
class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the machine and guests and warms up: everything `setup_s` times.
  virtual void Setup(Probe& probe) = 0;
  // The timed region (`run_s`).
  virtual void Run(Probe& probe) = 0;
  // Checks every output and fills the simulated part of `r`.
  virtual void Collect(Probe& probe, RepResult* r) = 0;
};

using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

// Generates the workload's inputs from `seed` and returns a factory of reps
// over them; an empty function for an unknown name.
WorkloadFactory MakeWorkload(const std::string& name, uint64_t seed);

// Median of a sample (0 when empty).
inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Median of the smallest quarter of a sample (at least one value; 0 when
// empty). For host times: interference from other tenants only ever adds
// time, so the fastest reps are the least disturbed measurements, and the
// median of several of them is not set by one lucky rep.
inline double FastQuarter(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  v.resize((v.size() + 3) / 4);
  return Median(v);
}

// Nearest-rank percentile of a sorted sample (0 when empty); `above` receives
// how many samples rank above it.
inline uint64_t Percentile(const std::vector<uint64_t>& sorted, double q,
                           size_t* above = nullptr) {
  if (sorted.empty()) {
    return 0;
  }
  const size_t rank = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size()))), 1, sorted.size());
  if (above != nullptr) {
    *above = sorted.size() - rank;
  }
  return sorted[rank - 1];
}

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
