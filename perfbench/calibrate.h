// Host-speed calibration for the casc performance benchmark
// (perfbench/README.md, "Host speed").
//
// The benchmark runs on shared hosts whose speed drifts by tens of percent
// within seconds and by 2x across minutes. A host time is therefore measured
// in segments of about kSegmentS, with a short calibration pass between two
// segments: a fixed piece of work that belongs to the benchmark, not to the
// simulator, so a change to the program never changes it. Each segment's
// wall time is scaled by kReferencePassS over the mean of the passes on its
// two sides, which gives the seconds the segment would have taken at the
// reference speed. Raw wall seconds are kept too.
#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

#include <chrono>

namespace perfbench {

// Host seconds of one calibration pass: indirect calls through 512 distinct
// small functions, then eight independent chains of integer operations. It
// gauges the speed the host core currently gives branchy, call-heavy code and
// wide integer code. It touches almost no memory, so it neither disturbs the
// simulator's host caches nor tracks contention for memory.
double CalibrationPass();

// Wall time of a region, cut into calibrated segments.
class SpeedClock {
 public:
  // The pass time that defines reference speed: calibrated seconds are the
  // seconds a host on which one pass takes 0.4 ms would have spent. Passes
  // took 0.31-0.48 ms on a 4-vCPU "Intel(R) Xeon(R) Processor" KVM guest.
  static constexpr double kReferencePassS = 0.0004;
  static constexpr double kSegmentS = 0.02;

  // Starts a region with a calibration pass.
  void Start();
  // Closes the current segment, with a calibration pass, once it is at least
  // kSegmentS long; call it often.
  void Tick() {
    if (Seconds(Clock::now() - seg_start_) >= kSegmentS) {
      Cut();
    }
  }
  // Closes the current segment now; the next one starts after the pass.
  void Cut();

  // Wall seconds and calibrated seconds of the closed segments.
  double raw_s() const { return raw_s_; }
  double scaled_s() const { return scaled_s_; }

 private:
  using Clock = std::chrono::steady_clock;
  static double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }

  Clock::time_point seg_start_;
  double last_pass_s_ = 0;
  double raw_s_ = 0;
  double scaled_s_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
