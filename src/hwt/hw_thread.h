// A physical hardware thread (ptid): architected state plus the
// runnable/waiting/disabled state machine from §3.
#ifndef SRC_HWT_HW_THREAD_H_
#define SRC_HWT_HW_THREAD_H_

#include <cstdint>

#include "src/isa/isa.h"
#include "src/sim/types.h"

namespace casc {

// §3: "a given ptid can be in one of three states: runnable, waiting, or
// disabled".
enum class ThreadState : uint8_t {
  kDisabled = 0,  // does not execute until another ptid starts it
  kRunnable = 1,  // may be multiplexed onto the pipeline
  kWaiting = 2,   // blocked in mwait until a watched line is written
};

const char* ThreadStateName(ThreadState s);

// Where a thread's saved register state currently resides (§4).
enum class StorageTier : uint8_t {
  kRegFile = 0,  // large on-core register file: fastest restores
  kL2 = 1,
  kL3 = 2,
  kDram = 3,
};

const char* StorageTierName(StorageTier t);

// Full architected state of one hardware thread. Field order is a host
// cache-layout choice (no simulated-layout meaning): pc/mode/prio lead so
// the per-instruction reads (fetch pc, privilege check) and the per-pick
// scheduler read (prio) share the struct's first cache line instead of
// sitting past the 256-byte GPR file.
struct ArchState {
  uint64_t pc = 0;
  uint64_t mode = 0;      // 0 = user, 1 = supervisor
  uint64_t prio = 1;      // hardware scheduling weight
  uint64_t edp = 0;       // exception descriptor pointer (0 = no handler)
  uint64_t tdtr = 0;      // thread descriptor table base (0 = none)
  uint64_t tdt_size = 0;  // entries in the TDT
  uint64_t self_key = 0;  // secret-key model: this thread's management key
  uint64_t auth_key = 0;  // secret-key model: key presented to targets
  uint64_t gpr[kNumGprs] = {};

  bool is_supervisor() const { return mode != 0; }
};

class HwThread {
 public:
  HwThread(Ptid ptid, CoreId core) : ptid_(ptid), core_(core) {}

  Ptid ptid() const { return ptid_; }
  CoreId core() const { return core_; }

  ThreadState state() const { return state_; }
  void set_state(ThreadState s) { state_ = s; }

  ArchState& arch() { return arch_; }
  const ArchState& arch() const { return arch_; }

  StorageTier tier() const { return tier_; }
  void set_tier(StorageTier t) { tier_ = t; }

  // Tick at which the context restore completes; the scheduler will not
  // issue instructions for this thread before then.
  Tick ready_at() const { return ready_at_; }
  void set_ready_at(Tick t) { ready_at_ = t; }

  // Criticality pinning (§4: "selecting which threads are stored closer to
  // the core based on criticality").
  bool pinned() const { return pinned_; }
  void set_pinned(bool p) { pinned_ = p; }

  // Dirty/used register mask since the last full transfer (§4: "tracking
  // used/modified registers to avoid redundant transfers").
  uint32_t used_reg_count() const { return static_cast<uint32_t>(__builtin_popcount(used_mask_)); }
  void MarkRegUsed(uint32_t reg) { used_mask_ |= 1u << (reg & 31); }
  void ResetUsedRegs() { used_mask_ = 0; }

  // GPR helpers; writes through these maintain the used-register mask and
  // the r0-is-zero invariant.
  uint64_t ReadGpr(uint32_t reg) const { return reg == 0 ? 0 : arch_.gpr[reg & 31]; }
  void WriteGpr(uint32_t reg, uint64_t value) {
    if ((reg & 31) != 0) {
      arch_.gpr[reg & 31] = value;
      MarkRegUsed(reg);
    }
  }

 private:
  // Scheduler-hot fields first: SchedQueue::PickUpTo and NextWorkTick read
  // (state_, ready_at_) for the rotation slots they walk every simulated
  // tick, and must not drag the architected state's cache lines in to do it.
  Ptid ptid_;
  CoreId core_;
  ThreadState state_ = ThreadState::kDisabled;
  StorageTier tier_ = StorageTier::kRegFile;
  bool pinned_ = false;
  uint32_t used_mask_ = 0;
  Tick ready_at_ = 0;
  ArchState arch_;
};

}  // namespace casc

#endif  // SRC_HWT_HW_THREAD_H_
