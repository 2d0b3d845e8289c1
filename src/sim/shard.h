// Shard identity for the sharded engine (DESIGN.md §4i).
//
// When a Machine runs sharded (`MachineConfig::host_threads == 1`), every
// simulated core — with its private caches, predecoded I-cache, and per-core
// device traffic — owns one EventQueue *shard*. The ShardEngine runs the
// shards one after another in conservative synchronization windows; all
// cross-shard effects travel as timestamped messages posted through a
// ShardRouter and flushed at the next window boundary in a fixed order, so
// observable event order is a pure function of (program, seed, config).
//
// `current` names the shard the engine is executing right now; components
// use it to pick their per-shard slice (event queue, RNG stream, stat cell,
// trace buffer). Outside a window it is 0, which aliases the legacy
// single-queue state — legacy code paths are unchanged.
#ifndef SRC_SIM_SHARD_H_
#define SRC_SIM_SHARD_H_

#include <cstdint>
#include <functional>

#include "src/sim/types.h"

namespace casc {
namespace shard {

// Upper bound on shards (= simulated cores) per machine; sized so per-shard
// arrays can be fixed-capacity and indexed without bounds checks on the hot
// path.
inline constexpr uint32_t kMaxShards = 64;

// The shard the engine is executing right now.
inline uint32_t current = 0;

// RAII guard: enters shard `s`.
class Scope {
 public:
  explicit Scope(uint32_t s) : saved_(current) { current = s; }
  ~Scope() { current = saved_; }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  uint32_t saved_;
};

}  // namespace shard

// Cross-shard message router, implemented by the ShardEngine. Components
// (ThreadSystem, MemorySystem, Fabric) hold a pointer to it; a null pointer
// or `Executing() == false` means "no window is open: mutate the target
// directly".
class ShardRouter {
 public:
  virtual ~ShardRouter() = default;

  // True while a shard is running inside a synchronization window (between
  // barriers). Direct cross-shard mutation is forbidden in that state.
  virtual bool Executing() const = 0;

  // Posts `fn` to run in shard `dst`'s event queue at absolute tick `when`.
  // `when` must be >= the end of the current window (guaranteed whenever the
  // charged latency is >= the cross-shard hop, which bounds the window
  // size). Messages are flushed at the barrier in (source shard, post order).
  virtual void Post(uint32_t dst, Tick when, std::function<void()> fn) = 0;

  // Minimum cross-shard latency in ticks: the conservative lookahead that
  // sizes the synchronization window.
  virtual Tick hop() const = 0;
};

}  // namespace casc

#endif  // SRC_SIM_SHARD_H_
