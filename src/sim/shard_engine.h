// ShardEngine: conservative discrete-event execution of a sharded Simulation
// in serial rounds (DESIGN.md §4i).
//
// The engine advances all shards in *rounds*. Each round:
//
//   1. Barrier: run registered barrier hooks (memory window flush, halt
//      merge), then flush every cross-shard outbox into its target queue in
//      (source shard, post order).
//   2. Compute T = min NextTick over shards and the window end
//      E = min(limit, T + W - 1), where W = the minimum cross-shard latency
//      (`hop`). Conservative lookahead: any message generated at tick t in
//      this window carries an effect time >= t + W > E, so no shard can
//      receive work inside the window that produced it — shards with events
//      in [T, E] never see each other's effects within the window.
//   3. Execute: every shard with NextTick <= E runs its events up to E, one
//      after another in shard order on the calling thread. If exactly one
//      shard is active, a solo fast path runs it beyond E — up to just before
//      the next other shard could wake — and aborts early if it posts a
//      cross-shard message (see Post).
//
// Observable order is a pure function of (program, seed, config): rounds,
// window bounds, and flush order depend only on queue contents.
#ifndef SRC_SIM_SHARD_ENGINE_H_
#define SRC_SIM_SHARD_ENGINE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/shard.h"
#include "src/sim/simulation.h"
#include "src/sim/types.h"

namespace casc {

class ShardEngine final : public ShardRouter {
 public:
  ShardEngine(Simulation& sim, uint32_t num_shards, Tick hop);

  // Barrier hooks run at every round boundary, in registration order, before
  // the message flush.
  void AddBarrierHook(std::function<void()> hook);

  // Predicate consulted for halt-stop (DrainBudget): evaluated after the
  // barrier, where a merged halt is visible.
  void SetHaltedFn(std::function<bool()> fn);

  // Drives every shard to `limit` (or until the machine halts when
  // `stop_on_halt`, or `max_events` fire). On return all shards share the
  // same now(): `limit` when `normalize_to_limit`, else the max shard
  // frontier reached. Returns the number of events fired.
  uint64_t Advance(Tick limit, uint64_t max_events, bool stop_on_halt, bool normalize_to_limit);

  // Earliest live event across all shards (Tick max when drained).
  Tick NextTickAll() const;

  // --- ShardRouter ---------------------------------------------------------
  bool Executing() const override { return executing_; }
  void Post(uint32_t dst, Tick when, std::function<void()> fn) override;
  Tick hop() const override { return hop_; }

 private:
  struct Msg {
    uint32_t dst;
    Tick when;
    std::function<void()> fn;
  };

  void FlushMessages();

  Simulation& sim_;
  const uint32_t num_shards_;
  const Tick hop_;

  std::vector<std::function<void()>> barrier_hooks_;
  std::function<bool()> halted_fn_;
  std::function<bool()> run_pred_;  // constant-true predicate for window runs

  // One outbox per *source* shard, drained at barriers in shard order.
  std::vector<Msg> outboxes_[shard::kMaxShards];

  bool executing_ = false;
  bool posted_ = false;       // solo fast path abort flag
  bool solo_running_ = false;  // true only inside the solo fast path
  uint32_t solo_shard_ = 0;
};

}  // namespace casc

#endif  // SRC_SIM_SHARD_ENGINE_H_
