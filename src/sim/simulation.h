// The per-run simulation context: event queue, stats, RNG, and the clock
// definition. Every simulated component holds a reference to one Simulation.
//
// Sharded mode (DESIGN.md §4i): EnableSharding(n) splits the context into n
// shards, each with its own EventQueue and RNG stream. `queue()`, `now()` and
// `rng()` then resolve to the executing shard's slice via `shard::current`;
// shard 0 reuses the legacy queue and RNG object, so a sharded single-core
// machine draws the exact random stream and tick sequence the legacy path
// would. With sharding off every accessor returns
// the one legacy instance — the table indirection is the only cost.
#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cassert>
#include <memory>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/rng.h"
#include "src/sim/shard.h"
#include "src/sim/stats.h"
#include "src/sim/types.h"

namespace casc {

class Simulation {
 public:
  explicit Simulation(double ghz = 3.0, uint64_t seed = 1) : ghz_(ghz), seed_(seed), rng_(seed) {
    for (uint32_t s = 0; s < shard::kMaxShards; s++) {
      queue_tab_[s] = &queue_;
      rng_tab_[s] = &rng_;
    }
  }
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Splits the context into `n` shards. Must run before any event is
  // scheduled or random number drawn (Machine calls it during construction).
  void EnableSharding(uint32_t n) {
    assert(n >= 1 && n <= shard::kMaxShards);
    assert(queue_.Empty() && queue_.now() == 0);
    num_shards_ = n;
    for (uint32_t s = 1; s < n; s++) {
      extra_queues_.push_back(std::make_unique<EventQueue>());
      queue_tab_[s] = extra_queues_.back().get();
      // Independent per-shard streams derived from the run seed; shard 0
      // keeps the legacy stream (rng_ seeded with `seed` directly).
      extra_rngs_.push_back(std::make_unique<Rng>(seed_ + s * 0x9E3779B97F4A7C15ull));
      rng_tab_[s] = extra_rngs_.back().get();
    }
  }
  // 0 = legacy single-queue mode; >= 1 once EnableSharding ran.
  uint32_t num_shards() const { return num_shards_; }

  EventQueue& queue() { return *queue_tab_[shard::current]; }
  EventQueue& QueueFor(uint32_t s) { return *queue_tab_[s]; }
  StatsRegistry& stats() { return stats_; }
  Rng& rng() { return *rng_tab_[shard::current]; }

  // The cross-shard message router, installed by the ShardEngine. Null in
  // legacy mode.
  ShardRouter* router() const { return router_; }
  void set_router(ShardRouter* router) { router_ = router; }

  Tick now() const { return queue_tab_[shard::current]->now(); }
  double ghz() const { return ghz_; }

  // Sum of events fired across all shards (= events_fired() in legacy mode).
  uint64_t TotalEventsFired() const {
    uint64_t total = queue_.events_fired();
    for (const auto& q : extra_queues_) {
      total += q->events_fired();
    }
    return total;
  }

  double CyclesToNs(Tick cycles) const { return static_cast<double>(cycles) / ghz_; }
  Tick NsToCycles(double ns) const { return static_cast<Tick>(ns * ghz_ + 0.5); }

 private:
  double ghz_;
  uint64_t seed_;
  EventQueue queue_;
  StatsRegistry stats_;
  Rng rng_;
  uint32_t num_shards_ = 0;
  ShardRouter* router_ = nullptr;
  std::vector<std::unique_ptr<EventQueue>> extra_queues_;
  std::vector<std::unique_ptr<Rng>> extra_rngs_;
  EventQueue* queue_tab_[shard::kMaxShards];
  Rng* rng_tab_[shard::kMaxShards];
};

}  // namespace casc

#endif  // SRC_SIM_SIMULATION_H_
