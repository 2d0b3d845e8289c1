#include "src/sim/shard_engine.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace casc {

namespace {

constexpr Tick kTickMax = std::numeric_limits<Tick>::max();

Tick SaturatingAdd(Tick a, Tick b) { return b > kTickMax - a ? kTickMax : a + b; }

}  // namespace

ShardEngine::ShardEngine(Simulation& sim, uint32_t num_shards, Tick hop)
    : sim_(sim), num_shards_(num_shards), hop_(std::max<Tick>(1, hop)) {
  assert(num_shards >= 1 && num_shards <= shard::kMaxShards);
  run_pred_ = [] { return true; };
}

void ShardEngine::AddBarrierHook(std::function<void()> hook) {
  barrier_hooks_.push_back(std::move(hook));
}

void ShardEngine::SetHaltedFn(std::function<bool()> fn) { halted_fn_ = std::move(fn); }

Tick ShardEngine::NextTickAll() const {
  Tick t = kTickMax;
  for (uint32_t s = 0; s < num_shards_; s++) {
    t = std::min(t, sim_.QueueFor(s).NextTick());
  }
  return t;
}

void ShardEngine::FlushMessages() {
  for (uint32_t src = 0; src < num_shards_; src++) {
    for (Msg& m : outboxes_[src]) {
      EventQueue& q = sim_.QueueFor(m.dst);
      // Conservative lookahead guarantee: the effect time is at or after the
      // end of the window that produced the message, so it is never in the
      // target's past.
      assert(m.when >= q.now());
      q.ScheduleFn(m.when, std::move(m.fn));
    }
    outboxes_[src].clear();
  }
}

void ShardEngine::Post(uint32_t dst, Tick when, std::function<void()> fn) {
  assert(dst < num_shards_);
  if (!Executing()) {
    // Control phase (boot, barrier hooks, exit normalization): no window is
    // open, so scheduling into the target directly is deterministic.
    sim_.QueueFor(dst).ScheduleFn(when, std::move(fn));
    return;
  }
  outboxes_[shard::current].push_back(Msg{dst, when, std::move(fn)});
  if (solo_running_) {
    // The solo fast path assumed no other shard wakes before its horizon;
    // this message may wake one sooner. Abort at the next dispatch boundary,
    // and break any quiet-advance chain in progress (a core spin-waiting on
    // the woken shard would otherwise never return to the engine).
    posted_ = true;
    EventQueue& q = sim_.QueueFor(solo_shard_);
    q.ClampAdvanceLimit(q.now());
  }
}

uint64_t ShardEngine::Advance(Tick limit, uint64_t max_events, bool stop_on_halt,
                              bool normalize_to_limit) {
  const uint64_t total_before = sim_.TotalEventsFired();
  uint64_t fired = 0;
  for (;;) {
    // Barrier: hooks (window flush, halt merge), then the cross-shard
    // message flush, in fixed order — determinism is decided here.
    for (const auto& hook : barrier_hooks_) {
      hook();
    }
    FlushMessages();
    if (stop_on_halt && halted_fn_ && halted_fn_()) {
      break;
    }
    if (fired >= max_events) {
      break;
    }
    const Tick t = NextTickAll();
    if (t == kTickMax || t > limit) {
      break;
    }
    const Tick window_end = std::min(limit, SaturatingAdd(t, hop_ - 1));
    uint32_t active[shard::kMaxShards];
    uint32_t active_count = 0;
    for (uint32_t s = 0; s < num_shards_; s++) {
      if (sim_.QueueFor(s).NextTick() <= window_end) {
        active[active_count++] = s;
      }
    }
    assert(active_count > 0);
    if (active_count == 1) {
      // Solo fast path: one shard has all the near-term work (always the
      // case on single-core machines and during single-threaded program
      // phases). Run it beyond the window — up to the last tick before the
      // earliest possible cross-shard effect on any other shard — without
      // paying a barrier per window.
      const uint32_t s = active[0];
      Tick second = kTickMax;
      for (uint32_t o = 0; o < num_shards_; o++) {
        if (o != s) {
          second = std::min(second, sim_.QueueFor(o).NextTick());
        }
      }
      const Tick horizon =
          second == kTickMax ? limit : std::min(limit, SaturatingAdd(second, hop_ - 1));
      EventQueue& q = sim_.QueueFor(s);
      const uint64_t before = q.events_fired();
      const uint64_t budget = max_events - fired;
      posted_ = false;
      solo_running_ = true;
      solo_shard_ = s;
      executing_ = true;
      {
        shard::Scope scope(s);
        fired += q.RunWhile(horizon, [&] {
          if (posted_) {
            return false;
          }
          if (q.events_fired() - before >= budget) {
            return false;
          }
          return !(stop_on_halt && halted_fn_ && halted_fn_());
        });
      }
      executing_ = false;
      solo_running_ = false;
    } else {
      executing_ = true;
      for (uint32_t i = 0; i < active_count; i++) {
        shard::Scope scope(active[i]);
        fired += sim_.QueueFor(active[i]).RunWhile(window_end, run_pred_);
      }
      executing_ = false;
    }
  }
  // Exit normalization: bring every shard to one common clock so callers see
  // a single coherent now(). RunFor-style callers get exactly `limit`;
  // quiescence/budget/halt exits get the frontier the run reached (firing
  // the bounded set of stragglers behind it — deterministic: the frontier is
  // itself a pure function of the rounds above).
  Tick target = limit;
  if (!normalize_to_limit) {
    target = 0;
    for (uint32_t s = 0; s < num_shards_; s++) {
      target = std::max(target, sim_.QueueFor(s).now());
    }
  }
  for (uint32_t s = 0; s < num_shards_; s++) {
    shard::Scope scope(s);
    sim_.QueueFor(s).RunUntil(target);
  }
  // Normalization may itself have flushed writes or proposed halts; run one
  // final barrier so the caller observes a merged, message-flushed state.
  for (const auto& hook : barrier_hooks_) {
    hook();
  }
  FlushMessages();
  return sim_.TotalEventsFired() - total_before;
}

}  // namespace casc
