// Unit tests for the simulation kernel: event queue ordering/cancellation,
// histogram accuracy, RNG distribution sanity, and config parsing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "src/sim/config.h"
#include "src/sim/event_queue.h"
#include "src/sim/json.h"
#include "src/sim/rng.h"
#include "src/sim/simulation.h"
#include "src/sim/stats.h"

namespace casc {
namespace {

TEST(EventQueueTest, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleFn(30, [&] { order.push_back(3); });
  q.ScheduleFn(10, [&] { order.push_back(1); });
  q.ScheduleFn(20, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueueTest, SameTickIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 8; i++) {
    q.ScheduleFn(5, [&order, i] { order.push_back(i); });
  }
  q.RunAll();
  for (int i = 0; i < 8; i++) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueueTest, ReusableEventRescheduleAndCancel) {
  EventQueue q;
  int fired = 0;
  LambdaEvent ev([&] { fired++; });
  q.Schedule(&ev, 10);
  EXPECT_TRUE(ev.scheduled());
  q.Schedule(&ev, 20);  // reschedule supersedes the earlier entry
  q.RunUntil(15);
  EXPECT_EQ(fired, 0);
  q.RunUntil(25);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(ev.scheduled());

  q.Schedule(&ev, 30);
  q.Deschedule(&ev);
  q.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, EventCanRescheduleItself) {
  EventQueue q;
  int fired = 0;
  Event* self = nullptr;
  LambdaEvent ev([&] {
    fired++;
    if (fired < 5) {
      q.ScheduleAfter(self, 7);
    }
  });
  self = &ev;
  q.Schedule(&ev, 0);
  q.RunAll();
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(q.now(), 28u);
}

TEST(EventQueueTest, NextTickSkipsCancelled) {
  EventQueue q;
  LambdaEvent a([] {});
  q.Schedule(&a, 5);
  q.ScheduleFn(9, [] {});
  q.Deschedule(&a);
  EXPECT_EQ(q.NextTick(), 9u);
  EXPECT_EQ(q.LiveCount(), 1u);
}

TEST(EventQueueTest, DescheduledEventMayBeFreedBeforeItsTick) {
  // The owner keeps an Event alive only while it is scheduled: once
  // descheduled it may be destroyed before the tick it was due at, whether it
  // sat in a wheel bucket or in the far-future heap. Each shares its tick with
  // a one-shot, so the queue still runs that bucket and pops that heap tick.
  constexpr Tick kFar = 3 * EventQueue::kWheelTicks;
  EventQueue q;
  std::vector<Tick> fired;
  auto near = std::make_unique<LambdaEvent<std::function<void()>>>([] { FAIL(); });
  auto far = std::make_unique<LambdaEvent<std::function<void()>>>([] { FAIL(); });
  q.Schedule(near.get(), 5);
  q.ScheduleFn(5, [&] { fired.push_back(q.now()); });
  q.Schedule(far.get(), kFar);
  q.ScheduleFn(kFar, [&] { fired.push_back(q.now()); });
  q.Deschedule(near.get());
  q.Deschedule(far.get());
  near.reset();
  far.reset();
  EXPECT_EQ(q.RunAll(), 2u);
  EXPECT_EQ(fired, (std::vector<Tick>{5, kFar}));
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, RunUntilAdvancesNowWithoutEvents) {
  EventQueue q;
  q.RunUntil(100);
  EXPECT_EQ(q.now(), 100u);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, ScheduleFromWithinCallback) {
  EventQueue q;
  int late = 0;
  q.ScheduleFn(1, [&] { q.ScheduleFn(4, [&] { late = static_cast<int>(q.now()); }); });
  q.RunAll();
  EXPECT_EQ(late, 4);
}

TEST(EventQueueTest, DescheduleOfPendingEventThenReschedule) {
  EventQueue q;
  int fired = 0;
  LambdaEvent ev([&] { fired++; });
  q.Schedule(&ev, 10);
  q.Deschedule(&ev);
  EXPECT_FALSE(ev.scheduled());
  q.RunUntil(20);
  EXPECT_EQ(fired, 0);
  // The object is immediately reusable after cancellation.
  q.Schedule(&ev, 25);
  q.RunAll();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 25u);
}

TEST(EventQueueTest, RescheduleWhilePendingMovesBothDirections) {
  EventQueue q;
  std::vector<Tick> fired_at;
  LambdaEvent ev([&] { fired_at.push_back(q.now()); });
  // Near -> far: the event leaves its wheel bucket for the heap.
  q.Schedule(&ev, 10);
  q.Schedule(&ev, EventQueue::kWheelTicks + 500);
  q.RunUntil(100);
  EXPECT_TRUE(fired_at.empty());
  q.RunAll();
  ASSERT_EQ(fired_at.size(), 1u);
  EXPECT_EQ(fired_at[0], EventQueue::kWheelTicks + 500);
  // Far -> near: the event leaves the heap for the wheel. Its old far tick
  // must neither fire nor drag now() forward.
  const Tick base = q.now();
  q.Schedule(&ev, base + EventQueue::kWheelTicks + 500);
  q.Schedule(&ev, base + 3);
  q.RunAll();
  ASSERT_EQ(fired_at.size(), 2u);
  EXPECT_EQ(fired_at[1], base + 3);
  EXPECT_EQ(q.now(), base + 3);
}

TEST(EventQueueTest, FarFutureSchedulingFiresInOrder) {
  EventQueue q;
  std::vector<int> order;
  const Tick far = 3 * EventQueue::kWheelTicks + 7;  // beyond the wheel window
  q.ScheduleFn(far, [&] { order.push_back(2); });
  q.ScheduleFn(far + 1, [&] { order.push_back(3); });
  q.ScheduleFn(5, [&] { order.push_back(1); });
  EXPECT_EQ(q.NextTick(), 5u);
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), far + 1);
}

TEST(EventQueueTest, HeapToWheelMigrationKeepsFifoWithinTick) {
  // An entry scheduled while far-future (heap overflow) and one scheduled
  // directly into the wheel for the same tick must fire in schedule order.
  EventQueue q;
  std::vector<int> order;
  const Tick t = EventQueue::kWheelTicks + 10;
  q.ScheduleFn(t, [&] { order.push_back(1); });  // heap at schedule time
  q.RunUntil(t - 1);                             // migrates into the wheel
  q.ScheduleFn(t, [&] { order.push_back(2); });  // direct same-tick append
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, RunUntilCrossesEmptyWheelSpans) {
  EventQueue q;
  int fired = 0;
  q.ScheduleFn(3, [&] { fired++; });
  q.RunAll();
  // Jump now() across several full wheel wraps with nothing scheduled.
  const Tick target = 10 * EventQueue::kWheelTicks + 123;
  q.RunUntil(target);
  EXPECT_EQ(q.now(), target);
  EXPECT_TRUE(q.Empty());
  // The wheel must still index correctly after the jump.
  q.ScheduleFn(target + 2, [&] { fired++; });
  q.ScheduleFn(target + EventQueue::kWheelTicks + 2, [&] { fired++; });
  q.RunAll();
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(q.now(), target + EventQueue::kWheelTicks + 2);
}

TEST(EventQueueTest, RepeatedRescheduleKeepsStorageBounded) {
  // Regression: reschedules and cancels used to leave dead entries behind,
  // which accumulated until a full drain. A reschedule or cancel must take
  // the event out of the wheel or the heap, so storage holds exactly the
  // live population.
  EventQueue q;
  LambdaEvent ev([] {});
  for (Tick t = 1; t <= 10000; t++) {
    q.Schedule(&ev, t);  // spans both the wheel and the heap overflow
    ASSERT_EQ(q.InternalEntryCount(), q.LiveCount()) << "t=" << t;
  }
  EXPECT_EQ(q.LiveCount(), 1u);
  EXPECT_LT(q.InternalEntryCount(), 256u);
  EXPECT_EQ(q.RunAll(), 1u);
  EXPECT_EQ(q.now(), 10000u);
  EXPECT_FALSE(ev.scheduled());

  // Schedule/cancel churn with zero live survivors is also bounded.
  LambdaEvent other([] {});
  for (int i = 0; i < 10000; i++) {
    q.Schedule(&other, q.now() + 1 + (i % 100));
    q.Deschedule(&other);
  }
  EXPECT_EQ(q.LiveCount(), 0u);
  EXPECT_LT(q.InternalEntryCount(), 256u);
  EXPECT_EQ(q.InternalEntryCount(), q.LiveCount());
}

// Delay before the ticker's next self-reschedule, given the fires it has
// left: mostly near ticks (0 = same tick, behind the cursor), sometimes past
// the wheel window.
Tick TickerDelay(int left) {
  return left % 7 == 3 ? EventQueue::kWheelTicks + static_cast<Tick>(left)
                       : static_cast<Tick>(left % 4);
}

// Delay before a one-shot chain's next hop, given the hops it has left.
Tick ChainDelay(int hops) {
  return hops % 5 == 2 ? 2 * EventQueue::kWheelTicks : static_cast<Tick>(hops % 3);
}

TEST(EventQueueTest, RandomizedDifferentialAgainstReferenceModel) {
  // Drive the queue with random schedules/cancels/runs and check every fire
  // against a brute-force reference model ordered by (when, schedule-seq).
  // Besides plain one-shots and caller-owned events, the population holds an
  // event that reschedules itself from inside Fire() (the core-tick shape)
  // and one-shots that schedule their successor from inside their callback
  // (one-shot pool reuse); the model replays those follow-ups as it fires.
  // Advancer one-shots take the core-park shape inside a run: cancel every
  // reusable event, then AdvanceIfIdle, jumping the clock past the ticks the
  // cancelled events were due at. Heap-tie ops deschedule or reschedule a
  // far-future event queued behind a same-tick peer, so it is never the heap
  // top. After every step the queue holds exactly its live events.
  EventQueue q;
  Rng rng(2026);
  std::vector<int> got;
  std::vector<int> want;

  enum class Kind { kPlain, kTicker, kChain, kAdvancer };
  struct Ref {
    Tick when;
    uint64_t seq;
    int id;
    Kind kind;
    int hops;         // kChain: hops still to schedule after this one
    Tick target = 0;  // kAdvancer: the AdvanceIfIdle argument
  };
  std::vector<Ref> ref;  // live entries in the reference model
  uint64_t next_seq = 0;
  Tick model_now = 0;
  int next_id = 0;

  constexpr int kPool = 6;  // reusable events; slot i fires id 1000000 + i
  std::vector<std::unique_ptr<LambdaEvent<std::function<void()>>>> pool;
  for (int i = 0; i < kPool; i++) {
    pool.push_back(std::make_unique<LambdaEvent<std::function<void()>>>(
        [&got, i] { got.push_back(1000000 + i); }));
  }

  static constexpr int kTickerId = 2000000;
  struct Ticker final : public Event {
    EventQueue* q = nullptr;
    std::vector<int>* got = nullptr;
    int left = 0;
    void Fire() override {
      got->push_back(kTickerId);
      if (left > 0) {
        q->ScheduleAfter(this, TickerDelay(left));
        left--;
      }
    }
  };
  Ticker ticker;
  ticker.q = &q;
  ticker.got = &got;
  int model_ticker_left = 0;

  // Chain hops record 3000000 + 10 * chain id + hops left.
  std::function<void(Tick, int, int)> arm_chain = [&](Tick when, int id, int hops) {
    q.ScheduleFn(when, [&arm_chain, &got, &q, id, hops] {
      got.push_back(3000000 + 10 * id + hops);
      if (hops > 0) {
        arm_chain(q.now() + ChainDelay(hops), id, hops - 1);
      }
    });
  };

  // Mirrors the queue's AdvanceIfIdle ceiling: 0 outside a run, the run's
  // limit inside one.
  Tick model_advance_limit = 0;
  int advances = 0;

  auto ref_min = [&]() -> size_t {
    size_t best = SIZE_MAX;
    for (size_t j = 0; j < ref.size(); j++) {
      if (best == SIZE_MAX || ref[j].when < ref[best].when ||
          (ref[j].when == ref[best].when && ref[j].seq < ref[best].seq)) {
        best = j;
      }
    }
    return best;
  };
  auto ref_erase_slot = [&](int i) {
    for (size_t j = 0; j < ref.size(); j++) {
      if (ref[j].id == 1000000 + i) {
        ref.erase(ref.begin() + j);
        return;
      }
    }
  };
  // Fires the model's earliest entry if its tick is <= limit, scheduling the
  // follow-up the real event schedules from inside its own fire.
  auto model_fire_until = [&](Tick limit) {
    const size_t j = ref_min();
    if (j == SIZE_MAX || ref[j].when > limit) {
      return false;
    }
    const Ref r = ref[j];
    ref.erase(ref.begin() + j);
    model_now = r.when;
    if (r.kind == Kind::kTicker) {
      want.push_back(kTickerId);
      if (model_ticker_left > 0) {
        ref.push_back({model_now + TickerDelay(model_ticker_left), next_seq++, kTickerId,
                       Kind::kTicker, 0});
        model_ticker_left--;
      }
    } else if (r.kind == Kind::kChain) {
      want.push_back(3000000 + 10 * r.id + r.hops);
      if (r.hops > 0) {
        ref.push_back({model_now + ChainDelay(r.hops), next_seq++, r.id, Kind::kChain,
                       r.hops - 1});
      }
    } else if (r.kind == Kind::kAdvancer) {
      for (int i = 0; i < kPool; i++) {
        ref_erase_slot(i);
      }
      // Allowed only with nothing else live, not behind now(), and not past
      // the run's limit.
      const bool advanced =
          ref.empty() && r.target >= model_now && r.target <= model_advance_limit;
      if (advanced) {
        model_now = r.target;
        advances++;
      }
      want.push_back(4000000 + 10 * r.id + (advanced ? 1 : 0));
    } else {
      want.push_back(r.id);
    }
    return true;
  };
  constexpr Tick kMax = std::numeric_limits<Tick>::max();

  for (int step = 0; step < 6000; step++) {
    const uint64_t op = rng.NextBounded(106);
    if (op < 30) {
      const Tick when = model_now + rng.NextBounded(3 * EventQueue::kWheelTicks);
      const int id = next_id++;
      ref.push_back({when, next_seq++, id, Kind::kPlain, 0});
      q.ScheduleFn(when, [&got, id] { got.push_back(id); });
    } else if (op < 45) {
      const int i = static_cast<int>(rng.NextBounded(kPool));
      const Tick when = model_now + rng.NextBounded(3 * EventQueue::kWheelTicks);
      ref_erase_slot(i);  // a reschedule supersedes the earlier entry
      ref.push_back({when, next_seq++, 1000000 + i, Kind::kPlain, 0});
      q.Schedule(pool[i].get(), when);
    } else if (op < 52) {
      const int i = static_cast<int>(rng.NextBounded(kPool));
      ref_erase_slot(i);
      q.Deschedule(pool[i].get());
    } else if (op < 56) {
      const Tick when = model_now + rng.NextBounded(EventQueue::kWheelTicks);
      const int left = static_cast<int>(rng.NextBounded(24));
      if (!ticker.scheduled()) {
        ticker.left = left;
        model_ticker_left = left;
        ref.push_back({when, next_seq++, kTickerId, Kind::kTicker, 0});
        q.Schedule(&ticker, when);
      }
    } else if (op < 60) {
      const Tick when = model_now + rng.NextBounded(2 * EventQueue::kWheelTicks);
      const int hops = static_cast<int>(rng.NextBounded(9));
      const int id = next_id++;
      ref.push_back({when, next_seq++, id, Kind::kChain, hops});
      arm_chain(when, id, hops);
    } else if (op < 70) {
      const bool fired = model_fire_until(kMax);
      EXPECT_EQ(q.RunOne(), fired);
      EXPECT_EQ(q.now(), model_now);
    } else if (op < 80) {
      // RunOneUntil: fires the head only if it is due by `limit`; a refusal
      // must leave now() untouched.
      const Tick limit = model_now + rng.NextBounded(EventQueue::kWheelTicks / 2);
      const bool fired = model_fire_until(limit);
      EXPECT_EQ(q.RunOneUntil(limit), fired);
      EXPECT_EQ(q.now(), model_now);
    } else if (op < 88) {
      // RunWhile whose predicate turns false after `budget` fires, usually
      // with due events still pending inside the window.
      const Tick limit = model_now + rng.NextBounded(2 * EventQueue::kWheelTicks);
      const uint64_t budget = rng.NextBounded(8);
      uint64_t model_fired = 0;
      while (model_fired < budget && model_fire_until(limit)) {
        model_fired++;
      }
      uint64_t left = budget;
      EXPECT_EQ(q.RunWhile(limit, [&left] { return left-- > 0; }), model_fired);
      EXPECT_EQ(q.now(), model_now);  // left at the last fired tick
    } else if (op < 92) {
      // Idle jump: an advancer queued behind every pending one-shot fires
      // inside RunUntil or RunWhile. Some reusable events are first moved
      // past it, so its cancels empty wheel and heap ticks that the jump
      // crosses. Half the time the run's limit equals the target, so the run
      // ends with the clock where the jump left it.
      const Tick when =
          model_now + 3 * EventQueue::kWheelTicks + rng.NextBounded(EventQueue::kWheelTicks);
      for (int i = 0; i < kPool; i++) {
        if (rng.NextBounded(2) == 0) {
          const Tick later = when + 1 + rng.NextBounded(3 * EventQueue::kWheelTicks);
          ref_erase_slot(i);
          ref.push_back({later, next_seq++, 1000000 + i, Kind::kPlain, 0});
          q.Schedule(pool[i].get(), later);
        }
      }
      const Tick target = when + rng.NextBounded(3 * EventQueue::kWheelTicks);
      const Tick limit = rng.NextBounded(2) == 0
                             ? target
                             : when + rng.NextBounded(3 * EventQueue::kWheelTicks);
      const bool use_run_while = rng.NextBounded(2) == 0;
      const int id = next_id++;
      ref.push_back({when, next_seq++, id, Kind::kAdvancer, 0, target});
      q.ScheduleFn(when, [&got, &q, &pool, id, target] {
        for (auto& ev : pool) {
          q.Deschedule(ev.get());
        }
        got.push_back(4000000 + 10 * id + (q.AdvanceIfIdle(target) ? 1 : 0));
      });
      model_advance_limit = limit;
      uint64_t model_fired = 0;
      while (model_fire_until(limit)) {
        model_fired++;
      }
      model_advance_limit = 0;
      if (use_run_while) {
        EXPECT_EQ(q.RunWhile(limit, [] { return true; }), model_fired);
      } else {
        model_now = std::max(model_now, limit);
        q.RunUntil(limit);
      }
      EXPECT_EQ(q.now(), model_now);
    } else if (op >= 100) {
      // Heap ties: a one-shot, pool event i and another one-shot wait in the
      // far-future heap at one tick, so i sits behind a peer and is not the
      // heap top. Then i is descheduled or moved to a nearby far tick (maybe
      // the same one, now behind its second peer).
      const Tick far = model_now + EventQueue::kWheelTicks +
                       rng.NextBounded(2 * EventQueue::kWheelTicks);
      const int i = static_cast<int>(rng.NextBounded(kPool));
      auto tie = [&] {
        const int id = next_id++;
        ref.push_back({far, next_seq++, id, Kind::kPlain, 0});
        q.ScheduleFn(far, [&got, id] { got.push_back(id); });
      };
      tie();
      ref_erase_slot(i);
      ref.push_back({far, next_seq++, 1000000 + i, Kind::kPlain, 0});
      q.Schedule(pool[i].get(), far);
      tie();
      ref_erase_slot(i);
      if (rng.NextBounded(2) == 0) {
        q.Deschedule(pool[i].get());
      } else {
        const Tick later = far + rng.NextBounded(3);
        ref.push_back({later, next_seq++, 1000000 + i, Kind::kPlain, 0});
        q.Schedule(pool[i].get(), later);
      }
    } else {
      const Tick limit = model_now + rng.NextBounded(2 * EventQueue::kWheelTicks);
      model_advance_limit = limit;
      while (model_fire_until(limit)) {
      }
      model_advance_limit = 0;
      model_now = std::max(model_now, limit);
      q.RunUntil(limit);
      EXPECT_EQ(q.now(), model_now);
    }
    ASSERT_EQ(got, want) << "diverged at step " << step;
    ASSERT_EQ(q.LiveCount(), ref.size()) << "step " << step;
    ASSERT_EQ(q.InternalEntryCount(), q.LiveCount()) << "step " << step;
  }
  q.RunAll();
  while (model_fire_until(kMax)) {
  }
  EXPECT_EQ(got, want);
  EXPECT_TRUE(q.Empty());
  EXPECT_GT(advances, 20);  // the idle-jump path was exercised, not just refused
}

TEST(EventQueueTest, FarEventMigratesAfterIdleJumpPastDescheduledHeapEvent) {
  // A heap event at 5000 is descheduled before AdvanceIfIdle jumps the clock
  // to 6000. A far event scheduled after the jump must still
  // migrate into the wheel on time while 1-tick hops keep the wheel busy:
  // it fires at 11000, ahead of the hop queued for that tick, and the clock
  // never runs backwards.
  EventQueue q;
  LambdaEvent dead([] {});
  q.Schedule(&dead, 5000);
  q.Deschedule(&dead);
  std::vector<Tick> fire_ticks;
  Tick far_fired_at = 0;
  std::function<void()> hop = [&] {
    fire_ticks.push_back(q.now());
    if (q.now() < 12000) {
      q.ScheduleFnAfter(1, hop);
    }
  };
  q.ScheduleFn(0, [&] {
    ASSERT_TRUE(q.AdvanceIfIdle(6000));
    q.ScheduleFn(11000, [&] {
      far_fired_at = q.now();
      fire_ticks.push_back(q.now());
    });
    q.ScheduleFnAfter(1, hop);
  });
  q.RunUntil(20000);
  EXPECT_EQ(far_fired_at, 11000u);
  ASSERT_EQ(fire_ticks.size(), 6001u);
  EXPECT_TRUE(std::is_sorted(fire_ticks.begin(), fire_ticks.end()));
  EXPECT_EQ(fire_ticks[11000 - 6001], 11000u);  // the far event, before the hop
  EXPECT_EQ(q.now(), 20000u);
}

TEST(EventQueueTest, OneShotChainKeepsPoolAndStorageBounded) {
  // Each hop schedules the next from inside its callback, now and then past
  // the wheel window. The running hop's event goes back to the pool once the
  // callback returns, so two pooled events serve the whole chain.
  EventQueue q;
  int fired = 0;
  std::function<void()> hop = [&] {
    if (++fired < 10000) {
      q.ScheduleFnAfter(fired % 100 == 0 ? EventQueue::kWheelTicks + 7 : fired % 3, hop);
    }
  };
  q.ScheduleFn(0, hop);
  size_t max_entries = 0;
  while (q.RunOne()) {
    max_entries = std::max(max_entries, q.InternalEntryCount());
    ASSERT_EQ(q.InternalEntryCount(), q.LiveCount());
  }
  EXPECT_EQ(fired, 10000);
  EXPECT_EQ(q.events_fired(), 10000u);
  EXPECT_LE(q.OneShotPoolSize(), 2u);
  EXPECT_LE(max_entries, 2u);
  EXPECT_EQ(q.InternalEntryCount(), 0u);
}

TEST(EventQueueTest, DestroyingQueueReleasesPendingOneShotCaptures) {
  auto token = std::make_shared<int>(7);
  {
    EventQueue q;
    q.ScheduleFn(10, [token] {});                                // wheel
    q.ScheduleFn(3 * EventQueue::kWheelTicks, [token] {});       // heap
    q.ScheduleFn(1, [token] {});
    EXPECT_EQ(token.use_count(), 4);
    EXPECT_TRUE(q.RunOne());
    EXPECT_EQ(token.use_count(), 3);  // a fired one-shot drops its captures at once
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueueTest, SchedulePastTickClampsToNow) {
  // Scheduling behind now() used to compute the unsigned wheel distance
  // `when - now_`, wrap, and misfile the entry into the far-future heap,
  // where it jammed NextTick(). Past ticks must clamp to now() and fire on
  // the next dispatch.
  EventQueue q;
  q.RunUntil(100);
  int fired = 0;
  LambdaEvent ev([&] { fired++; });
  q.Schedule(&ev, 40);  // 60 ticks in the past
  EXPECT_EQ(q.NextTick(), 100u);
  EXPECT_TRUE(q.RunOne());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), 100u);

  q.ScheduleFn(7, [&] { fired++; });  // one-shot path clamps identically
  EXPECT_EQ(q.NextTick(), 100u);
  q.RunAll();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueueTest, ScheduleAfterSaturatesAtTickMax) {
  constexpr Tick kMax = std::numeric_limits<Tick>::max();
  EventQueue q;
  q.RunUntil(1000);
  // now + delta would wrap into the past; the sum must saturate instead.
  LambdaEvent ev([] {});
  q.ScheduleAfter(&ev, kMax - 10);
  EXPECT_TRUE(ev.scheduled());
  EXPECT_EQ(ev.when(), kMax);
  q.Deschedule(&ev);

  // Exact fit (no overflow) lands on kMax without clamping side effects.
  LambdaEvent ev2([] {});
  q.ScheduleAfter(&ev2, kMax - 1000);
  EXPECT_EQ(ev2.when(), kMax);
  q.Deschedule(&ev2);

  int fired = 0;
  q.ScheduleFnAfter(kMax, [&] { fired++; });
  EXPECT_EQ(q.NextTick(), kMax);  // live at the top of tick space, not wrapped
  q.RunUntil(kMax);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), kMax);
}

TEST(EventQueueTest, AdvanceIfIdleNeverCrossesRunLimit) {
  // The sharded engine runs each shard one synchronization window at a time;
  // a core's quiet-advance must stop at the window edge or it would slide
  // past the barrier and observe cross-shard effects early.
  EventQueue q;
  bool within = false;
  bool beyond = true;
  q.ScheduleFn(50, [&] {
    within = q.AdvanceIfIdle(90);   // inside the limit: allowed
    beyond = q.AdvanceIfIdle(150);  // would cross RunUntil(100): refused
  });
  q.RunUntil(100);
  EXPECT_TRUE(within);
  EXPECT_FALSE(beyond);
  EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueueTest, AdvanceLimitRestoredAcrossNestedRuns) {
  EventQueue q;
  bool inner_ok = false;
  bool outer_ok = false;
  bool outer_blocked = false;
  q.ScheduleFn(10, [&] {
    // A nested windowed run imposes its own tighter ceiling...
    q.ScheduleFn(20, [&] { inner_ok = q.AdvanceIfIdle(30); });
    q.RunWhile(40, [] { return true; });
    // ...and the outer ceiling must be back in force on return.
    outer_ok = q.AdvanceIfIdle(80);
    outer_blocked = !q.AdvanceIfIdle(200);
  });
  q.RunUntil(100);
  EXPECT_TRUE(inner_ok);
  EXPECT_TRUE(outer_ok);
  EXPECT_TRUE(outer_blocked);
  EXPECT_EQ(q.now(), 100u);
}

TEST(EventQueueTest, ClampAdvanceLimitBreaksQuietAdvanceChain) {
  // Solo fast path abort: a cross-shard Post clamps the running shard's
  // advance ceiling so its quiet-advance chain breaks at the next check
  // instead of sailing past the message's effect tick.
  EventQueue q;
  bool after_clamp = true;
  q.ScheduleFn(10, [&] {
    EXPECT_TRUE(q.AdvanceIfIdle(20));
    q.ClampAdvanceLimit(q.now());
    after_clamp = q.AdvanceIfIdle(21);
  });
  q.RunWhile(1000, [] { return true; });
  EXPECT_FALSE(after_clamp);
  EXPECT_EQ(q.now(), 20u);  // RunWhile leaves now() where execution stopped
}

TEST(EventQueueTest, WindowedExecutionMatchesMonolithicRun) {
  // Randomized differential: the same self-rescheduling event population run
  // (a) in one RunAll and (b) chopped into fixed windows the way the shard
  // engine drives each shard. Firing order and every draw from the
  // data-dependent Rng must be identical.
  constexpr Tick kWindow = 30;
  constexpr int kChains = 8;
  constexpr int kSteps = 200;
  auto run = [](bool windowed) {
    EventQueue q;
    Rng rng(0xC0FFEE);
    std::vector<std::pair<Tick, int>> log;
    std::function<void(int, int)> arm = [&](int id, int remaining) {
      if (remaining == 0) {
        return;
      }
      q.ScheduleFnAfter(1 + rng.NextBounded(3 * kWindow), [&arm, &q, &log, id, remaining] {
        log.emplace_back(q.now(), id);
        arm(id, remaining - 1);
      });
    };
    for (int id = 0; id < kChains; id++) {
      arm(id, kSteps);
    }
    if (windowed) {
      while (!q.Empty()) {
        const Tick t = q.NextTick();
        q.RunWhile(t + kWindow - 1, [] { return true; });
      }
    } else {
      q.RunAll();
    }
    return log;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(HistogramTest, ExactForSmallValues) {
  Histogram h;
  for (uint64_t v = 0; v < 16; v++) {
    h.Record(v);
  }
  EXPECT_EQ(h.count(), 16u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 15u);
  EXPECT_DOUBLE_EQ(h.mean(), 7.5);
  EXPECT_EQ(h.Quantile(0.0), 0u);
  EXPECT_EQ(h.Quantile(1.0), 15u);
}

TEST(HistogramTest, QuantileBoundedRelativeError) {
  Histogram h;
  Rng rng(42);
  std::vector<uint64_t> vals;
  for (int i = 0; i < 100000; i++) {
    const uint64_t v = rng.NextRange(1, 1000000);
    vals.push_back(v);
    h.Record(v);
  }
  std::sort(vals.begin(), vals.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const uint64_t exact = vals[static_cast<size_t>(q * (vals.size() - 1))];
    const uint64_t est = h.Quantile(q);
    const double rel = std::abs(static_cast<double>(est) - static_cast<double>(exact)) /
                       static_cast<double>(exact);
    EXPECT_LT(rel, 0.07) << "q=" << q << " exact=" << exact << " est=" << est;
  }
}

TEST(HistogramTest, MergeMatchesCombinedRecording) {
  Histogram a;
  Histogram b;
  Histogram both;
  Rng rng(7);
  for (int i = 0; i < 1000; i++) {
    const uint64_t v = rng.NextRange(0, 5000);
    ((i % 2 == 0) ? a : b).Record(v);
    both.Record(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.max(), both.max());
  EXPECT_EQ(a.P99(), both.P99());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(9);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; i++) {
    sum += rng.NextExponential(100.0);
  }
  EXPECT_NEAR(sum / n, 100.0, 2.0);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    const uint64_t v = rng.NextRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, ParetoExceedsScale) {
  Rng rng(11);
  for (int i = 0; i < 1000; i++) {
    EXPECT_GE(rng.NextPareto(10.0, 2.0), 10.0);
  }
}

TEST(ConfigTest, ParsesTypedFlags) {
  const char* argv[] = {"prog", "--threads=64", "--load=0.8", "--name=htm", "--fast"};
  Config cfg;
  ASSERT_TRUE(cfg.ParseArgs(5, argv));
  EXPECT_EQ(cfg.GetInt("threads", 0), 64);
  EXPECT_DOUBLE_EQ(cfg.GetDouble("load", 0), 0.8);
  EXPECT_EQ(cfg.GetString("name"), "htm");
  EXPECT_TRUE(cfg.GetBool("fast", false));
  EXPECT_EQ(cfg.GetInt("missing", -3), -3);
}

TEST(ConfigTest, RejectsMalformed) {
  const char* argv[] = {"prog", "oops"};
  Config cfg;
  std::string err;
  EXPECT_FALSE(cfg.ParseArgs(2, argv, &err));
  EXPECT_NE(err.find("oops"), std::string::npos);
}

TEST(ConfigTest, CheckKnownKeysNamesTheFirstUnknownKey) {
  const char* argv[] = {"prog", "--seed=3", "--max-cyclez=5", "--trace"};
  Config cfg;
  ASSERT_TRUE(cfg.ParseArgs(4, argv));
  std::string err;
  EXPECT_TRUE(cfg.CheckKnownKeys({"seed", "max-cyclez", "trace"}, &err));
  EXPECT_FALSE(cfg.CheckKnownKeys({"seed", "max-cycles", "trace"}, &err));
  EXPECT_EQ(err, "unknown option --max-cyclez");
  EXPECT_TRUE(Config().CheckKnownKeys({}));  // no flags given: nothing to reject
}

TEST(ConfigTest, MalformedValueReturnsDefaultAndRecordsError) {
  Config cfg;
  cfg.Set("threads", "12abc");  // trailing junk
  cfg.Set("load", "fast");      // not a number
  cfg.Set("size", "-5");        // must not wrap around to a huge uint
  EXPECT_EQ(cfg.GetInt("threads", 7), 7);
  EXPECT_DOUBLE_EQ(cfg.GetDouble("load", 0.5), 0.5);
  EXPECT_EQ(cfg.GetUint("size", 9u), 9u);
  // Each failure is recorded once even when re-queried (the error path is
  // memoized too).
  EXPECT_EQ(cfg.GetInt("threads", 7), 7);
  ASSERT_EQ(cfg.parse_errors().size(), 3u);
  EXPECT_EQ(cfg.parse_errors()[0], "threads=12abc (int)");
  EXPECT_EQ(cfg.parse_errors()[1], "load=fast (double)");
  EXPECT_EQ(cfg.parse_errors()[2], "size=-5 (uint)");
}

TEST(ConfigTest, TypedAccessorsMemoizeAndSetInvalidates) {
  Config cfg;
  cfg.Set("n", "5");
  EXPECT_EQ(cfg.GetInt("n", 0), 5);
  cfg.Set("n", "9");  // must invalidate the memoized parse
  EXPECT_EQ(cfg.GetInt("n", 0), 9);
  // A key that becomes valid after Set also drops its recorded error.
  cfg.Set("x", "oops");
  EXPECT_EQ(cfg.GetInt("x", -1), -1);
  EXPECT_EQ(cfg.parse_errors().size(), 1u);
  cfg.Set("x", "0x10");
  EXPECT_EQ(cfg.GetInt("x", -1), 16);
  EXPECT_TRUE(cfg.parse_errors().empty());
}

TEST(SimulationTest, ClockConversions) {
  Simulation sim(3.0);
  EXPECT_DOUBLE_EQ(sim.CyclesToNs(30), 10.0);
  EXPECT_EQ(sim.NsToCycles(10.0), 30u);
}

TEST(JsonTest, WriterOutputRoundTripsThroughParser) {
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.KeyValue("name", "casc");
  w.KeyValue("count", uint64_t{42});
  w.KeyValue("ratio", 0.5);
  w.KeyValue("negative", int64_t{-7});
  w.KeyValue("on", true);
  w.Key("list");
  w.BeginArray();
  w.Value(uint64_t{1});
  w.Value("two");
  w.Value(false);
  w.EndArray();
  w.Key("empty");
  w.BeginObject();
  w.EndObject();
  w.Key("none");
  w.Null();
  w.EndObject();

  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonValue::Parse(os.str(), &v, &err)) << err;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.Find("name")->str_v, "casc");
  EXPECT_DOUBLE_EQ(v.Find("count")->num_v, 42.0);
  EXPECT_DOUBLE_EQ(v.Find("ratio")->num_v, 0.5);
  EXPECT_DOUBLE_EQ(v.Find("negative")->num_v, -7.0);
  EXPECT_TRUE(v.Find("on")->bool_v);
  ASSERT_TRUE(v.Find("list")->is_array());
  ASSERT_EQ(v.Find("list")->arr.size(), 3u);
  EXPECT_EQ(v.Find("list")->arr[1].str_v, "two");
  EXPECT_TRUE(v.Find("empty")->is_object());
  EXPECT_TRUE(v.Find("empty")->obj.empty());
  EXPECT_EQ(v.Find("none")->type, JsonValue::Type::kNull);
  EXPECT_EQ(v.Find("absent"), nullptr);
}

TEST(JsonTest, StringsAreEscapedAndRecovered) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01 end";
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.KeyValue("s", nasty);
  w.EndObject();
  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonValue::Parse(os.str(), &v, &err)) << err;
  EXPECT_EQ(v.Find("s")->str_v, nasty);
}

TEST(JsonTest, NonFiniteDoublesBecomeNull) {
  // JSON has no NaN/Inf literals; the writer must emit null so the output
  // always parses.
  std::ostringstream os;
  JsonWriter w(os);
  w.BeginObject();
  w.KeyValue("nan", std::nan(""));
  w.KeyValue("inf", std::numeric_limits<double>::infinity());
  w.EndObject();
  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonValue::Parse(os.str(), &v, &err)) << err;
  EXPECT_EQ(v.Find("nan")->type, JsonValue::Type::kNull);
  EXPECT_EQ(v.Find("inf")->type, JsonValue::Type::kNull);
}

TEST(JsonTest, ParserRejectsMalformedInput) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(JsonValue::Parse("{\"a\": }", &v, &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(JsonValue::Parse("[1, 2", &v, &err));
  EXPECT_FALSE(JsonValue::Parse("{} trailing", &v, &err));
  EXPECT_FALSE(JsonValue::Parse("", &v, &err));
}

TEST(StatsTest, DumpJsonRoundTrips) {
  StatsRegistry stats;
  stats.Counter("b.second") = 7;
  stats.Counter("a.first") = 3;
  Histogram& h = stats.Hist("lat");
  for (uint64_t i = 1; i <= 100; i++) {
    h.Record(i);
  }
  std::ostringstream os;
  stats.DumpJson(os);

  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonValue::Parse(os.str(), &v, &err)) << err;
  const JsonValue* counters = v.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());
  // std::map iteration gives sorted, deterministic key order.
  ASSERT_EQ(counters->obj.size(), 2u);
  EXPECT_EQ(counters->obj[0].first, "a.first");
  EXPECT_DOUBLE_EQ(counters->obj[0].second.num_v, 3.0);
  EXPECT_EQ(counters->obj[1].first, "b.second");

  const JsonValue* lat = v.Find("histograms")->Find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(lat->Find("count")->num_v, 100.0);
  EXPECT_DOUBLE_EQ(lat->Find("mean")->num_v, h.mean());
  EXPECT_DOUBLE_EQ(lat->Find("min")->num_v, 1.0);
  EXPECT_DOUBLE_EQ(lat->Find("max")->num_v, 100.0);
  EXPECT_DOUBLE_EQ(lat->Find("p50")->num_v, static_cast<double>(h.P50()));
  EXPECT_DOUBLE_EQ(lat->Find("p999")->num_v, static_cast<double>(h.P999()));
  const JsonValue* buckets = lat->Find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_TRUE(buckets->is_array());
  // Buckets carry the raw data: their counts must sum back to count.
  double total = 0;
  for (const JsonValue& b : buckets->arr) {
    ASSERT_TRUE(b.is_array());
    ASSERT_EQ(b.arr.size(), 2u);
    total += b.arr[1].num_v;
  }
  EXPECT_DOUBLE_EQ(total, 100.0);
}

TEST(StatsTest, EmptyRegistryDumpsValidJson) {
  StatsRegistry stats;
  std::ostringstream os;
  stats.DumpJson(os);
  JsonValue v;
  std::string err;
  ASSERT_TRUE(JsonValue::Parse(os.str(), &v, &err)) << err;
  EXPECT_TRUE(v.Find("counters")->is_object());
  EXPECT_TRUE(v.Find("histograms")->is_object());
}

}  // namespace
}  // namespace casc
