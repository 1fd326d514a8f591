#include "sim/engine.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace tcio::sim {
namespace {

Engine::Config cfg(int p, std::uint64_t seed = 1) {
  Engine::Config c;
  c.num_ranks = p;
  c.seed = seed;
  return c;
}

TEST(EngineTest, RunsEveryRankExactlyOnce) {
  Engine eng(cfg(8));
  std::vector<int> visits(8, 0);
  eng.run([&](Proc& p) { p.atomic([&] { ++visits[p.rank()]; }); });
  for (int v : visits) EXPECT_EQ(v, 1);
}

TEST(EngineTest, AdvanceMovesLocalClock) {
  Engine eng(cfg(1));
  eng.run([](Proc& p) {
    EXPECT_DOUBLE_EQ(p.now(), 0.0);
    p.advance(1.5);
    EXPECT_DOUBLE_EQ(p.now(), 1.5);
    p.advanceTo(1.0);  // no-op, already past
    EXPECT_DOUBLE_EQ(p.now(), 1.5);
    p.advanceTo(2.0);
    EXPECT_DOUBLE_EQ(p.now(), 2.0);
  });
  EXPECT_DOUBLE_EQ(eng.makespan(), 2.0);
}

TEST(EngineTest, AtomicSectionsExecuteInVirtualTimeOrder) {
  // Each rank advances to a distinct time, then appends itself to a shared
  // log inside atomic(); the log must come out sorted by (time, rank).
  Engine eng(cfg(16));
  std::vector<std::pair<double, int>> log;
  eng.run([&](Proc& p) {
    // Reverse times: rank 0 latest, rank 15 earliest.
    p.advance(static_cast<double>(16 - p.rank()));
    p.atomic([&] { log.emplace_back(p.now(), p.rank()); });
  });
  ASSERT_EQ(log.size(), 16u);
  for (std::size_t i = 1; i < log.size(); ++i) {
    EXPECT_LT(log[i - 1], log[i]) << "out of order at " << i;
  }
}

TEST(EngineTest, TiesBreakByRankId) {
  Engine eng(cfg(8));
  std::vector<int> order;
  eng.run([&](Proc& p) {
    p.advance(1.0);  // all ranks same time
    p.atomic([&] { order.push_back(p.rank()); });
  });
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EngineTest, EventWaitAdvancesWaiterToCompletionTime) {
  Engine eng(cfg(2));
  Event ev;
  eng.run([&](Proc& p) {
    if (p.rank() == 0) {
      p.wait(ev, "test event");
      EXPECT_DOUBLE_EQ(p.now(), 5.0);
    } else {
      p.advance(5.0);
      p.atomic([&] { p.complete(ev, p.now()); });
    }
  });
}

TEST(EngineTest, WaitOnAlreadyCompleteEventDoesNotBlock) {
  Engine eng(cfg(2));
  Event ev;
  eng.run([&](Proc& p) {
    if (p.rank() == 1) {
      p.atomic([&] { p.complete(ev, 3.0); });
    } else {
      // Rank 0 runs first (time 0 tie, lower id) and must yield to let rank 1
      // complete the event; force rank 0 past rank 1 in time first.
      p.advance(10.0);
      p.wait(ev, "pre-completed");
      EXPECT_DOUBLE_EQ(p.now(), 10.0);  // completion at 3 < own 10
    }
  });
}

TEST(EngineTest, MultipleWaitersAllReleased) {
  Engine eng(cfg(5));
  Event ev;
  eng.run([&](Proc& p) {
    if (p.rank() == 4) {
      p.advance(2.0);
      p.atomic([&] { p.complete(ev, p.now()); });
    } else {
      p.wait(ev, "fanout");
      EXPECT_DOUBLE_EQ(p.now(), 2.0);
    }
  });
}

TEST(EngineTest, DeadlockIsDetectedAndReported) {
  Engine eng(cfg(3));
  Event never;
  try {
    eng.run([&](Proc& p) { p.wait(never, "message that never comes"); });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("message that never comes"), std::string::npos);
    EXPECT_NE(what.find("rank 0"), std::string::npos);
    EXPECT_NE(what.find("rank 2"), std::string::npos);
  }
}

TEST(EngineTest, PartialDeadlockDetectedWhenOthersFinish) {
  Engine eng(cfg(3));
  Event never;
  EXPECT_THROW(eng.run([&](Proc& p) {
                 if (p.rank() == 0) p.wait(never, "stuck");
                 // ranks 1, 2 just finish
               }),
               DeadlockError);
}

TEST(EngineTest, UserExceptionPropagatesToRunCaller) {
  Engine eng(cfg(4));
  EXPECT_THROW(eng.run([&](Proc& p) {
                 p.advance(static_cast<double>(p.rank()));
                 p.atomic([] {});
                 if (p.rank() == 2) throw FsError("boom from rank 2");
                 // Other ranks keep doing engine ops and must unwind cleanly.
                 for (int i = 0; i < 100; ++i) {
                   p.advance(0.5);
                   p.atomic([] {});
                 }
               }),
               FsError);
}

TEST(EngineTest, ExceptionWhileOthersBlockedStillUnwinds) {
  Engine eng(cfg(3));
  Event never;
  EXPECT_THROW(eng.run([&](Proc& p) {
                 if (p.rank() == 2) {
                   p.advance(1.0);
                   throw MpiError("fatal");
                 }
                 p.wait(never, "blocked before failure");
               }),
               MpiError);
}

TEST(EngineTest, EventCountCountsAtomicSections) {
  Engine eng(cfg(2));
  eng.run([&](Proc& p) {
    for (int i = 0; i < 10; ++i) {
      p.advance(1.0);
      p.atomic([] {});
    }
  });
  EXPECT_EQ(eng.eventCount(), 20);
}

TEST(EngineTest, MakespanIsMaxOverRanks) {
  Engine eng(cfg(4));
  eng.run([&](Proc& p) { p.advance(static_cast<double>(p.rank()) * 2.0); });
  EXPECT_DOUBLE_EQ(eng.makespan(), 6.0);
}

TEST(EngineTest, PerRankRngStreamsAreIndependentAndSeeded) {
  Engine eng1(cfg(2, 99));
  std::map<int, std::uint64_t> draw1;
  eng1.run([&](Proc& p) {
    const auto v = p.rng().next();
    p.atomic([&] { draw1[p.rank()] = v; });
  });
  EXPECT_NE(draw1[0], draw1[1]);

  Engine eng2(cfg(2, 99));
  std::map<int, std::uint64_t> draw2;
  eng2.run([&](Proc& p) {
    const auto v = p.rng().next();
    p.atomic([&] { draw2[p.rank()] = v; });
  });
  EXPECT_EQ(draw1, draw2);
}

TEST(EngineTest, ManyRanksInterleaveCorrectly) {
  // Ping-pong chain: rank r waits for event r, completes event r+1.
  const int P = 64;
  Engine eng(cfg(P));
  std::vector<Event> evs(static_cast<std::size_t>(P) + 1);
  eng.run([&](Proc& p) {
    const int r = p.rank();
    if (r == 0) {
      p.advance(1.0);
      p.atomic([&] { p.complete(evs[1], p.now()); });
    } else {
      p.wait(evs[static_cast<std::size_t>(r)], "chain");
      p.advance(1.0);
      p.atomic([&] {
        if (r + 1 <= P - 1) p.complete(evs[static_cast<std::size_t>(r) + 1], p.now());
      });
      EXPECT_DOUBLE_EQ(p.now(), static_cast<double>(r + 1));
    }
  });
  EXPECT_DOUBLE_EQ(eng.makespan(), static_cast<double>(P));
}

// -- Timed waits (Proc::waitUntil) -------------------------------------------

TEST(EngineTest, WaitUntilReturnsTrueAtCompletionBeforeDeadline) {
  Engine eng(cfg(2));
  Event ev;
  eng.run([&](Proc& p) {
    if (p.rank() == 0) {
      EXPECT_TRUE(p.waitUntil(ev, 10.0, "timed"));
      EXPECT_DOUBLE_EQ(p.now(), 3.0);
    } else {
      p.advance(3.0);
      p.atomic([&] { p.complete(ev, p.now()); });
    }
  });
}

TEST(EngineTest, WaitUntilTimesOutAtDeadlineAndWithdraws) {
  // After the timeout, a late complete() of the same event must not wake
  // rank 0 out of its next, unrelated wait.
  Engine eng(cfg(2));
  Event ev;
  Event ev2;
  eng.run([&](Proc& p) {
    if (p.rank() == 0) {
      EXPECT_FALSE(p.waitUntil(ev, 2.0, "timed"));
      EXPECT_DOUBLE_EQ(p.now(), 2.0);
      p.wait(ev2, "second");
      EXPECT_DOUBLE_EQ(p.now(), 7.0);
    } else {
      p.advance(5.0);
      p.atomic([&] { p.complete(ev, p.now()); });
      p.advance(2.0);
      p.atomic([&] { p.complete(ev2, p.now()); });
    }
  });
  EXPECT_TRUE(ev.ready());
  EXPECT_DOUBLE_EQ(eng.makespan(), 7.0);
}

TEST(EngineTest, LateCompleteAfterTimeoutFindsNoWaiter) {
  // Rank 0 is running (not blocked) when the event completes; a waiter left
  // behind by the timeout would fail complete()'s blocked-waiter check.
  Engine eng(cfg(2));
  Event ev;
  EXPECT_NO_THROW(eng.run([&](Proc& p) {
    if (p.rank() == 0) {
      EXPECT_FALSE(p.waitUntil(ev, 1.0, "timed"));
      p.advance(9.0);
      p.atomic([] {});
    } else {
      p.advance(4.0);
      p.atomic([&] { p.complete(ev, p.now()); });
    }
  }));
}

TEST(EngineTest, WaitUntilWithPastDeadlineReturnsAtOnce) {
  Engine eng(cfg(1));
  Event pending;
  Event done;
  eng.run([&](Proc& p) {
    p.advance(5.0);
    // A single rank that blocked here would deadlock; it must not gate.
    EXPECT_FALSE(p.waitUntil(pending, 5.0, "probe"));
    EXPECT_FALSE(p.waitUntil(pending, 3.0, "probe"));
    EXPECT_DOUBLE_EQ(p.now(), 5.0);
    p.atomic([&] { p.complete(done, 6.0); });
    // A completed event wins even past the deadline.
    EXPECT_TRUE(p.waitUntil(done, 1.0, "probe"));
    EXPECT_DOUBLE_EQ(p.now(), 6.0);
  });
  EXPECT_EQ(eng.eventCount(), 1);
}

TEST(EngineTest, DeadlineTiesBreakByRankId) {
  // The timer is the gate key (deadline, rank): a completion at exactly the
  // deadline counts only when the completer's rank id is lower.
  Engine eng(cfg(3));
  Event from_lower;
  Event from_higher;
  eng.run([&](Proc& p) {
    switch (p.rank()) {
      case 0:
        p.advance(2.0);
        p.atomic([&] { p.complete(from_lower, p.now()); });
        break;
      case 1:
        EXPECT_TRUE(p.waitUntil(from_lower, 2.0, "tie low"));
        EXPECT_DOUBLE_EQ(p.now(), 2.0);
        EXPECT_FALSE(p.waitUntil(from_higher, 4.0, "tie high"));
        EXPECT_DOUBLE_EQ(p.now(), 4.0);
        break;
      default:
        p.advance(4.0);
        p.atomic([&] { p.complete(from_higher, p.now()); });
        break;
    }
  });
}

TEST(EngineTest, TimedWaiterKeepsDeadlockDetectorQuietUntilItFires) {
  // Ranks 1 and 2 block in plain waits; rank 0's timer keeps the job
  // runnable, and after the timeout rank 0 releases them.
  {
    Engine eng(cfg(3));
    Event never;
    Event release;
    EXPECT_NO_THROW(eng.run([&](Proc& p) {
      if (p.rank() == 0) {
        EXPECT_FALSE(p.waitUntil(never, 4.0, "timed"));
        p.atomic([&] { p.complete(release, p.now()); });
      } else {
        p.wait(release, "release");
        EXPECT_DOUBLE_EQ(p.now(), 4.0);
      }
    }));
  }
  // Without the release the deadlock is real — and only reported once the
  // timer has fired.
  Engine eng(cfg(3));
  Event never;
  Event release;
  bool timed_out = false;
  try {
    eng.run([&](Proc& p) {
      if (p.rank() == 0) {
        timed_out = !p.waitUntil(never, 4.0, "timed");
      } else {
        p.wait(release, "never released");
      }
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_TRUE(timed_out);
    EXPECT_NE(std::string(e.what()).find("never released"), std::string::npos);
  }
}

TEST(EngineTest, TimedWaitsAreDeterministic) {
  // Ring of timed waits with staggered completions and deadlines: some
  // complete, some time out. Two runs must give identical clocks and the
  // same outcome log.
  auto once = [] {
    constexpr int P = 12;
    Engine eng(cfg(P, 7));
    std::vector<Event> evs(P);
    std::vector<std::pair<int, double>> log;
    eng.run([&](Proc& p) {
      const int r = p.rank();
      p.advance(0.1 * static_cast<double>(r % 5));
      p.atomic([&] {
        p.complete(evs[static_cast<std::size_t>((r + 1) % P)], p.now());
      });
      const double deadline = 0.05 * static_cast<double>(r * 3 % 7);
      const bool got =
          p.waitUntil(evs[static_cast<std::size_t>(r)], deadline, "ring");
      p.atomic([&] { log.emplace_back(got ? r : -r - 1, p.now()); });
    });
    return std::pair(log, eng.makespan());
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  int timeouts = 0;
  for (const auto& [who, t] : a.first) timeouts += who < 0 ? 1 : 0;
  EXPECT_GT(timeouts, 0);
  EXPECT_LT(timeouts, 12);
}

TEST(EngineTest, RunTwiceIsRejected) {
  Engine eng(cfg(1));
  eng.run([](Proc&) {});
  EXPECT_THROW(eng.run([](Proc&) {}), Error);
}

}  // namespace
}  // namespace tcio::sim
