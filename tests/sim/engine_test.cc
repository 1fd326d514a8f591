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

TEST(EngineTest, RunTwiceIsRejected) {
  Engine eng(cfg(1));
  eng.run([](Proc&) {});
  EXPECT_THROW(eng.run([](Proc&) {}), Error);
}

}  // namespace
}  // namespace tcio::sim
