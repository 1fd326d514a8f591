#include "sim/engine.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <stdexcept>
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

TEST(EngineTest, RankStackHoldsAOneMebibyteArray) {
  // Parity with a default pthread stack: rank bodies may keep large arrays
  // on the stack, across a suspension.
  Engine eng(cfg(2));
  std::vector<int> sums(2, 0);
  eng.run([&](Proc& p) {
    char big[1 << 20];
    std::memset(big, p.rank() + 1, sizeof big);
    p.advance(1.0);
    p.atomic([] {});
    int sum = 0;
    for (std::size_t i = 0; i < sizeof big; i += 4096) sum += big[i];
    sums[static_cast<std::size_t>(p.rank())] = sum;
  });
  EXPECT_EQ(sums[0], 256);
  EXPECT_EQ(sums[1], 512);
}

TEST(EngineTest, FailureUnwindsStartedRanksAndSkipsUnstartedOnes) {
  // Ranks 0-3 start and block; rank 4 throws before 5-7 are ever
  // scheduled. Every started rank's RAII destructors must run; no rank
  // after the failure may enter its body.
  struct Guard {
    int* count;
    ~Guard() { ++*count; }
  };
  Engine eng(cfg(8));
  Event never;
  std::set<int> entered;
  int destroyed = 0;
  EXPECT_THROW(eng.run([&](Proc& p) {
                 entered.insert(p.rank());
                 Guard g{&destroyed};
                 if (p.rank() == 4) throw FsError("rank 4 fails");
                 p.wait(never, "blocked before the failure");
               }),
               FsError);
  EXPECT_EQ(entered, (std::set<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(destroyed, 5);
}

TEST(EngineTest, FourThousandRanksOneEventEach) {
  const int P = 4096;
  Engine eng(cfg(P));
  std::vector<int> order;
  order.reserve(P);
  eng.run([&](Proc& p) {
    p.advance(static_cast<double>(P - p.rank()));
    p.atomic([&] { order.push_back(p.rank()); });
  });
  ASSERT_EQ(order.size(), static_cast<std::size_t>(P));
  for (int i = 0; i < P; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], P - 1 - i);
  }
  EXPECT_EQ(eng.eventCount(), P);
  EXPECT_DOUBLE_EQ(eng.makespan(), static_cast<double>(P));
}

TEST(EngineTest, ExceptionsBeingHandledArePerRank) {
  // Both ranks suspend inside a catch block, interleaved: 0 catches, yields
  // to 1, 1 catches, yields back to 0. Each rethrow must see its own rank's
  // exception, and each catch must end without touching the other's.
  Engine eng(cfg(2));
  std::vector<std::string> rethrown(2);
  eng.run([&](Proc& p) {
    const std::string mine = "from rank " + std::to_string(p.rank());
    try {
      throw std::runtime_error(mine);
    } catch (const std::runtime_error& e) {
      p.advance(p.rank() == 0 ? 2.0 : 3.0);
      p.atomic([] {});
      EXPECT_EQ(std::uncaught_exceptions(), 0);
      try {
        throw;
      } catch (const std::runtime_error& again) {
        rethrown[static_cast<std::size_t>(p.rank())] = again.what();
      }
      EXPECT_EQ(std::string(e.what()), mine);
    }
  });
  EXPECT_EQ(rethrown[0], "from rank 0");
  EXPECT_EQ(rethrown[1], "from rank 1");
}

TEST(EngineTest, AtomicSectionsCannotNestOrBlock) {
  Engine eng(cfg(1));
  Event ev;
  eng.run([&](Proc& p) {
    EXPECT_THROW(p.atomic([&] { p.atomic([] {}); }), Error);
    EXPECT_THROW(p.atomic([&] { p.wait(ev, "inside atomic"); }), Error);
    p.atomic([&] { p.complete(ev, p.now()); });  // the rank is usable again
    p.wait(ev, "completed");
  });
}

TEST(EngineTest, CurrentIsTheRunningRank) {
  EXPECT_EQ(Engine::current(), nullptr);
  Engine eng(cfg(3));
  std::vector<const Proc*> seen(3, nullptr);
  eng.run([&](Proc& p) {
    p.advance(static_cast<double>(3 - p.rank()));
    p.atomic([] {});  // interleave the ranks
    seen[static_cast<std::size_t>(p.rank())] = Engine::current();
    EXPECT_EQ(Engine::current(), &p);
  });
  EXPECT_EQ(Engine::current(), nullptr);
  for (const Proc* s : seen) EXPECT_NE(s, nullptr);
}

TEST(EngineTest, RunTwiceIsRejected) {
  Engine eng(cfg(1));
  eng.run([](Proc&) {});
  EXPECT_THROW(eng.run([](Proc&) {}), Error);
}

}  // namespace
}  // namespace tcio::sim
