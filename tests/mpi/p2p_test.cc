#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "mpi/mpi.h"

namespace tcio::mpi {
namespace {

JobConfig cfg(int p) {
  JobConfig c;
  c.num_ranks = p;
  return c;
}

TEST(P2pTest, SendRecvMovesBytes) {
  runJob(cfg(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> data{1, 2, 3, 4};
      comm.send(data.data(), 16, 1, 7);
    } else {
      std::vector<int> got(4, 0);
      const RecvStatus st = comm.recv(got.data(), 16, 0, 7);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.count, 16);
      EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4}));
    }
  });
}

TEST(P2pTest, RecvBeforeSendBlocksUntilDelivery) {
  runJob(cfg(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      double x = 3.5;
      comm.proc().advance(1.0);  // send late
      comm.send(&x, 8, 1, 0);
    } else {
      double x = 0;
      comm.recv(&x, 8, 0, 0);
      EXPECT_DOUBLE_EQ(x, 3.5);
      EXPECT_GT(comm.proc().now(), 1.0);  // waited for the late sender
    }
  });
}

TEST(P2pTest, UnexpectedMessageBuffered) {
  runJob(cfg(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      int v = 42;
      comm.send(&v, 4, 1, 3);
    } else {
      comm.proc().advance(5.0);  // receive long after arrival
      int v = 0;
      comm.recv(&v, 4, 0, 3);
      EXPECT_EQ(v, 42);
      EXPECT_DOUBLE_EQ(comm.proc().now(), 5.0);  // no extra waiting
    }
  });
}

TEST(P2pTest, TagMatchingSelectsCorrectMessage) {
  runJob(cfg(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      int a = 1, b = 2;
      comm.send(&a, 4, 1, 10);
      comm.send(&b, 4, 1, 20);
    } else {
      int v = 0;
      comm.recv(&v, 4, 0, 20);  // out of arrival order
      EXPECT_EQ(v, 2);
      comm.recv(&v, 4, 0, 10);
      EXPECT_EQ(v, 1);
    }
  });
}

TEST(P2pTest, AnySourceAnyTag) {
  runJob(cfg(3), [](Comm& comm) {
    if (comm.rank() != 0) {
      int v = comm.rank() * 100;
      comm.send(&v, 4, 0, comm.rank());
    } else {
      int seen = 0;
      for (int i = 0; i < 2; ++i) {
        int v = 0;
        const RecvStatus st = comm.recv(&v, 4, kAnySource, kAnyTag);
        EXPECT_EQ(v, st.source * 100);
        EXPECT_EQ(st.tag, st.source);
        seen += st.source;
      }
      EXPECT_EQ(seen, 3);  // ranks 1 and 2
    }
  });
}

TEST(P2pTest, FifoOrderPerPeerAndTag) {
  runJob(cfg(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) comm.send(&i, 4, 1, 0);
    } else {
      for (int i = 0; i < 10; ++i) {
        int v = -1;
        comm.recv(&v, 4, 0, 0);
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(P2pTest, IsendIrecvWaitAll) {
  runJob(cfg(2), [](Comm& comm) {
    constexpr int kN = 8;
    if (comm.rank() == 0) {
      std::vector<int> bufs(kN);
      std::vector<Request> reqs;
      for (int i = 0; i < kN; ++i) {
        bufs[static_cast<size_t>(i)] = i * i;
        reqs.push_back(comm.isend(&bufs[static_cast<size_t>(i)], 4, 1, i));
      }
      comm.waitAll(reqs);
    } else {
      std::vector<int> got(kN, -1);
      std::vector<Request> reqs;
      for (int i = 0; i < kN; ++i) {
        reqs.push_back(comm.irecv(&got[static_cast<size_t>(i)], 4, 0, i));
      }
      comm.waitAll(reqs);
      for (int i = 0; i < kN; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i * i);
    }
  });
}

TEST(P2pTest, TruncationIsAnError) {
  EXPECT_THROW(runJob(cfg(2),
                      [](Comm& comm) {
                        if (comm.rank() == 0) {
                          std::vector<std::byte> big(100);
                          comm.send(big.data(), 100, 1, 0);
                        } else {
                          std::byte small[10];
                          comm.recv(small, 10, 0, 0);
                        }
                      }),
               Error);
}

TEST(P2pTest, MissingSenderDeadlocks) {
  EXPECT_THROW(runJob(cfg(2),
                      [](Comm& comm) {
                        int v;
                        if (comm.rank() == 1) comm.recv(&v, 4, 0, 0);
                      }),
               DeadlockError);
}

// -- Fail-stop receive (Comm::recvOrDead / failStop) --------------------------

TEST(P2pTest, RecvOrDeadDeliversWhatTheSourceSentBeforeItCrashed) {
  runJob(cfg(2), [](Comm& comm) {
    if (comm.rank() == 0) {
      const int v = 42;
      comm.send(&v, 4, 1, 3);
      comm.proc().advance(1.0);
      comm.failStop();
      return;
    }
    comm.proc().advance(2.0);
    int got = 0;
    RecvStatus st;
    ASSERT_TRUE(comm.recvOrDead(&got, 4, 0, 3, &st));
    EXPECT_EQ(got, 42);
    EXPECT_EQ(st.source, 0);
    EXPECT_EQ(st.count, 4);
    // Nothing else is queued and the source is gone: a receive posted after
    // the crash was detected returns at once, at the caller's own clock.
    EXPECT_FALSE(comm.recvOrDead(&got, 4, 0, 3));
    EXPECT_DOUBLE_EQ(comm.proc().now(), 2.0);
  });
}

TEST(P2pTest, RecvOrDeadPostedBeforeTheCrashCompletesAtDetection) {
  runJob(cfg(3), [](Comm& comm) {
    int v = 0;
    switch (comm.rank()) {
      case 0:
        comm.proc().advance(1.0);
        comm.failStop();
        break;
      case 1:  // posted at t=0, long before the crash
        EXPECT_FALSE(comm.recvOrDead(&v, 4, 0, 0));
        EXPECT_DOUBLE_EQ(comm.proc().now(), 1.0 + kFailureDetectionDelay);
        break;
      default:  // posted after the crash but before its detection
        comm.proc().advance(1.0 + kFailureDetectionDelay / 2);
        EXPECT_FALSE(comm.recvOrDead(&v, 4, 0, 0));
        EXPECT_DOUBLE_EQ(comm.proc().now(), 1.0 + kFailureDetectionDelay);
        break;
    }
  });
}

TEST(P2pTest, RecvOrDeadWaitsForALateLiveSource) {
  // No deadline: a live source is waited for however late it sends.
  runJob(cfg(2), [](Comm& comm) {
    double x = 0;
    if (comm.rank() == 0) {
      comm.proc().advance(5.0);
      x = 2.5;
      comm.send(&x, 8, 1, 0);
    } else {
      ASSERT_TRUE(comm.recvOrDead(&x, 8, 0, 0));
      EXPECT_EQ(x, 2.5);
      EXPECT_GT(comm.proc().now(), 5.0);
    }
  });
}

TEST(P2pTest, RecvOrDeadFromASilentLiveSourceDeadlocks) {
  // A rank that returns without failStop is not dead: the wait is a true
  // deadlock, reported as one rather than turned into a false death.
  EXPECT_THROW(runJob(cfg(2),
                      [](Comm& comm) {
                        int v;
                        if (comm.rank() == 1) comm.recvOrDead(&v, 4, 0, 0);
                      }),
               DeadlockError);
}

TEST(P2pTest, RecvOrDeadClocksAreDeterministic) {
  auto once = [] {
    constexpr int P = 8;
    std::vector<std::pair<int, SimTime>> log;
    runJob(cfg(P), [&](Comm& comm) {
      const Rank r = comm.rank();
      // Even ranks send to their right neighbour, then crash at staggered
      // times; odd ranks receive twice from their left neighbour after
      // staggered delays, so some hits, some detections while waiting and
      // some after-the-fact detections mix.
      if (r % 2 == 0) {
        const int v = r;
        comm.proc().advance(0.01 * r);
        comm.send(&v, 4, r + 1, 0);
        comm.proc().advance(0.02 * r);
        comm.failStop();
        return;
      }
      comm.proc().advance(0.015 * r);
      for (int k = 0; k < 2; ++k) {
        int v = -1;
        const bool got = comm.recvOrDead(&v, 4, r - 1, 0);
        comm.proc().atomic(
            [&] { log.emplace_back(got ? v : -r, comm.proc().now()); });
      }
    });
    return log;
  };
  const auto a = once();
  EXPECT_EQ(a, once());
  ASSERT_EQ(a.size(), 8u);
}

TEST(P2pTest, SendAfterFailStopIsRejected) {
  // A fail-stopped rank never communicates again: blocking and nonblocking
  // sends (and every collective, which is built on them) refuse it, and
  // nothing reaches the peer.
  runJob(cfg(2), [](Comm& comm) {
    int v = 7;
    if (comm.rank() == 1) {
      comm.proc().advance(1.0);
      EXPECT_FALSE(comm.recvOrDead(&v, 4, 0, 0));
      return;
    }
    comm.failStop();
    try {
      comm.send(&v, 4, 1, 0);
      ADD_FAILURE() << "a fail-stopped rank sent a message";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("send by a fail-stopped rank"),
                std::string::npos)
          << e.what();
    }
    EXPECT_THROW(comm.isend(&v, 4, 1, 0), Error);
  });
}

TEST(P2pTest, TryRecvTakesOnlyQueuedMessages) {
  runJob(cfg(2), [](Comm& comm) {
    int v = 0;
    if (comm.rank() == 0) {
      comm.proc().advance(1.0);
      v = 7;
      comm.send(&v, 4, 1, 0);
      return;
    }
    RecvStatus st;
    EXPECT_FALSE(comm.tryRecv(&v, 4, kAnySource, 0, &st));  // nothing yet
    EXPECT_DOUBLE_EQ(comm.proc().now(), 0.0);
    comm.proc().advance(3.0);
    ASSERT_TRUE(comm.tryRecv(&v, 4, kAnySource, 0, &st));
    EXPECT_EQ(v, 7);
    EXPECT_EQ(st.source, 0);
    EXPECT_DOUBLE_EQ(comm.proc().now(), 3.0);
    EXPECT_FALSE(comm.tryRecv(&v, 4, kAnySource, 0));  // consumed
  });
}

TEST(P2pTest, LargeMessageTakesLongerThanSmall) {
  SimTime small_t = 0, large_t = 0;
  runJob(cfg(2), [&](Comm& comm) {
    std::vector<std::byte> buf(1 << 20);
    if (comm.rank() == 0) {
      comm.send(buf.data(), 1024, 1, 0);
      comm.send(buf.data(), 1 << 20, 1, 1);
    } else {
      const SimTime t0 = comm.proc().now();
      comm.recv(buf.data(), 1 << 20, 0, 0);
      small_t = comm.proc().now() - t0;
      const SimTime t1 = comm.proc().now();
      comm.recv(buf.data(), 1 << 20, 0, 1);
      large_t = comm.proc().now() - t1;
    }
  });
  EXPECT_GT(large_t, small_t);
}

TEST(P2pTest, SelfSendViaBufferedSemantics) {
  runJob(cfg(1), [](Comm& comm) {
    int v = 5;
    comm.send(&v, 4, 0, 0);
    int got = 0;
    comm.recv(&got, 4, 0, 0);
    EXPECT_EQ(got, 5);
  });
}

}  // namespace
}  // namespace tcio::mpi
