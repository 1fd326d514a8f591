// Unit tests for the liveness-tracking agreement protocol in isolation
// (no TCIO on top): all-live epochs agree on the max error class, a crashed
// rank (Comm::failStop) is unanimously declared dead while a late live one
// never is, survivors can run further epochs on the shrunk membership,
// verdicts are deterministic, and the verdict wire format stays compact
// (capped error text, no text on a clean epoch).
#include "mpi/liveness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/error.h"
#include "mpi/runtime.h"

namespace tcio::mpi {
namespace {

/// True when the verdict declares `me` dead — never for a rank that is
/// alive to read it.
bool declaresDead(const LivenessOutcome& out, Rank me) {
  return std::binary_search(out.dead.begin(), out.dead.end(), me);
}

TEST(LivenessTest, AllLiveNoErrorAgreesClean) {
  mpi::JobConfig jc;
  jc.num_ranks = 5;
  runJob(jc, [&](Comm& comm) {
    const LivenessOutcome out =
        agreeWithLiveness(comm, CapturedError{}, /*epoch=*/0);
    EXPECT_TRUE(out.dead.empty());
    EXPECT_FALSE(declaresDead(out, comm.rank()));
    EXPECT_EQ(out.code, CapturedError::kNone);
  });
}

TEST(LivenessTest, AllLiveMaxErrorClassWins) {
  mpi::JobConfig jc;
  jc.num_ranks = 4;
  runJob(jc, [&](Comm& comm) {
    CapturedError err;
    if (comm.rank() == 1) {
      try {
        throw TransientFsError("slow disk");
      } catch (const std::exception& e) {
        err.capture(e);
      }
    }
    if (comm.rank() == 3) {
      try {
        throw NoSpaceError("ost 2 full");
      } catch (const std::exception& e) {
        err.capture(e);
      }
    }
    const LivenessOutcome out =
        agreeWithLiveness(comm, err, /*epoch=*/0);
    EXPECT_TRUE(out.dead.empty());
    // kNoSpace outranks kTransientFs; every rank sees the same winner.
    EXPECT_EQ(out.code, CapturedError::kNoSpace);
    EXPECT_NE(out.what.find("ost 2 full"), std::string::npos);
  });
}

TEST(LivenessTest, SilentRankUnanimouslyDeclaredDead) {
  mpi::JobConfig jc;
  jc.num_ranks = 6;
  std::array<std::vector<Rank>, 6> verdicts;
  runJob(jc, [&](Comm& comm) {
    if (comm.rank() == 2) {  // fail-stop: never calls the agreement
      comm.failStop();
      return;
    }
    const LivenessOutcome out =
        agreeWithLiveness(comm, CapturedError{}, /*epoch=*/0);
    verdicts[static_cast<std::size_t>(comm.rank())] = out.dead;
    EXPECT_FALSE(declaresDead(out, comm.rank()));
    const std::vector<Rank> surv = out.survivors(comm.size());
    EXPECT_EQ(surv, (std::vector<Rank>{0, 1, 3, 4, 5}));
  });
  for (const int r : {0, 1, 3, 4, 5}) {
    EXPECT_EQ(verdicts[static_cast<std::size_t>(r)],
              (std::vector<Rank>{2}))
        << "rank " << r << " disagreed on the dead set";
  }
}

TEST(LivenessTest, LateLiveRankIsNeverSuspected) {
  // Rank 3 enters the epoch a full second of virtual time after its peers:
  // it is late, not dead, so nobody may suspect it and everyone waits.
  mpi::JobConfig jc;
  jc.num_ranks = 6;
  runJob(jc, [&](Comm& comm) {
    if (comm.rank() == 3) comm.proc().advance(1.0);
    const LivenessOutcome out =
        agreeWithLiveness(comm, CapturedError{}, /*epoch=*/0);
    EXPECT_TRUE(out.dead.empty());
    EXPECT_EQ(out.code, CapturedError::kNone);
    EXPECT_GE(comm.proc().now(), 1.0);
  });
}

TEST(LivenessTest, SurvivorsContinueAcrossEpochsAndShrink) {
  mpi::JobConfig jc;
  jc.num_ranks = 5;
  runJob(jc, [&](Comm& comm) {
    const int ctx = [&] {
      int base = 0;
      if (comm.rank() == 0) base = comm.reserveContexts(1);
      comm.bcast(&base, sizeof(base), 0);
      return base;
    }();
    if (comm.rank() == 4) {  // dies before epoch 0
      comm.failStop();
      return;
    }
    const LivenessOutcome e0 =
        agreeWithLiveness(comm, CapturedError{}, /*epoch=*/0);
    ASSERT_EQ(e0.dead, (std::vector<Rank>{4}));
    Comm shrunk = comm.shrink(e0.survivors(comm.size()), ctx);
    ASSERT_EQ(shrunk.size(), 4);
    // Epoch 1 on the shrunk communicator: everyone present, clean verdict.
    const LivenessOutcome e1 = agreeWithLiveness(shrunk, CapturedError{},
                                                 /*epoch=*/1);
    EXPECT_TRUE(e1.dead.empty());
    // The shrunk communicator supports plain collectives again.
    std::int64_t sum = shrunk.rank();
    shrunk.allreduce(&sum, 1, ReduceOp::kSum);
    EXPECT_EQ(sum, 0 + 1 + 2 + 3);
  });
}

TEST(LivenessTest, TwoSilentRanksBothDeclaredDead) {
  mpi::JobConfig jc;
  jc.num_ranks = 6;
  runJob(jc, [&](Comm& comm) {
    if (comm.rank() == 0 || comm.rank() == 5) {
      comm.failStop();
      return;
    }
    const LivenessOutcome out =
        agreeWithLiveness(comm, CapturedError{}, /*epoch=*/0);
    EXPECT_EQ(out.dead, (std::vector<Rank>{0, 5}));
    EXPECT_FALSE(declaresDead(out, comm.rank()));
  });
}

TEST(LivenessTest, ManyRanksBeyondOneBitmapWord) {
  // 72 ranks need a two-word suspicion bitmap (the protocol was limited to
  // P <= 64 when verdicts carried a single uint64_t). A silent rank in the
  // second word's range must still be unanimously agreed dead, and the
  // survivors' shrunk communicator must run plain collectives.
  mpi::JobConfig jc;
  jc.num_ranks = 72;
  runJob(jc, [&](Comm& comm) {
    const int ctx = [&] {
      int base = 0;
      if (comm.rank() == 0) base = comm.reserveContexts(1);
      comm.bcast(&base, sizeof(base), 0);
      return base;
    }();
    if (comm.rank() == 70) {  // fail-stop, bit 6 of word 1
      comm.failStop();
      return;
    }
    const LivenessOutcome out =
        agreeWithLiveness(comm, CapturedError{}, /*epoch=*/0);
    EXPECT_EQ(out.dead, (std::vector<Rank>{70}));
    EXPECT_FALSE(declaresDead(out, comm.rank()));
    Comm shrunk = comm.shrink(out.survivors(comm.size()), ctx);
    ASSERT_EQ(shrunk.size(), 71);
    std::int64_t sum = 1;
    shrunk.allreduce(&sum, 1, ReduceOp::kSum);
    EXPECT_EQ(sum, 71);
  });
}

TEST(LivenessTest, LongErrorTextIsCappedOnEverySurvivor) {
  // The verdict carries at most kLivenessMaxWhat characters; every
  // survivor, the rank that raised the error included, sees the same text.
  std::string text;
  for (int i = 0; i < 200; ++i) text += static_cast<char>('a' + i % 26);
  mpi::JobConfig jc;
  jc.num_ranks = 5;
  runJob(jc, [&](Comm& comm) {
    if (comm.rank() == 4) {  // fail-stop
      comm.failStop();
      return;
    }
    CapturedError err;
    if (comm.rank() == 2) err = {CapturedError::kNoSpace, text};
    const LivenessOutcome out =
        agreeWithLiveness(comm, err, /*epoch=*/0);
    EXPECT_EQ(out.dead, (std::vector<Rank>{4}));
    EXPECT_EQ(out.code, CapturedError::kNoSpace);
    EXPECT_EQ(out.what.size(), 159u);
    EXPECT_EQ(out.what, text.substr(0, 159));
  });
}

TEST(LivenessTest, ShortErrorTextArrivesIntact) {
  mpi::JobConfig jc;
  jc.num_ranks = 4;
  runJob(jc, [&](Comm& comm) {
    CapturedError err;
    if (comm.rank() == 3) err = {CapturedError::kOstFailed, "ost 5 failed"};
    const LivenessOutcome out =
        agreeWithLiveness(comm, err, /*epoch=*/0);
    EXPECT_EQ(out.code, CapturedError::kOstFailed);
    EXPECT_EQ(out.what, "ost 5 failed");
  });
}

TEST(LivenessTest, CleanEpochMovesOnlyVotesHeadersAndBitmaps) {
  // A clean verdict is a 16-byte header plus the bitmap — no text field.
  // Guards against a fixed-size error text coming back onto the wire.
  constexpr int P = 96;
  constexpr Bytes kVote = 8;
  constexpr Bytes kHeader = 16;
  constexpr Bytes kBitmap = 8 * ((P + 63) / 64);
  mpi::JobConfig jc;
  jc.num_ranks = P;
  Bytes before = -1;
  Bytes after = -1;
  runJob(jc, [&](Comm& comm) {
    const net::Network& net = comm.world().network();
    // Rank 0 samples before the barrier and after the closing one, so every
    // rank's liveness traffic falls between the two samples (barrier
    // messages carry no bytes).
    if (comm.rank() == 0) comm.proc().atomic([&] { before = net.bytesMoved(); });
    comm.barrier();
    const LivenessOutcome out =
        agreeWithLiveness(comm, CapturedError{}, /*epoch=*/0);
    EXPECT_TRUE(out.dead.empty());
    EXPECT_TRUE(out.what.empty());
    comm.barrier();
    if (comm.rank() == 0) comm.proc().atomic([&] { after = net.bytesMoved(); });
  });
  EXPECT_EQ(after - before,
            static_cast<Bytes>(P) * (P - 1) * (kVote + kHeader + kBitmap));
}

TEST(LivenessTest, DeterministicVerdictAndTiming) {
  auto once = [] {
    mpi::JobConfig jc;
    jc.num_ranks = 6;
    SimTime t_after = 0;
    const JobResult jr = runJob(jc, [&](Comm& comm) {
      if (comm.rank() == 3) {
        comm.failStop();
        return;
      }
      const LivenessOutcome out = agreeWithLiveness(
          comm, CapturedError{}, /*epoch=*/0);
      EXPECT_EQ(out.dead, (std::vector<Rank>{3}));
      if (comm.rank() == 0) t_after = comm.proc().now();
    });
    return std::pair(jr.makespan, t_after);
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace tcio::mpi
