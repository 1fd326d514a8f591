// Crash tolerance with no crash scheduled must never fence a live rank.
//
// The failure detector reports a rank dead only after it really crashed
// (mpi::Comm::failStop), so arrival skew at an agreement point — however
// large — costs waiting time, never a death. Two shapes of skew:
//   * the paper's Table II interleaved pattern at P=192 under the paper
//     calibration, where the write loop spreads the ranks' arrivals at the
//     first agreement after it by hundreds of milliseconds;
//   * one rank entering close a full second of virtual time late.
// Every rank must finish with zero deaths and the file must hold exactly
// the bytes written.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "bench/bench_common.h"
#include "common/env.h"
#include "mpi/agreement.h"
#include "mpi/runtime.h"
#include "tcio/file.h"

namespace tcio::core {
namespace {

std::byte imageByte(Offset off) {
  return static_cast<std::byte>((off * 31 + off / 4093) % 251 + 1);
}

TEST(TcioCrashRecoveryTest, FaultFreeInterleavedAtP192FencesNoLiveRank) {
  constexpr int P = 192;
  // Half of perfbench's 4096 rounds: still long enough for the write loop
  // to spread the ranks' arrivals past a 250 ms timeout (1024 is not).
  constexpr std::int64_t kRounds = 2048;
  constexpr std::array<Bytes, 2> kSizes = {4, 8};  // Table II: "i,d"
  constexpr Bytes kBlock = kSizes[0] + kSizes[1];
  constexpr Bytes kFileBytes = kBlock * P * kRounds;
  const auto seed =
      static_cast<std::uint64_t>(envInt64("TCIO_FAULT_SEED", 1));

  std::vector<std::byte> image(static_cast<std::size_t>(kFileBytes));
  for (Offset off = 0; off < kFileBytes; ++off) {
    image[static_cast<std::size_t>(off)] = imageByte(off);
  }
  TcioConfig cfg = bench::paperTcio();
  cfg.delegate_ranks = -1;
  cfg.integrity.enabled = -1;
  cfg.crash.enabled = true;
  cfg.crash.journal = true;
  const std::int64_t segs =
      (kFileBytes + cfg.segment_size - 1) / cfg.segment_size;
  cfg.segments_per_rank = (segs + P - 1) / P;
  fs::FsConfig fcfg = bench::paperFs();
  fcfg.integrity = -1;
  fs::Filesystem fsys(fcfg);

  std::vector<std::int32_t> outcome(P, -1);
  std::vector<std::int64_t> crashed(P, -1);
  mpi::runJob(bench::paperJob(P, seed), [&](mpi::Comm& comm) {
    const int r = comm.rank();
    mpi::CapturedError err;
    File f(comm, fsys, "interleaved.dat", fs::kWrite | fs::kCreate, cfg);
    try {
      for (std::int64_t i = 0; i < kRounds; ++i) {
        Offset pos = (i * P + r) * kBlock;
        for (const Bytes n : kSizes) {
          f.writeAt(pos, image.data() + pos, n);
          pos += n;
        }
      }
      // The first agreement after the write loop sees the widest skew.
      f.close();
    } catch (const std::exception& e) {
      err.capture(e);
    }
    outcome[static_cast<std::size_t>(r)] = err.code;
    crashed[static_cast<std::size_t>(r)] = f.stats().degraded.ranks_crashed;
  });

  for (int r = 0; r < P; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(outcome[i], mpi::CapturedError::kNone) << "rank " << r;
    EXPECT_EQ(crashed[i], 0) << "rank " << r << " saw a false death";
  }
  ASSERT_EQ(fsys.peekSize("interleaved.dat"), kFileBytes);
  std::vector<std::byte> file(static_cast<std::size_t>(kFileBytes));
  fsys.peek("interleaved.dat", 0, file);
  EXPECT_TRUE(file == image);
}

TEST(TcioCrashRecoveryTest, LateLiveRankIsNotFenced) {
  constexpr int P = 8;
  constexpr Bytes kSegment = 512;
  TcioConfig cfg;
  cfg.segment_size = kSegment;
  cfg.segments_per_rank = 2;
  cfg.crash.enabled = true;
  fs::FsConfig fcfg;
  fcfg.num_osts = 2;
  fcfg.stripe_size = kSegment;
  fs::Filesystem fsys(fcfg);
  mpi::JobConfig jc;
  jc.num_ranks = P;
  jc.net.ranks_per_node = 4;

  std::array<std::int32_t, P> outcome{};
  std::array<std::int64_t, P> crashed{};
  mpi::runJob(jc, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    mpi::CapturedError err;
    File f(comm, fsys, "late.dat", fs::kWrite | fs::kCreate, cfg);
    try {
      std::vector<std::byte> buf(kSegment, static_cast<std::byte>(r + 1));
      f.writeAt(r * kSegment, buf.data(), kSegment);
      // Rank 5 computes for a second before close; its peers wait.
      if (r == 5) comm.proc().advance(1.0);
      f.close();
    } catch (const std::exception& e) {
      err.capture(e);
    }
    outcome[static_cast<std::size_t>(r)] = err.code;
    crashed[static_cast<std::size_t>(r)] = f.stats().degraded.ranks_crashed;
  });
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(outcome[static_cast<std::size_t>(r)], mpi::CapturedError::kNone)
        << "rank " << r;
    EXPECT_EQ(crashed[static_cast<std::size_t>(r)], 0) << "rank " << r;
  }
  ASSERT_EQ(fsys.peekSize("late.dat"), kSegment * P);
  std::vector<std::byte> got(static_cast<std::size_t>(kSegment * P));
  fsys.peek("late.dat", 0, got);
  for (Offset off = 0; off < kSegment * P; ++off) {
    ASSERT_EQ(got[static_cast<std::size_t>(off)],
              static_cast<std::byte>(off / kSegment + 1));
  }
}

}  // namespace
}  // namespace tcio::core
