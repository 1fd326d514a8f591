// I/O delegate subsystem tests: request-queue admission control, round-robin
// fairness, OST submission batching, fault retry at the delegate, fail-stop
// delegate crash with shard adoption, determinism, and the churn workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/error.h"
#include "delegate/client.h"
#include "delegate/server.h"
#include "delegate/session.h"
#include "fs/filesystem.h"
#include "mpi/runtime.h"
#include "workload/churn.h"

namespace tcio::delegate {
namespace {

constexpr Bytes kSegment = 512;

fs::FsConfig fsCfg() {
  fs::FsConfig c;
  c.num_osts = 4;
  c.stripe_size = 1024;
  return c;
}

mpi::JobConfig job(int p, std::uint64_t seed = 1) {
  mpi::JobConfig c;
  c.num_ranks = p;
  c.seed = seed;
  return c;
}

core::TcioConfig delegated(int d, std::int64_t capacity = 64) {
  core::TcioConfig cfg;
  cfg.segment_size = kSegment;
  cfg.segments_per_rank = 8;
  cfg.delegate_ranks = d;
  cfg.delegate.queue_capacity = capacity;
  return cfg;
}

std::byte expected(int client, Offset off) {
  return static_cast<std::byte>(
      (static_cast<Offset>(client) * 37 + off * 11) % 251 + 1);
}

std::vector<std::byte> clientBlock(int client, Offset off, Bytes n) {
  std::vector<std::byte> v(static_cast<std::size_t>(n));
  for (Bytes i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = expected(client, off + i);
  }
  return v;
}

std::vector<std::byte> peekBytes(const fs::Filesystem& fsys,
                                 const std::string& name, Offset off,
                                 Bytes n) {
  std::vector<std::byte> v(static_cast<std::size_t>(n));
  fsys.peek(name, off, v);
  return v;
}

/// Runs body on client ranks, serve() on delegates; the clients store
/// Session::finish()'s merged stats into *stats.
void runSession(mpi::Comm& comm, fs::Filesystem& fsys,
                const core::TcioConfig& cfg,
                const std::function<void(Session&, Channel&)>& body,
                core::TcioDelegateStats* stats = nullptr) {
  Session session(comm, fsys, cfg);
  // A delegate returns as soon as it stops serving: one that fail-stopped
  // must never communicate again.
  if (session.isDelegate()) {
    session.serve();
    return;
  }
  Channel ch(session);
  body(session, ch);
  const core::TcioDelegateStats& merged = session.finish();
  if (stats != nullptr) *stats = merged;
}

// -- Core routing and data integrity ------------------------------------------

TEST(DelegateSessionTest, WriteReadCloseRoundTrip) {
  fs::Filesystem fsys(fsCfg());
  core::TcioDelegateStats stats;
  mpi::runJob(job(6), [&](mpi::Comm& comm) {
    const core::TcioConfig cfg = delegated(/*d=*/2);
    runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
      const int c = s.clientComm().rank();
      DFile f(ch, "roundtrip.dat", fs::kRead | fs::kWrite | fs::kCreate);
      // Each client writes two blocks straddling a segment boundary.
      const Offset base = static_cast<Offset>(c) * 2 * kSegment + 128;
      const std::vector<std::byte> data = clientBlock(c, base, kSegment);
      f.writeAt(base, data);
      f.flush();
      std::vector<std::byte> back(static_cast<std::size_t>(kSegment));
      f.readAt(base, back);
      EXPECT_EQ(back, data);
      const Bytes size = f.close();
      EXPECT_EQ(size, static_cast<Bytes>(s.numClients() - 1) * 2 * kSegment +
                          128 + kSegment);
    }, &stats);
  });
  // Level-2 ownership really moved: only the delegate ranks talked to the
  // file system.
  std::map<int, std::int64_t> ops = fsys.opsByClient();
  for (const auto& [rank, n] : ops) {
    EXPECT_LT(rank, 2) << "client rank " << rank << " issued FS calls";
    EXPECT_GT(n, 0);
  }
  EXPECT_EQ(ops.size(), 2u);
  EXPECT_GT(stats.submissions, 0);
  // Verify the file bytes out-of-band (costless peek).
  for (int c = 0; c < 4; ++c) {
    const Offset base = static_cast<Offset>(c) * 2 * kSegment + 128;
    const std::vector<std::byte> want = clientBlock(c, base, kSegment);
    EXPECT_EQ(peekBytes(fsys, "roundtrip.dat", base, kSegment), want);
  }
}

TEST(DelegateSessionTest, EnvVariableSelectsDelegates) {
  const char* outer = ::getenv("TCIO_DELEGATES");
  const std::string saved = outer != nullptr ? outer : "";
  ::unsetenv("TCIO_DELEGATES");
  core::TcioConfig cfg;
  EXPECT_EQ(Session::effectiveDelegates(cfg, 8), 0);
  cfg.delegate_ranks = -1;
  ::setenv("TCIO_DELEGATES", "2", 1);
  EXPECT_EQ(Session::effectiveDelegates(cfg, 8), 0);  // opt-out beats env
  ::unsetenv("TCIO_DELEGATES");
  cfg.delegate_ranks = 3;
  EXPECT_EQ(Session::effectiveDelegates(cfg, 8), 3);
  EXPECT_EQ(Session::effectiveDelegates(cfg, 2), 1);  // keep one client
  cfg.delegate_ranks = 0;
  ::setenv("TCIO_DELEGATES", "2", 1);
  EXPECT_EQ(Session::effectiveDelegates(cfg, 8), 2);
  ::setenv("TCIO_DELEGATES", "99", 1);
  EXPECT_EQ(Session::effectiveDelegates(cfg, 128), 64);  // bitmap cap
  ::unsetenv("TCIO_DELEGATES");
  EXPECT_EQ(Session::effectiveDelegates(cfg, 8), 0);
  if (!saved.empty()) ::setenv("TCIO_DELEGATES", saved.c_str(), 1);
}

TEST(DelegateSessionTest, ShardRoutingSkipsTheDead) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(5), [&](mpi::Comm& comm) {
    Session s(comm, fsys, delegated(/*d=*/3));
    EXPECT_EQ(s.naturalOwnerOf(7), 7 % 3);
    EXPECT_EQ(s.ownerOfSegment(7), 7 % 3);
    s.markDead(1);
    EXPECT_EQ(s.ownerOfSegment(7), 2);  // 7 % 3 == 1 is dead -> next live
    EXPECT_EQ(s.adopterOf(1), 2);
    EXPECT_EQ(s.liveDelegates(), (std::vector<int>{0, 2}));
    // Every rank participated in the collective ctor; nothing to serve.
  });
}

TEST(DelegateSessionTest, GetLoadsFromDiskAndDirtyBytesWin) {
  fs::Filesystem fsys(fsCfg());
  const std::vector<std::byte> old0 = clientBlock(0, 0, kSegment);
  const std::vector<std::byte> old1 = clientBlock(0, kSegment, kSegment);
  const std::vector<std::byte> fresh = clientBlock(1, 100, 64);
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    const core::TcioConfig cfg = delegated(/*d=*/1);
    // Session 1 puts two whole segments on disk.
    runSession(comm, fsys, cfg, [&](Session&, Channel& ch) {
      DFile f(ch, "reload.dat", fs::kWrite | fs::kCreate);
      f.writeAt(0, old0);
      f.writeAt(kSegment, old1);
      EXPECT_EQ(f.close(), 2 * kSegment);
    });
    // Session 2 starts with an empty shard: its gets must fault the disk
    // image in, under the bytes it has already overwritten.
    runSession(comm, fsys, cfg, [&](Session&, Channel& ch) {
      DFile f(ch, "reload.dat", fs::kRead | fs::kWrite);
      f.writeAt(100, fresh);
      std::vector<std::byte> seg0(static_cast<std::size_t>(kSegment));
      f.readAt(0, seg0);
      std::vector<std::byte> want0 = old0;
      std::copy(fresh.begin(), fresh.end(), want0.begin() + 100);
      EXPECT_EQ(seg0, want0);
      std::vector<std::byte> seg1(static_cast<std::size_t>(kSegment));
      f.readAt(kSegment, seg1);
      EXPECT_EQ(seg1, old1);
      f.close();
    });
  });
  std::vector<std::byte> want = old0;
  std::copy(fresh.begin(), fresh.end(), want.begin() + 100);
  EXPECT_EQ(peekBytes(fsys, "reload.dat", 0, kSegment), want);
  EXPECT_EQ(peekBytes(fsys, "reload.dat", kSegment, kSegment), old1);
}

TEST(DelegateSessionTest, ManyExtentPutAndGetSplitIntoChunks) {
  // One segment holds more extents than one descriptor may carry, so the
  // put splits on kMaxWireExtents; a get of overlapping extents asks for
  // more bytes than a staging frame holds, so it splits on the frame too.
  constexpr Bytes kBig = 4096;
  constexpr std::int64_t kPieces = kMaxWireExtents + 476;
  fs::Filesystem fsys(fsCfg());
  core::TcioDelegateStats stats;
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    core::TcioConfig cfg = delegated(/*d=*/1);
    cfg.segment_size = kBig;
    runSession(comm, fsys, cfg, [&](Session&, Channel& ch) {
      const std::uint64_t key = fileKey("extents.dat");
      ch.open("extents.dat", fs::kRead | fs::kWrite | fs::kCreate);
      // One-byte extents at every even offset of segment 0.
      std::vector<WireExtent> puts;
      std::vector<std::byte> payload;
      for (std::int64_t i = 0; i < kPieces; ++i) {
        puts.push_back({0, 2 * i, 2 * i + 1});
        payload.push_back(expected(0, 2 * i));
      }
      ch.put(key, puts, payload);
      std::vector<std::byte> back(payload.size());
      ch.get(key, puts, back.data());
      EXPECT_EQ(back, payload);
      // Eight-byte windows that overlap: 700 x 8 bytes > one 4 KiB frame.
      std::vector<WireExtent> gets;
      std::vector<std::byte> want;
      for (std::int64_t i = 0; i < 700; ++i) {
        const Offset b = 2 * i;
        gets.push_back({0, b, b + 8});
        for (Offset o = b; o < b + 8; ++o) {
          want.push_back(o % 2 == 0 ? expected(0, o) : std::byte{0});
        }
      }
      std::vector<std::byte> got(want.size());
      ch.get(key, gets, got.data());
      EXPECT_EQ(got, want);
      EXPECT_EQ(ch.closeFile(key), 2 * (kPieces - 1) + 1);
    }, &stats);
  });
  // put: 1024 + 476 extents; first get: the same; second get: 512 + 188.
  EXPECT_EQ(stats.submissions, 6);
}

// -- Admission control ---------------------------------------------------------

TEST(DelegateQueueTest, BoundedCapacityRejectsAndRetries) {
  fs::Filesystem fsys(fsCfg());
  core::TcioDelegateStats stats;
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    // One delegate with a 4-deep queue; the single client floods 6 puts
    // before finishing any, so at least two hit the watermark and ride the
    // kBusy/backoff path.
    const core::TcioConfig cfg = delegated(/*d=*/1, /*capacity=*/4);
    runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
      ch.open("flood.dat", fs::kWrite | fs::kCreate);
      const std::uint64_t key = fileKey("flood.dat");
      std::vector<std::int64_t> seqs;
      std::vector<std::vector<std::byte>> blocks;
      for (int i = 0; i < 6; ++i) {
        const Offset base = static_cast<Offset>(i) * kSegment;
        blocks.push_back(clientBlock(0, base, kSegment));
        seqs.push_back(ch.postPut(
            key, {{i, 0, kSegment}}, blocks.back()));
      }
      for (const std::int64_t seq : seqs) {
        EXPECT_TRUE(ch.finishPut(seq));
      }
      EXPECT_EQ(ch.closeFile(key),
                static_cast<Bytes>(6) * kSegment);
      EXPECT_GT(s.client_busy_retries, 0);
    }, &stats);
  });
  EXPECT_GT(stats.rejections, 0);
  EXPECT_GT(stats.busy_retries, 0);
  EXPECT_EQ(stats.submissions, 6);
  EXPECT_LE(stats.queue_high_watermark, 4);
  // Every rejected put eventually landed: the file is complete.
  for (int i = 0; i < 6; ++i) {
    const Offset base = static_cast<Offset>(i) * kSegment;
    EXPECT_EQ(peekBytes(fsys, "flood.dat", base, kSegment),
              clientBlock(0, base, kSegment));
  }
}

TEST(DelegateQueueTest, RoundRobinKeepsHotClientFromStarvingOthers) {
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(3), [&](mpi::Comm& comm) {
    // One delegate, two clients. Client A floods four gets; client B posts
    // one slightly later. Round-robin service must interleave B's request
    // instead of finishing A's whole queue first.
    const core::TcioConfig cfg = delegated(/*d=*/1);
    Session session(comm, fsys, cfg);
    SimTime b_done = 0;
    SimTime a_last = 0;
    if (session.isDelegate()) {
      session.serve();
    } else {
      Channel ch(session);
      ch.open("fair.dat", fs::kRead | fs::kWrite | fs::kCreate);
      const std::uint64_t key = fileKey("fair.dat");
      session.clientComm().barrier();
      if (session.clientComm().rank() == 0) {  // hot client A
        std::vector<std::int64_t> seqs;
        for (int i = 0; i < 4; ++i) {
          seqs.push_back(ch.postGet(key, {{i, 0, kSegment}}, kSegment));
        }
        std::vector<std::byte> sink(static_cast<std::size_t>(kSegment));
        for (const std::int64_t seq : seqs) {
          ch.finishGet(seq, sink.data());
        }
        a_last = comm.proc().now();
      } else {  // client B: one request, a touch later
        comm.proc().advance(1.0e-6);
        std::vector<std::byte> sink(static_cast<std::size_t>(kSegment));
        ch.finishGet(ch.postGet(key, {{9, 0, kSegment}}, kSegment),
                     sink.data());
        b_done = comm.proc().now();
      }
      // Share the two timestamps: B must complete before A's queue drains.
      SimTime times[2] = {a_last, b_done};
      session.clientComm().allreduce(times, 2, mpi::ReduceOp::kMax);
      EXPECT_GT(times[0], 0.0);
      EXPECT_GT(times[1], 0.0);
      EXPECT_LT(times[1], times[0])
          << "single-request client finished after the flood";
      ch.closeFile(key);
      session.finish();
    }
    comm.barrier();
  });
}

// -- OST submission batching ---------------------------------------------------

TEST(DelegateBatchTest, AdjacentExtentsCoalesceIntoOneSubmission) {
  fs::Filesystem fsys(fsCfg());
  core::TcioDelegateStats stats;
  constexpr int kChunks = 8;
  constexpr Bytes kChunk = kSegment / kChunks;
  mpi::runJob(job(2), [&](mpi::Comm& comm) {
    const core::TcioConfig cfg = delegated(/*d=*/1);
    runSession(comm, fsys, cfg, [&](Session&, Channel& ch) {
      DFile f(ch, "coalesce.dat", fs::kWrite | fs::kCreate);
      // Eight adjacent chunks of one segment, written as separate requests.
      for (int i = 0; i < kChunks; ++i) {
        const Offset off = static_cast<Offset>(i) * kChunk;
        f.writeAt(off, clientBlock(0, off, kChunk));
      }
      EXPECT_EQ(f.close(), kSegment);
    }, &stats);
  });
  EXPECT_EQ(stats.submissions, kChunks);
  EXPECT_EQ(stats.batches, 1) << "adjacent extents must merge to one pwrite";
  EXPECT_EQ(stats.batched_extents, kChunks);
  EXPECT_EQ(peekBytes(fsys, "coalesce.dat", 0, kSegment),
            clientBlock(0, 0, kSegment));
}

// -- Fault injection -----------------------------------------------------------

TEST(DelegateFaultTest, TransientFsFaultsRetryInsideTheDelegate) {
  fs::Filesystem fsys(fsCfg());
  core::TcioDelegateStats stats;
  mpi::runJob(job(4, /*seed=*/7), [&](mpi::Comm& comm) {
    core::TcioConfig cfg = delegated(/*d=*/1);
    cfg.faults.enabled = true;
    cfg.faults.seed = 7;
    cfg.faults.fs_transient_write_rate = 0.4;
    cfg.retry.max_attempts = 8;
    runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
      const int c = s.clientComm().rank();
      DFile f(ch, "faulty.dat", fs::kWrite | fs::kCreate);
      for (int b = 0; b < 4; ++b) {
        const Offset off =
            (static_cast<Offset>(c) * 4 + b) * kSegment;
        f.writeAt(off, clientBlock(c, off, kSegment));
      }
      f.close();
    }, &stats);
  });
  EXPECT_GT(stats.fs_transient_faults, 0) << "seed produced no faults";
  EXPECT_GE(stats.fs_retries, stats.fs_transient_faults);
  for (int c = 0; c < 3; ++c) {
    for (int b = 0; b < 4; ++b) {
      const Offset off = (static_cast<Offset>(c) * 4 + b) * kSegment;
      EXPECT_EQ(peekBytes(fsys, "faulty.dat", off, kSegment),
                clientBlock(c, off, kSegment));
    }
  }
}

// -- Fail-stop delegate crash --------------------------------------------------

struct CrashCase {
  CrashPoint point;
  std::int64_t after;
  const char* name;
};

class DelegateCrashTest : public ::testing::TestWithParam<CrashCase> {};

TEST_P(DelegateCrashTest, ShardAdoptionLosesNoAcknowledgedByte) {
  const CrashCase& p = GetParam();
  fs::Filesystem fsys(fsCfg());
  core::TcioDelegateStats stats;
  constexpr int kProcs = 6;
  constexpr int kDelegates = 2;
  constexpr int kClients = kProcs - kDelegates;
  constexpr int kBlocks = 4;
  mpi::runJob(job(kProcs, /*seed=*/11), [&](mpi::Comm& comm) {
    core::TcioConfig cfg = delegated(kDelegates);
    cfg.crash.enabled = true;
    cfg.crash.journal = true;
    cfg.faults.seed = 11;
    cfg.faults.crashes.push_back({/*rank=*/0, p.point, p.after});
    runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
      const int c = s.clientComm().rank();
      DFile f(ch, "adopt.dat", fs::kWrite | fs::kCreate);
      for (int b = 0; b < kBlocks; ++b) {
        const Offset off =
            (static_cast<Offset>(c) * kBlocks + b) * kSegment;
        f.writeAt(off, clientBlock(c, off, kSegment));
      }
      const Bytes size = f.close();
      EXPECT_EQ(size, static_cast<Bytes>(kClients) * kBlocks * kSegment);
    }, &stats);
  });
  EXPECT_EQ(stats.delegates_crashed, 1);
  EXPECT_EQ(stats.shards_adopted, 1);
  // Acked puts were journaled, unacked puts were resubmitted: the file must
  // be byte-identical to a healthy run.
  for (int c = 0; c < kClients; ++c) {
    for (int b = 0; b < kBlocks; ++b) {
      const Offset off = (static_cast<Offset>(c) * kBlocks + b) * kSegment;
      EXPECT_EQ(peekBytes(fsys, "adopt.dat", off, kSegment),
                clientBlock(c, off, kSegment))
          << "lost bytes at client " << c << " block " << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Points, DelegateCrashTest,
    ::testing::Values(CrashCase{CrashPoint::kMidJournal, 3, "mid_journal"},
                      CrashCase{CrashPoint::kAtCollective, 5, "at_service"},
                      CrashCase{CrashPoint::kMidClose, 1, "mid_close"}),
    [](const ::testing::TestParamInfo<CrashCase>& info) {
      return info.param.name;
    });

TEST(DelegateCrashTest, SlowLiveDelegateIsNeverSuspected) {
  // Crash tolerance on, no crash scheduled, and a file system so slow that
  // every delegate reply takes far longer than any plausible timeout: a
  // suspected delegate is a crashed delegate, so nobody is adopted.
  fs::FsConfig fcfg = fsCfg();
  fcfg.ost_request_overhead = 0.5;
  fs::Filesystem fsys(fcfg);
  core::TcioDelegateStats stats;
  constexpr int kProcs = 6;
  constexpr int kDelegates = 2;
  constexpr int kClients = kProcs - kDelegates;
  constexpr int kBlocks = 4;
  mpi::runJob(job(kProcs, /*seed=*/13), [&](mpi::Comm& comm) {
    core::TcioConfig cfg = delegated(kDelegates);
    cfg.crash.enabled = true;
    cfg.crash.journal = true;
    runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
      const int c = s.clientComm().rank();
      DFile f(ch, "slow.dat", fs::kWrite | fs::kCreate);
      for (int b = 0; b < kBlocks; ++b) {
        const Offset off =
            (static_cast<Offset>(c) * kBlocks + b) * kSegment;
        f.writeAt(off, clientBlock(c, off, kSegment));
      }
      EXPECT_EQ(f.close(), static_cast<Bytes>(kClients) * kBlocks * kSegment);
    }, &stats);
  });
  EXPECT_EQ(stats.delegates_crashed, 0);
  EXPECT_EQ(stats.shards_adopted, 0);
  for (int c = 0; c < kClients; ++c) {
    for (int b = 0; b < kBlocks; ++b) {
      const Offset off = (static_cast<Offset>(c) * kBlocks + b) * kSegment;
      EXPECT_EQ(peekBytes(fsys, "slow.dat", off, kSegment),
                clientBlock(c, off, kSegment))
          << "client " << c << " block " << b;
    }
  }
}

TEST(DelegateCrashTest, AdjacentDoubleDeathAdoptsBothShards) {
  // Delegates 0 and 1 both die during the put phase, so one agreement round
  // carries a two-entry verdict. The survivor must mark the whole verdict
  // dead before computing adopters: interleaving mark and adopt would hand
  // delegate 0's shard to the also-dead delegate 1, silently dropping 0's
  // acknowledged (journaled) puts.
  fs::Filesystem fsys(fsCfg());
  core::TcioDelegateStats stats;
  constexpr int kProcs = 6;
  constexpr int kDelegates = 3;
  constexpr int kClients = kProcs - kDelegates;
  constexpr int kBlocks = 4;
  mpi::runJob(job(kProcs, /*seed=*/31), [&](mpi::Comm& comm) {
    core::TcioConfig cfg = delegated(kDelegates);
    cfg.crash.enabled = true;
    cfg.crash.journal = true;
    cfg.faults.seed = 31;
    cfg.faults.crashes.push_back({/*rank=*/0, CrashPoint::kMidJournal, 2});
    cfg.faults.crashes.push_back({/*rank=*/1, CrashPoint::kMidJournal, 2});
    runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
      const int c = s.clientComm().rank();
      DFile f(ch, "twodead.dat", fs::kWrite | fs::kCreate);
      for (int b = 0; b < kBlocks; ++b) {
        const Offset off = (static_cast<Offset>(c) * kBlocks + b) * kSegment;
        f.writeAt(off, clientBlock(c, off, kSegment));
      }
      f.close();
    }, &stats);
  });
  EXPECT_EQ(stats.delegates_crashed, 2);
  EXPECT_EQ(stats.shards_adopted, 2)
      << "the lone survivor must adopt BOTH dead shards";
  for (int c = 0; c < kClients; ++c) {
    for (int b = 0; b < kBlocks; ++b) {
      const Offset off = (static_cast<Offset>(c) * kBlocks + b) * kSegment;
      EXPECT_EQ(peekBytes(fsys, "twodead.dat", off, kSegment),
                clientBlock(c, off, kSegment))
          << "lost bytes at client " << c << " block " << b;
    }
  }
}

TEST(DelegateCrashTest, AdopterCrashBeforeDrainPreservesTheChain) {
  // Delegate 0 dies mid-put; delegate 1 adopts its shard (journal replay),
  // then itself dies at the start of the close-time drain. Delegate 2 then
  // adopts delegate 1 — and, via the chain scan over the agreed death order,
  // re-adopts delegate 0 from 0's ORIGINAL journal: an adopter's WAL never
  // carries the records it adopted.
  fs::Filesystem fsys(fsCfg());
  core::TcioDelegateStats stats;
  constexpr int kProcs = 6;
  constexpr int kDelegates = 3;
  constexpr int kClients = kProcs - kDelegates;
  constexpr int kBlocks = 4;
  mpi::runJob(job(kProcs, /*seed=*/37), [&](mpi::Comm& comm) {
    core::TcioConfig cfg = delegated(kDelegates);
    cfg.crash.enabled = true;
    cfg.crash.journal = true;
    cfg.faults.seed = 37;
    cfg.faults.crashes.push_back({/*rank=*/0, CrashPoint::kMidJournal, 2});
    cfg.faults.crashes.push_back({/*rank=*/1, CrashPoint::kMidClose, 0});
    runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
      const int c = s.clientComm().rank();
      DFile f(ch, "chain.dat", fs::kWrite | fs::kCreate);
      for (int b = 0; b < kBlocks; ++b) {
        const Offset off = (static_cast<Offset>(c) * kBlocks + b) * kSegment;
        f.writeAt(off, clientBlock(c, off, kSegment));
      }
      f.close();
    }, &stats);
  });
  EXPECT_EQ(stats.delegates_crashed, 2);
  // Delegate 1's adoption of 0 died with it (fail-stop — its counters never
  // reach the shutdown merge), but the survivor's chain scan adopts both
  // dead shards itself: 1's as a fresh death, 0's as a re-adoption.
  EXPECT_EQ(stats.shards_adopted, 2);
  EXPECT_EQ(stats.shards_readopted, 1);
  for (int c = 0; c < kClients; ++c) {
    for (int b = 0; b < kBlocks; ++b) {
      const Offset off = (static_cast<Offset>(c) * kBlocks + b) * kSegment;
      EXPECT_EQ(peekBytes(fsys, "chain.dat", off, kSegment),
                clientBlock(c, off, kSegment))
          << "chain-lost bytes at client " << c << " block " << b;
    }
  }
}

TEST(DelegateCrashTest, AdopterDiesMidReplayChainFallsToOriginalJournals) {
  // The cascade the chain test above cannot reach: delegate 0 dies mid-put,
  // delegate 1 adopts it and then dies INSIDE the adoption itself — while
  // replaying 0's journal into its shard buffers (CrashPoint::kMidRecovery).
  // Delegate 2 must then adopt 1 AND re-adopt 0 from 0's ORIGINAL journal
  // (the chain scan over death order): the half-replayed buffers died with
  // delegate 1, and its own WAL never carries 0's records. The duplicate
  // replays are byte-identical and therefore idempotent.
  fs::Filesystem fsys(fsCfg());
  core::TcioDelegateStats stats;
  constexpr int kProcs = 6;
  constexpr int kDelegates = 3;
  constexpr int kClients = kProcs - kDelegates;
  constexpr int kBlocks = 4;
  mpi::runJob(job(kProcs, /*seed=*/41), [&](mpi::Comm& comm) {
    core::TcioConfig cfg = delegated(kDelegates);
    cfg.crash.enabled = true;
    cfg.crash.journal = true;
    cfg.faults.seed = 41;
    cfg.faults.crashes.push_back({/*rank=*/0, CrashPoint::kMidJournal, 2});
    cfg.faults.crashes.push_back({/*rank=*/1, CrashPoint::kMidRecovery, 0});
    runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
      const int c = s.clientComm().rank();
      DFile f(ch, "cascade.dat", fs::kWrite | fs::kCreate);
      for (int b = 0; b < kBlocks; ++b) {
        const Offset off = (static_cast<Offset>(c) * kBlocks + b) * kSegment;
        f.writeAt(off, clientBlock(c, off, kSegment));
      }
      f.close();
    }, &stats);
  });
  EXPECT_EQ(stats.delegates_crashed, 2);
  // Delegate 2 adopted both dead shards (1's own half-finished adoption of 0
  // died with it and never reached the merge); 0's was a re-adoption — its
  // first adopter was already dead when the shard landed here.
  EXPECT_EQ(stats.shards_adopted, 2);
  EXPECT_EQ(stats.shards_readopted, 1)
      << "the chain scan must re-adopt the first victim from its original "
         "journal after its adopter died mid-replay";
  for (int c = 0; c < kClients; ++c) {
    for (int b = 0; b < kBlocks; ++b) {
      const Offset off = (static_cast<Offset>(c) * kBlocks + b) * kSegment;
      EXPECT_EQ(peekBytes(fsys, "cascade.dat", off, kSegment),
                clientBlock(c, off, kSegment))
          << "cascade-lost bytes at client " << c << " block " << b;
    }
  }
}

TEST(DelegateCrashTest, CrashRunsAreDeterministic) {
  constexpr int kProcs = 6;
  auto run = [&] {
    fs::Filesystem fsys(fsCfg());
    core::TcioDelegateStats stats;
    SimTime makespan = 0;
    mpi::runJob(job(kProcs, /*seed=*/23), [&](mpi::Comm& comm) {
      core::TcioConfig cfg = delegated(/*d=*/2);
      cfg.crash.enabled = true;
      cfg.faults.seed = 23;
      cfg.faults.crashes.push_back(
          {/*rank=*/1, CrashPoint::kMidJournal, /*after=*/2});
      runSession(comm, fsys, cfg, [&](Session& s, Channel& ch) {
        const int c = s.clientComm().rank();
        DFile f(ch, "det.dat", fs::kWrite | fs::kCreate);
        for (int b = 0; b < 3; ++b) {
          const Offset off = (static_cast<Offset>(c) * 3 + b) * kSegment;
          f.writeAt(off, clientBlock(c, off, kSegment));
        }
        f.close();
        makespan = comm.proc().now();
      }, &stats);
    });
    const Bytes size = fsys.peekSize("det.dat");
    std::uint32_t crc = 0;
    for (Offset off = 0; off < size; off += kSegment) {
      const auto chunk = peekBytes(fsys, "det.dat", off,
                                   std::min<Bytes>(kSegment, size - off));
      crc = crc32(std::span<const std::byte>(chunk), crc);
    }
    return std::tuple<std::uint32_t, SimTime, std::int64_t, std::int64_t>{
        crc, makespan, stats.deferred_resubmissions,
        stats.journal_records_replayed};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

// -- Churn workload ------------------------------------------------------------

TEST(DelegateChurnTest, OpenWriteCloseChurnMatchesBaseline) {
  workload::ChurnConfig ccfg;
  ccfg.rounds = 3;
  ccfg.block_bytes = 256;
  ccfg.blocks_per_round = 2;
  ccfg.tcio.segment_size = kSegment;
  ccfg.tcio.segments_per_rank = 8;
  ccfg.tcio.delegate_ranks = -1;  // baseline even if TCIO_DELEGATES is set

  // Baseline: every rank churns through core::File.
  fs::Filesystem base_fs(fsCfg());
  mpi::runJob(job(6), [&](mpi::Comm& comm) {
    const workload::ChurnResult r = workload::runChurn(comm, base_fs, ccfg);
    EXPECT_EQ(r.files, ccfg.rounds);
    EXPECT_EQ(r.delegate.submissions, 0);
  });

  // Delegate mode: 2 servers, 4 clients, a tight queue to exercise
  // admission under churn.
  fs::Filesystem del_fs(fsCfg());
  workload::ChurnConfig dcfg = ccfg;
  dcfg.tcio.delegate_ranks = 2;
  dcfg.tcio.delegate.queue_capacity = 2;
  mpi::runJob(job(6), [&](mpi::Comm& comm) {
    const workload::ChurnResult r = workload::runChurn(comm, del_fs, dcfg);
    EXPECT_GT(r.delegate.submissions, 0);
    EXPECT_GT(r.delegate.batches, 0);
  });

  // Same deterministic bytes on both paths — note the baseline writes with
  // 6 ranks while delegate mode writes with the 4 clients, so compare each
  // against the generator, not against each other.
  for (int r = 0; r < ccfg.rounds; ++r) {
    const std::string name = workload::churnFileName(ccfg, r);
    for (int c = 0; c < 4; ++c) {
      for (int b = 0; b < ccfg.blocks_per_round; ++b) {
        const Offset off =
            (static_cast<Offset>(c) * ccfg.blocks_per_round + b) *
            ccfg.block_bytes;
        std::vector<std::byte> want(
            static_cast<std::size_t>(ccfg.block_bytes));
        for (std::int64_t i = 0; i < ccfg.block_bytes; ++i) {
          want[static_cast<std::size_t>(i)] = workload::churnByte(r, c, b, i);
        }
        EXPECT_EQ(peekBytes(base_fs, name, off, ccfg.block_bytes), want);
        EXPECT_EQ(peekBytes(del_fs, name, off, ccfg.block_bytes), want);
      }
    }
  }
}

TEST(DelegateChurnTest, EnvironmentDrivenDelegateChurn) {
  // The TCIO_DELEGATES path the CI legs use: config says 0, env says 2.
  workload::ChurnConfig ccfg;
  ccfg.rounds = 2;
  ccfg.block_bytes = 128;
  ccfg.tcio.segment_size = kSegment;
  ccfg.tcio.segments_per_rank = 8;
  ::setenv("TCIO_DELEGATES", "2", 1);
  fs::Filesystem fsys(fsCfg());
  mpi::runJob(job(6), [&](mpi::Comm& comm) {
    const workload::ChurnResult r = workload::runChurn(comm, fsys, ccfg);
    EXPECT_GT(r.delegate.submissions, 0);
  });
  ::unsetenv("TCIO_DELEGATES");
  const std::map<int, std::int64_t> ops = fsys.opsByClient();
  for (const auto& [rank, n] : ops) EXPECT_LT(rank, 2);
}

// -- Mode composition ---------------------------------------------------------

TEST(DelegateSessionTest, RejectsNodeAggregation) {
  // Node aggregation is a core::File transfer mode; delegate clients submit
  // to the delegates directly, so a session refuses the flag up front.
  fs::Filesystem fsys(fsCfg());
  core::TcioConfig cfg = delegated(/*d=*/2);
  cfg.node_aggregation = true;
  mpi::JobConfig c = job(6);
  c.net.ranks_per_node = 2;
  try {
    mpi::runJob(c, [&](mpi::Comm& comm) { Session s(comm, fsys, cfg); });
    ADD_FAILURE() << "delegate::Session accepted node_aggregation";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("node_aggregation"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace tcio::delegate
