// Ablation: I/O delegate ranks (src/delegate/, DESIGN.md §10) vs the
// every-rank-hits-the-file-system baseline.
//
// Three legs:
//   1. Ratio sweep on the fig-5 interleaved write pattern: W writers with
//      D ∈ {0, W/16, W/8, W/4} delegate ranks stacked in front (total ranks
//      W + D, so the written file is byte-identical across the sweep). The
//      delegate legs must reach CRC parity with the D=0 baseline while the
//      set of ranks issuing FS calls collapses to exactly {0..D-1}.
//   2. Delegate crash: the same pattern with a fail-stop crash scheduled
//      mid-journal on delegate 0. Shard adoption plus WAL replay and client
//      resubmission must reproduce the baseline CRC exactly.
//   3. Open/write/close churn (workload/churn.h) at P >= 4096 clients
//      against a handful of delegates with a tiny queue: admission control
//      must reject (kBusy) and the clients' backoff/retry path must carry
//      the traffic to a byte-correct file regardless.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/crc32.h"
#include "delegate/client.h"
#include "delegate/session.h"
#include "workload/churn.h"

namespace tcio::bench {
namespace {

constexpr Bytes kBlock = 4096;
constexpr int kBlocksPerClient = 8;

/// Deterministic content byte of writer `c`'s block `b` at index `j`.
std::byte blockByte(int c, int b, std::int64_t j) {
  const std::uint64_t h = static_cast<std::uint64_t>(c) * 1000003ULL +
                          static_cast<std::uint64_t>(b) * 8191ULL +
                          static_cast<std::uint64_t>(j);
  return static_cast<std::byte>(h * 2654435761ULL >> 24);
}

std::vector<std::byte> blockPayload(int c, int b) {
  std::vector<std::byte> data(static_cast<std::size_t>(kBlock));
  for (std::int64_t j = 0; j < kBlock; ++j) {
    data[static_cast<std::size_t>(j)] = blockByte(c, b, j);
  }
  return data;
}

/// CRC32 of file `name` as the simulated FS holds it.
std::uint32_t fileCrc(fs::Filesystem& fsys, const std::string& name) {
  const Bytes size = fsys.peekSize(name);
  std::uint32_t crc = 0;
  std::vector<std::byte> chunk(64 * 1024);
  for (Offset off = 0; off < size;) {
    const Bytes n = std::min<Bytes>(static_cast<Bytes>(chunk.size()),
                                    size - off);
    fsys.peek(name, off, std::span<std::byte>(chunk.data(),
                                              static_cast<std::size_t>(n)));
    crc = crc32(std::span<const std::byte>(chunk.data(),
                                           static_cast<std::size_t>(n)),
                crc);
    off += n;
  }
  return crc;
}

struct Sample {
  SimTime makespan = 0;
  std::uint32_t crc = 0;
  Bytes file_size = 0;
  int fs_clients = 0;        // distinct ranks that issued FS requests
  bool fs_clients_exact = false;  // delegate legs: keys == {0..D-1}
  core::TcioDelegateStats del;
};

/// Fig-5 interleaved write: W writers, writer c's block i at file offset
/// (i*W + c) * kBlock. `D` delegate ranks are stacked in front (total ranks
/// W + D); D == 0 runs the core::File baseline on W ranks.
Sample measureFig5(int W, int D, bool crash) {
  fs::Filesystem fsys(paperFs());
  mpi::JobConfig job = paperJob(W + D, /*seed=*/3);
  applyUnscaledMessageCost(job);  // all legs (incl. D=0): same cost model
  const std::string name = "fig5_delegates.dat";
  const Bytes file_size = static_cast<Bytes>(W) * kBlocksPerClient * kBlock;
  Sample s;
  core::TcioConfig tc = paperTcio();
  const std::int64_t total_segs =
      (file_size + tc.segment_size - 1) / tc.segment_size;
  const auto res = mpi::runJob(job, [&](mpi::Comm& comm) {
    if (D == 0) {
      core::TcioConfig base = tc;
      base.delegate_ranks = -1;  // explicit baseline pin, beats TCIO_DELEGATES
      base.segments_per_rank = (total_segs + W - 1) / W;
      core::File f(comm, fsys, name,
                   fs::kWrite | fs::kCreate | fs::kTruncate, base);
      for (int i = 0; i < kBlocksPerClient; ++i) {
        const std::vector<std::byte> data = blockPayload(comm.rank(), i);
        f.writeAt((static_cast<Offset>(i) * W + comm.rank()) * kBlock,
                  data.data(), kBlock);
      }
      f.close();
      return;
    }
    core::TcioConfig cfg = tc;
    cfg.delegate_ranks = D;
    cfg.segments_per_rank = (total_segs + D - 1) / D;
    if (crash) {
      cfg.crash.enabled = true;
      cfg.crash.journal = true;
      cfg.faults.seed = 3;
      // Delegate 0 dies mid journal append, leaving a torn record behind.
      cfg.faults.crashes.push_back(
          {/*rank=*/0, CrashPoint::kMidJournal, /*after=*/3});
    }
    delegate::Session session(comm, fsys, cfg);
    if (session.isDelegate()) {
      session.serve();
      return;
    }
    delegate::Channel ch(session);
    const int c = session.clientComm().rank();
    delegate::DFile f(ch, name, fs::kWrite | fs::kCreate | fs::kTruncate);
    for (int i = 0; i < kBlocksPerClient; ++i) {
      f.writeAt((static_cast<Offset>(i) * W + c) * kBlock, blockPayload(c, i));
    }
    f.close();
    const core::TcioDelegateStats& merged = session.finish();
    if (c == 0) s.del = merged;
  });
  s.makespan = res.makespan;
  s.crc = fileCrc(fsys, name);
  s.file_size = fsys.peekSize(name);
  const auto& ops = fsys.opsByClient();
  s.fs_clients = static_cast<int>(ops.size());
  // The delegate invariant: only ranks 0..D-1 ever touch the FS. (The
  // baseline has no such bound — every rank drains its own segments.)
  s.fs_clients_exact = D == 0 || s.fs_clients == D;
  for (const auto& [rank, n] : ops) {
    if (D > 0 && rank >= D) s.fs_clients_exact = false;
  }
  return s;
}

struct ChurnSample {
  SimTime makespan = 0;
  workload::ChurnResult res;
  bool bytes_ok = false;
};

/// Churn at `P` total ranks: D delegates with a small queue against P - D
/// clients opening, writing, and closing a shared file every round. The
/// queue stays ~16x oversubscribed, so admission control must reject; the
/// capacity scales with P only to keep the retry-storm message count (and
/// the bench's wall-clock) linear rather than quadratic in the client count.
ChurnSample measureChurn(int P, int D, std::int64_t queue_capacity) {
  fs::Filesystem fsys(paperFs());
  workload::ChurnConfig cfg;
  cfg.rounds = 2;
  cfg.block_bytes = 512;
  cfg.blocks_per_round = 1;
  cfg.tcio = paperTcio();
  cfg.tcio.delegate_ranks = D > 0 ? D : -1;
  cfg.tcio.delegate.queue_capacity = queue_capacity;
  ChurnSample s;
  mpi::JobConfig job = paperJob(P, /*seed=*/5);
  applyUnscaledMessageCost(job);
  const auto res = mpi::runJob(job, [&](mpi::Comm& comm) {
    const workload::ChurnResult r = workload::runChurn(comm, fsys, cfg);
    if (comm.rank() == comm.size() - 1) s.res = r;
  });
  s.makespan = res.makespan;
  // Verify every round file byte-for-byte against the generator.
  const int clients = D > 0 ? P - D : P;
  s.bytes_ok = true;
  std::vector<std::byte> expect(
      static_cast<std::size_t>(clients) * cfg.block_bytes);
  for (int r = 0; r < cfg.rounds; ++r) {
    for (int c = 0; c < clients; ++c) {
      for (std::int64_t j = 0; j < cfg.block_bytes; ++j) {
        expect[static_cast<std::size_t>(c) * cfg.block_bytes +
               static_cast<std::size_t>(j)] = workload::churnByte(r, c, 0, j);
      }
    }
    const std::string name = workload::churnFileName(cfg, r);
    if (fsys.peekSize(name) != static_cast<Bytes>(expect.size()) ||
        fileCrc(fsys, name) != crc32(expect)) {
      s.bytes_ok = false;
    }
  }
  return s;
}

}  // namespace
}  // namespace tcio::bench

int main() {
  using namespace tcio;
  using namespace tcio::bench;

  printHeader(
      "Ablation: I/O delegate ranks (client:delegate ratio sweep + churn)",
      "delegate legs reach CRC parity with the baseline while only ranks "
      "0..D-1 issue FS calls; adjacent-extent batching cuts FS requests; "
      "a mid-journal delegate crash recovers to the identical CRC; churn "
      "with a tiny queue reports nonzero admission rejections absorbed by "
      "client busy-retries");

  const bool fast = envInt64("TCIO_BENCH_FAST", 0) != 0;
  const int W = fast ? 48 : 192;
  bool ok = true;

  // -- Leg 1: ratio sweep ----------------------------------------------------
  Table sweep("ablation.delegates.sweep");
  sweep.header({"delegates", "FS ranks", "exact", "crc", "submissions",
                "batches", "busy retries", "makespan s", "speedup"});
  const Sample base = measureFig5(W, 0, /*crash=*/false);
  std::uint32_t base_crc = base.crc;
  std::fprintf(stderr, "[sweep] baseline done\n");
  for (int D : {0, W / 16, W / 8, W / 4}) {
    const Sample s = D == 0 ? base : measureFig5(W, D, /*crash=*/false);
    std::fprintf(stderr, "[sweep] D=%d done\n", D);
    const bool parity = s.crc == base_crc && s.fs_clients_exact;
    if (!parity) ok = false;
    sweep.row({std::to_string(D), std::to_string(s.fs_clients),
               D == 0 ? "-" : (s.fs_clients_exact ? "yes" : "NO"),
               s.crc == base_crc ? "parity" : "MISMATCH",
               std::to_string(s.del.submissions),
               std::to_string(s.del.batches),
               std::to_string(s.del.busy_retries),
               formatDouble(s.makespan, 4),
               formatDouble(base.makespan / s.makespan, 2)});
  }
  sweep.print(std::cout);

  // -- Leg 2: delegate crash -------------------------------------------------
  const Sample crash = measureFig5(W, W / 8, /*crash=*/true);
  std::fprintf(stderr, "[crash] done\n");
  const bool crash_ok = crash.crc == base_crc && crash.del.delegates_crashed &&
                        crash.del.shards_adopted > 0;
  if (!crash_ok) ok = false;
  std::printf(
      "crash leg (D=%d, mid-journal): crashed=%lld adopted=%lld replayed=%lld "
      "resubmitted=%lld crc %s\n",
      W / 8, static_cast<long long>(crash.del.delegates_crashed),
      static_cast<long long>(crash.del.shards_adopted),
      static_cast<long long>(crash.del.journal_records_replayed),
      static_cast<long long>(crash.del.deferred_resubmissions),
      crash.crc == base_crc ? "parity" : "MISMATCH");

  // -- Leg 3: churn at scale -------------------------------------------------
  const int churn_P = fast ? 256 : 4096;
  const int churn_D = fast ? 8 : 4;
  const std::int64_t churn_queue = fast ? 8 : 64;
  const ChurnSample churn = measureChurn(churn_P, churn_D, churn_queue);
  const bool churn_ok = churn.bytes_ok && churn.res.delegate.rejections > 0 &&
                        churn.res.delegate.busy_retries > 0;
  if (!churn_ok) ok = false;
  std::printf(
      "churn leg (P=%d, D=%d, queue=%lld): submissions=%lld rejections=%lld "
      "busy_retries=%lld high_watermark=%lld bytes %s makespan %.4fs\n",
      churn_P, churn_D, static_cast<long long>(churn_queue),
      static_cast<long long>(churn.res.delegate.submissions),
      static_cast<long long>(churn.res.delegate.rejections),
      static_cast<long long>(churn.res.delegate.busy_retries),
      static_cast<long long>(churn.res.delegate.queue_high_watermark),
      churn.bytes_ok ? "verified" : "MISMATCH", churn.makespan);

  std::printf("acceptance (CRC parity, FS ranks == {0..D-1}, crash recovery, "
              "churn rejections absorbed): %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
