#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <optional>
#include <span>

#include "art/checkpoint.h"
#include "bench/bench_common.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "delegate/client.h"
#include "delegate/session.h"
#include "mpiio/file.h"
#include "workload/synthetic.h"

namespace perfbench {

using namespace tcio;

// -- Shared pieces --------------------------------------------------------------

void TcioCounters::add(const core::TcioStats& s) {
  level1_flushes += s.level1_flushes;
  bytes_written += s.bytes_written;
  collective_fetches += s.collective_fetches;
  independent_fetches += s.independent_fetches;
  crc_checks += s.integrity.crc_checks;
  crc_mismatches += s.integrity.crc_mismatches;
  segments_scrubbed += s.integrity.segments_scrubbed;
  node_exchanges += s.node_exchanges;
  intranode_bytes += s.intranode_bytes;
  internode_msgs_saved += s.internode_messages_saved;
  // Per rank: the rank is degraded if any of its files was.
  degraded_ranks = std::max<std::int64_t>(degraded_ranks, s.degraded.any());
}

void TcioCounters::add(const TcioCounters& o) {
  level1_flushes += o.level1_flushes;
  bytes_written += o.bytes_written;
  collective_fetches += o.collective_fetches;
  independent_fetches += o.independent_fetches;
  crc_checks += o.crc_checks;
  crc_mismatches += o.crc_mismatches;
  segments_scrubbed += o.segments_scrubbed;
  node_exchanges += o.node_exchanges;
  intranode_bytes += o.intranode_bytes;
  internode_msgs_saved += o.internode_msgs_saved;
  degraded_ranks += o.degraded_ranks;
}

void Leg::fail(const std::string& why, std::int64_t n) {
  failed += n;
  if (error.empty()) error = why;
}

namespace {

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

NetCounters countersOf(net::Network& n) {
  NetCounters c;
  c.messages = n.messageCount();
  c.bytes = n.bytesMoved();
  c.internode_payload_msgs = n.internodePayloadMessages();
  c.internode_control_msgs = n.internodeControlMessages();
  c.internode_bytes = n.internodeBytes();
  c.intranode_msgs = n.intranodeMessageCount();
  c.intranode_bytes = n.intranodeBytes();
  c.fabric_busy_s = n.fabric().busyTime();
  c.rma_drops = n.rmaDropCount();
  return c;
}

}  // namespace

void runLeg(Leg& leg, const mpi::JobConfig& job,
            const std::function<void(mpi::Comm&)>& body) {
  const int P = job.num_ranks;
  std::vector<Bytes> peaks(static_cast<std::size_t>(P), 0);
  std::atomic<int> finished{0};
  rusage r0{};
  rusage r1{};
  getrusage(RUSAGE_SELF, &r0);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    leg.job = mpi::runJob(job, [&](mpi::Comm& comm, mpi::World& world) {
      body(comm);
      peaks[static_cast<std::size_t>(comm.rank())] = comm.memory().peak();
      // The last rank to return reads the network: no transfer can follow.
      if (finished.fetch_add(1) + 1 == P) leg.net = countersOf(world.network());
    });
  } catch (const std::exception& e) {
    leg.fail(std::string("job threw: ") + e.what());
  }
  leg.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count();
  getrusage(RUSAGE_SELF, &r1);
  leg.user_s = seconds(r1.ru_utime) - seconds(r0.ru_utime);
  leg.sys_s = seconds(r1.ru_stime) - seconds(r0.ru_stime);
  leg.ctx_switches = (r1.ru_nvcsw - r0.ru_nvcsw) + (r1.ru_nivcsw - r0.ru_nivcsw);
  leg.mem_peak = *std::max_element(peaks.begin(), peaks.end());
}

namespace {

constexpr const char* kFile = "perfbench.dat";

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Seed-keyed byte stream, so every seed writes different bytes.
std::byte keyByte(std::uint64_t seed, Offset off) {
  return static_cast<std::byte>(
      mix(mix(seed) ^ static_cast<std::uint64_t>(off)) >> 56);
}

std::uint32_t fileCrc(const fs::Filesystem& fsys, const std::string& name,
                      Offset from, Bytes size) {
  std::vector<std::byte> buf(static_cast<std::size_t>(size - from));
  fsys.peek(name, from, buf);
  return crc32(buf);
}

void noteFs(Leg& leg, const fs::Filesystem& fsys) {
  leg.fs = fsys.stats();
  leg.fs_clients = static_cast<std::int64_t>(fsys.opsByClient().size());
}

void barrier(Leg& leg, mpi::Comm& comm) {
  Scope s(leg.probe, comm, "mpi", "mpi.barrier", true);
  comm.barrier();
}

/// Segments each of `owners` ranks must hold for a `file_bytes` file.
std::int64_t segmentsPerOwner(const core::TcioConfig& t, Bytes file_bytes,
                              int owners) {
  const std::int64_t segs = (file_bytes + t.segment_size - 1) / t.segment_size;
  return std::max<std::int64_t>(1, (segs + owners - 1) / owners);
}

/// TCIO with every environment-overridable knob pinned. `extensions` turns
/// on the stack at its defaults: node aggregation, end-to-end integrity and
/// crash tolerance with journaling (no faults injected).
core::TcioConfig pinnedTcio(bool extensions) {
  core::TcioConfig t = bench::paperTcio();
  t.delegate_ranks = -1;
  t.integrity.enabled = extensions ? 1 : -1;
  t.node_aggregation = extensions;
  t.crash.enabled = extensions;
  t.crash.journal = true;
  return t;
}

fs::FsConfig pinnedFs(bool integrity) {
  fs::FsConfig c = bench::paperFs();
  c.integrity = integrity ? 1 : -1;
  return c;
}

/// A round-robin interleaved layout: in round i, rank r writes one block of
/// accesses of the given sizes at file offset (i * ranks + r) * block. In
/// the rank's read-back buffer the round sits at i * block.
struct Pattern {
  int ranks = 0;
  std::int64_t rounds = 0;
  std::vector<Bytes> sizes;

  Bytes block() const {
    Bytes b = 0;
    for (Bytes n : sizes) b += n;
    return b;
  }
  std::int64_t calls() const {
    return rounds * static_cast<std::int64_t>(sizes.size());
  }
  Bytes rankBytes() const { return rounds * block(); }
  Bytes fileBytes() const { return rankBytes() * ranks; }

  /// fn(file offset, length, offset in the rank's buffer) per access.
  template <typename F>
  void forEach(int rank, F&& fn) const {
    const Bytes b = block();
    for (std::int64_t i = 0; i < rounds; ++i) {
      Offset pos = (i * ranks + rank) * b;
      Offset local = i * b;
      for (Bytes n : sizes) {
        fn(pos, n, local);
        pos += n;
        local += n;
      }
    }
  }
};

using ReadBack = std::vector<std::vector<std::byte>>;

ReadBack readBuffers(const Pattern& pat) {
  return ReadBack(static_cast<std::size_t>(pat.ranks),
                  std::vector<std::byte>(
                      static_cast<std::size_t>(pat.rankBytes())));
}

/// Checks the written file against `image` by size and CRC, and every read
/// access against the bytes it should have returned.
void verifyPattern(Leg& leg, const fs::Filesystem& fsys, const Pattern& pat,
                   const std::vector<std::byte>& image, std::uint32_t crc,
                   const ReadBack& back) {
  noteFs(leg, fsys);
  leg.write_bytes = leg.read_bytes = pat.fileBytes();
  if (!leg.error.empty()) return;
  const Bytes size = fsys.peekSize(kFile);
  if (size != pat.fileBytes()) {
    leg.fail("file size " + std::to_string(size) + " != " +
             std::to_string(pat.fileBytes()));
  } else if (fileCrc(fsys, kFile, 0, size) != crc) {
    leg.fail("file CRC mismatch");
  }
  std::int64_t wrong = 0;
  for (int r = 0; r < pat.ranks; ++r) {
    const auto& got = back[static_cast<std::size_t>(r)];
    pat.forEach(r, [&](Offset pos, Bytes n, Offset local) {
      if (std::memcmp(got.data() + local, image.data() + pos,
                      static_cast<std::size_t>(n)) != 0) {
        ++wrong;
      }
    });
  }
  if (wrong > 0) leg.fail("read-back mismatch", wrong);
}

/// One core::File job: open, per-access writeAt loop, close; then open,
/// lazy readAt loop, collective fetch, close.
Leg runFileLeg(const Pattern& pat, const std::vector<std::byte>& image,
               std::uint32_t crc, const fs::FsConfig& fcfg,
               const core::TcioConfig& tcfg, const mpi::JobConfig& job,
               bool traced) {
  Leg leg(job.num_ranks, traced);
  fs::Filesystem fsys(fcfg);
  ReadBack back = readBuffers(pat);
  std::vector<TcioCounters> per(static_cast<std::size_t>(job.num_ranks));
  runLeg(leg, job, [&](mpi::Comm& comm) {
    Probe& p = leg.probe;
    const int r = comm.rank();
    TcioCounters& mine = per[static_cast<std::size_t>(r)];
    {
      Scope phase(p, comm, "phase", "write");
      std::optional<core::File> f;
      {
        Scope s(p, comm, "tcio", "tcio.write_open", true);
        f.emplace(comm, fsys, kFile, fs::kWrite | fs::kCreate, tcfg);
      }
      {
        Scope s(p, comm, "tcio", "tcio.write_loop", false, pat.calls());
        pat.forEach(r, [&](Offset pos, Bytes n, Offset) {
          f->writeAt(pos, image.data() + pos, n);
        });
      }
      {
        Scope s(p, comm, "tcio", "tcio.write_close", true);
        f->close();
      }
      mine.add(f->stats());
    }
    barrier(leg, comm);
    {
      Scope phase(p, comm, "phase", "read");
      std::optional<core::File> f;
      {
        Scope s(p, comm, "tcio", "tcio.read_open", true);
        f.emplace(comm, fsys, kFile, fs::kRead, tcfg);
      }
      {
        Scope s(p, comm, "tcio", "tcio.read_loop", false, pat.calls());
        std::byte* dst = back[static_cast<std::size_t>(r)].data();
        pat.forEach(r, [&](Offset pos, Bytes n, Offset local) {
          f->readAt(pos, dst + local, n);
        });
      }
      {
        Scope s(p, comm, "tcio", "tcio.fetch", true);
        f->fetch();
      }
      {
        Scope s(p, comm, "tcio", "tcio.read_close", true);
        f->close();
      }
      mine.add(f->stats());
    }
  });
  for (const TcioCounters& c : per) leg.tcio.add(c);
  verifyPattern(leg, fsys, pat, image, crc, back);
  return leg;
}

// -- interleaved_rw and resilient_rw ---------------------------------------------

/// The paper's Table II synthetic benchmark: two interleaved arrays "i,d",
/// one datum per call. With `extensions`, the measured path runs the whole
/// extension stack and the baseline is plain TCIO; without, the measured
/// path is plain TCIO and the baseline is OCIO (two-phase MPI-IO).
class Interleaved final : public Workload {
 public:
  Interleaved(int P, std::int64_t len, bool extensions)
      : extensions_(extensions) {
    syn_.array_elem_sizes = {4, 8};
    syn_.len_array = len;
    syn_.size_access = 1;
    pat_.ranks = P;
    pat_.rounds = len;
    pat_.sizes = syn_.array_elem_sizes;
  }

  void setup(std::uint64_t seed) override {
    const Bytes size = pat_.fileBytes();
    image_.resize(static_cast<std::size_t>(size));
    for (Offset off = 0; off < size; ++off) {
      image_[static_cast<std::size_t>(off)] =
          workload::expectedByte(syn_, pat_.ranks, off) ^ keyByte(seed, off);
    }
    crc_ = crc32(image_);
    measured_ = pinnedTcio(extensions_);
    plain_ = pinnedTcio(false);
    for (core::TcioConfig* t : {&measured_, &plain_}) {
      t->segments_per_rank = segmentsPerOwner(*t, size, pat_.ranks);
    }
  }

  Leg run(bool baseline, bool traced, std::uint64_t job_seed) override {
    const mpi::JobConfig job = bench::paperJob(pat_.ranks, job_seed);
    if (!baseline) {
      return runFileLeg(pat_, image_, crc_, pinnedFs(extensions_), measured_,
                        job, traced);
    }
    if (extensions_) {
      return runFileLeg(pat_, image_, crc_, pinnedFs(false), plain_, job,
                        traced);
    }
    return runOcio(job, traced);
  }

  bool baselineIsMpiio() const override { return !extensions_; }

 private:
  /// The paper's Program 2: combine into an application buffer, describe
  /// the layout with a derived-datatype view, one collective call.
  Leg runOcio(const mpi::JobConfig& job, bool traced) {
    Leg leg(pat_.ranks, traced);
    fs::Filesystem fsys(pinnedFs(false));
    ReadBack back = readBuffers(pat_);
    const int P = pat_.ranks;
    const Bytes block = pat_.block();
    const Bytes mine = pat_.rankBytes();
    runLeg(leg, job, [&](mpi::Comm& comm) {
      Probe& p = leg.probe;
      const int r = comm.rank();
      const auto etype =
          mpi::Datatype::contiguous(block, mpi::Datatype::byte()).commit();
      const auto filetype =
          mpi::Datatype::vector(pat_.rounds, 1, P, etype).commit();
      std::vector<std::byte> buf(static_cast<std::size_t>(mine));
      ScopedAllocation charge(comm.memory(), mine,
                              "OCIO application-level combine buffer");
      {
        Scope phase(p, comm, "phase", "write");
        for (std::int64_t i = 0; i < pat_.rounds; ++i) {
          std::memcpy(buf.data() + i * block,
                      image_.data() + (i * P + r) * block,
                      static_cast<std::size_t>(block));
        }
        comm.chargeCopy(mine);
        std::optional<io::MpioFile> f;
        {
          Scope s(p, comm, "mpiio", "mpiio.write_open", true);
          f.emplace(io::MpioFile::open(comm, fsys, kFile,
                                       fs::kWrite | fs::kCreate));
        }
        {
          Scope s(p, comm, "mpiio", "mpiio.write_all", true);
          f->setView(r * block, etype, filetype);
          f->writeAtAll(0, buf.data(), mine);
        }
        {
          Scope s(p, comm, "mpiio", "mpiio.write_close", true);
          f->close();
        }
      }
      barrier(leg, comm);
      {
        Scope phase(p, comm, "phase", "read");
        std::optional<io::MpioFile> f;
        {
          Scope s(p, comm, "mpiio", "mpiio.read_open", true);
          f.emplace(io::MpioFile::open(comm, fsys, kFile, fs::kRead));
        }
        {
          Scope s(p, comm, "mpiio", "mpiio.read_all", true);
          f->setView(r * block, etype, filetype);
          f->readAtAll(0, back[static_cast<std::size_t>(r)].data(), mine);
        }
        {
          Scope s(p, comm, "mpiio", "mpiio.read_close", true);
          f->close();
        }
        comm.chargeCopy(mine);  // scatter back into the arrays
      }
    });
    verifyPattern(leg, fsys, pat_, image_, crc_, back);
    return leg;
  }

  bool extensions_;
  workload::BenchmarkConfig syn_;
  Pattern pat_;
  std::vector<std::byte> image_;
  std::uint32_t crc_ = 0;
  core::TcioConfig measured_;
  core::TcioConfig plain_;
};

// -- art_checkpoint ----------------------------------------------------------------

/// ART checkpoint/restart: `steps` dumps of `num_trees` FTT trees whose
/// sizes are drawn from Normal(2048, 128), advanced between dumps, then a
/// restart of the last dump. TCIO against vanilla per-array MPI-IO.
class ArtCheckpoint final : public Workload {
 public:
  ArtCheckpoint(int P, std::int64_t num_trees, int steps)
      : P_(P), num_trees_(num_trees), steps_(steps) {}

  void setup(std::uint64_t seed) override {
    const auto t0 = std::chrono::steady_clock::now();
    trees_.assign(static_cast<std::size_t>(steps_),
                  std::vector<std::vector<art::FttTree>>(
                      static_cast<std::size_t>(P_)));
    Rng draw(seed);
    const art::TreeGenConfig gen;
    for (std::int64_t id = 0; id < num_trees_; ++id) {
      const auto cells = std::max<std::int64_t>(
          64, static_cast<std::int64_t>(draw.normal(2048.0, 128.0)));
      art::FttTree t = art::generateTreeWithCells(seed, id, gen.num_vars, cells);
      Rng evolve(mix(seed) ^ mix(static_cast<std::uint64_t>(id)));
      for (int s = 0; s < steps_; ++s) {
        if (s > 0) art::advanceTree(t, evolve, gen);
        trees_[static_cast<std::size_t>(s)][static_cast<std::size_t>(id % P_)]
            .push_back(t);
      }
    }
    // Expected file size and blob-region CRC of every dump: a 16-byte
    // header, a 24-byte table entry per tree, then the blobs in id order.
    header_ = 16 + 24 * num_trees_;
    sizes_.assign(static_cast<std::size_t>(steps_), header_);
    crcs_.assign(static_cast<std::size_t>(steps_), 0);
    arrays_ = 0;
    for (int s = 0; s < steps_; ++s) {
      auto& size = sizes_[static_cast<std::size_t>(s)];
      auto& crc = crcs_[static_cast<std::size_t>(s)];
      for (std::int64_t id = 0; id < num_trees_; ++id) {
        const art::FttTree& t = tree(s, id);
        size += art::treeSerializedSize(t);
        art::forEachArray(t, [&crc](const void* data, Bytes n) {
          crc = crc32({static_cast<const std::byte*>(data),
                       static_cast<std::size_t>(n)},
                      crc);
        });
        if (s == steps_ - 1) arrays_ += art::arrayCount(t);
      }
    }
    tcio_ = pinnedTcio(false);
    gen_s_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
                 .count();
  }

  Leg run(bool baseline, bool traced, std::uint64_t job_seed) override {
    Leg leg(P_, traced);
    fs::Filesystem fsys(pinnedFs(false));
    art::CheckpointConfig cfg;
    cfg.backend = baseline ? art::Backend::kVanillaMpiio : art::Backend::kTcio;
    cfg.tcio = tcio_;
    std::vector<std::vector<art::FttTree>> restored(
        static_cast<std::size_t>(P_));
    const std::string last = fileName(steps_ - 1);
    runLeg(leg, bench::paperJob(P_, job_seed), [&](mpi::Comm& comm) {
      Probe& p = leg.probe;
      const auto r = static_cast<std::size_t>(comm.rank());
      {
        Scope phase(p, comm, "phase", "write");
        for (int s = 0; s < steps_; ++s) {
          Scope d(p, comm, "art", "art.dump", true);
          art::dumpCheckpoint(comm, fsys, fileName(s),
                              trees_[static_cast<std::size_t>(s)][r],
                              num_trees_, cfg);
        }
      }
      barrier(leg, comm);
      {
        Scope phase(p, comm, "phase", "read");
        Scope s(p, comm, "art", "art.restart", true);
        restored[r] = art::loadCheckpoint(comm, fsys, last, cfg);
      }
    });
    noteFs(leg, fsys);
    for (std::int64_t s : sizes_) leg.write_bytes += s;
    leg.read_bytes = sizes_.back();
    if (!leg.error.empty()) return leg;
    for (int s = 0; s < steps_; ++s) {
      const std::string name = fileName(s);
      const Bytes size = fsys.peekSize(name);
      if (size != sizes_[static_cast<std::size_t>(s)]) {
        leg.fail(name + ": wrong size " + std::to_string(size));
      } else if (fileCrc(fsys, name, header_, size) !=
                 crcs_[static_cast<std::size_t>(s)]) {
        leg.fail(name + ": blob CRC mismatch");
      }
    }
    std::int64_t wrong = 0;
    for (int r = 0; r < P_; ++r) {
      const auto& want = trees_.back()[static_cast<std::size_t>(r)];
      const auto& got = restored[static_cast<std::size_t>(r)];
      for (std::size_t i = 0; i < want.size(); ++i) {
        if (i >= got.size() || !(got[i] == want[i])) ++wrong;
      }
    }
    if (wrong > 0) leg.fail("restarted trees differ from the dump", wrong);
    return leg;
  }

  bool baselineIsMpiio() const override { return true; }

  void addLayerMetrics(Metrics& m) const override {
    m["art.arrays"] = {static_cast<double>(arrays_), "count"};
    m["art.file_bytes"] = {static_cast<double>(sizes_.back()), "B"};
    m["art.gen_s"] = {gen_s_, "s"};
  }

 private:
  const art::FttTree& tree(int step, std::int64_t id) const {
    return trees_[static_cast<std::size_t>(step)]
                 [static_cast<std::size_t>(id % P_)]
                 [static_cast<std::size_t>(id / P_)];
  }
  static std::string fileName(int step) {
    return "art.chk." + std::to_string(step);
  }

  int P_;
  std::int64_t num_trees_;
  int steps_;
  // trees_[step][rank]: the rank's trees in treesOfRank() order.
  std::vector<std::vector<std::vector<art::FttTree>>> trees_;
  Bytes header_ = 0;
  std::vector<Bytes> sizes_;
  std::vector<std::uint32_t> crcs_;
  std::int64_t arrays_ = 0;
  core::TcioConfig tcio_;
  double gen_s_ = 0;
};

// -- delegate_rw -------------------------------------------------------------------

/// W clients write eight 4 KiB blocks each in the fig-5 interleaved layout
/// through D delegate ranks (direct mode) and read them back; the baseline
/// is core::File on the same W writers with delegates pinned off.
class DelegateRw final : public Workload {
 public:
  DelegateRw(int W, int D) : D_(D) {
    pat_.ranks = W;
    pat_.rounds = 8;
    pat_.sizes = {4096};
  }

  void setup(std::uint64_t seed) override {
    const Bytes size = pat_.fileBytes();
    image_.resize(static_cast<std::size_t>(size));
    for (Offset off = 0; off < size; ++off) {
      image_[static_cast<std::size_t>(off)] = keyByte(seed, off);
    }
    crc_ = crc32(image_);
    session_ = pinnedTcio(false);
    session_.delegate_ranks = D_;
    session_.segments_per_rank = segmentsPerOwner(session_, size, D_);
    plain_ = pinnedTcio(false);
    plain_.segments_per_rank = segmentsPerOwner(plain_, size, pat_.ranks);
  }

  Leg run(bool baseline, bool traced, std::uint64_t job_seed) override {
    if (baseline) {
      return runFileLeg(pat_, image_, crc_, pinnedFs(false), plain_,
                        bench::paperJob(pat_.ranks, job_seed), traced);
    }
    const int P = pat_.ranks + D_;
    Leg leg(P, traced);
    fs::Filesystem fsys(pinnedFs(false));
    ReadBack back = readBuffers(pat_);
    runLeg(leg, bench::paperJob(P, job_seed), [&](mpi::Comm& comm) {
      Probe& p = leg.probe;
      std::optional<delegate::Session> session;
      {
        Scope s(p, comm, "delegate", "delegate.session", true);
        session.emplace(comm, fsys, session_);
      }
      if (session->isDelegate()) {
        Scope s(p, comm, "delegate", "delegate.serve");
        session->serve();
        return;
      }
      delegate::Channel ch(*session);
      mpi::Comm& clients = session->clientComm();
      const int c = clients.rank();
      {
        Scope phase(p, comm, "phase", "write");
        std::optional<delegate::DFile> f;
        {
          Scope s(p, comm, "delegate", "delegate.write_open");
          f.emplace(ch, kFile, fs::kWrite | fs::kCreate | fs::kTruncate);
        }
        {
          Scope s(p, comm, "delegate", "delegate.write_loop", false,
                  pat_.calls());
          pat_.forEach(c, [&](Offset pos, Bytes n, Offset) {
            f->writeAt(pos, {image_.data() + pos, static_cast<std::size_t>(n)});
          });
        }
        {
          Scope s(p, comm, "delegate", "delegate.write_close", true);
          f->close();
        }
      }
      barrier(leg, clients);
      {
        Scope phase(p, comm, "phase", "read");
        std::optional<delegate::DFile> f;
        {
          Scope s(p, comm, "delegate", "delegate.read_open");
          f.emplace(ch, kFile, fs::kRead);
        }
        {
          Scope s(p, comm, "delegate", "delegate.read_loop", false,
                  pat_.calls());
          std::byte* dst = back[static_cast<std::size_t>(c)].data();
          pat_.forEach(c, [&](Offset pos, Bytes n, Offset local) {
            f->readAt(pos, {dst + local, static_cast<std::size_t>(n)});
          });
        }
        {
          Scope s(p, comm, "delegate", "delegate.read_close", true);
          f->close();
        }
      }
      Scope s(p, comm, "delegate", "delegate.finish", true);
      const core::TcioDelegateStats& merged = session->finish();
      if (c == 0) leg.delegate = merged;
    });
    verifyPattern(leg, fsys, pat_, image_, crc_, back);
    return leg;
  }

  bool baselineIsMpiio() const override { return false; }

 private:
  int D_;
  Pattern pat_;
  std::vector<std::byte> image_;
  std::uint32_t crc_ = 0;
  core::TcioConfig session_;
  core::TcioConfig plain_;
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name, bool smoke) {
  if (name == "interleaved_rw") {
    return smoke ? std::make_unique<Interleaved>(24, 256, false)
                 : std::make_unique<Interleaved>(192, 4096, false);
  }
  if (name == "resilient_rw") {
    return smoke ? std::make_unique<Interleaved>(24, 256, true)
                 : std::make_unique<Interleaved>(96, 4096, true);
  }
  if (name == "art_checkpoint") {
    return smoke ? std::make_unique<ArtCheckpoint>(16, 64, 2)
                 : std::make_unique<ArtCheckpoint>(128, 1024, 3);
  }
  if (name == "delegate_rw") {
    return smoke ? std::make_unique<DelegateRw>(24, 3)
                 : std::make_unique<DelegateRw>(192, 24);
  }
  return nullptr;
}

}  // namespace perfbench
