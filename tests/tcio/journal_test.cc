// Unit tests for the crash-consistent segment journal: frame round-trip,
// torn-tail handling (short frames, bad magic, CRC mismatch), commit
// truncation, and the costed read path.
#include "tcio/journal.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fs/client.h"
#include "fs/filesystem.h"
#include "mpi/runtime.h"

namespace tcio::core {
namespace {

fs::FsConfig fsCfg() {
  fs::FsConfig c;
  c.num_osts = 2;
  c.stripe_size = 1024;
  return c;
}

std::vector<std::byte> payload(std::size_t n, int salt) {
  std::vector<std::byte> p(n);
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::byte>((salt * 31 + i) % 251);
  }
  return p;
}

void withClient(const std::function<void(fs::FsClient&)>& body) {
  fs::Filesystem fsys(fsCfg());
  mpi::JobConfig jc;
  jc.num_ranks = 1;
  mpi::runJob(jc, [&](mpi::Comm& comm) {
    fs::FsClient fc(fsys, comm.proc());
    body(fc);
  });
}

TEST(JournalTest, AppendReadParseRoundTrip) {
  withClient([](fs::FsClient& fc) {
    const std::string path = journalPath("data.dat", 3);
    EXPECT_EQ(path, "data.dat.wal.3");
    Journal j(fc, path);
    const auto p0 = payload(100, 1);
    const auto p1 = payload(37, 2);
    j.append(5, 64, p0);
    j.append(9, 0, p1);
    EXPECT_EQ(j.recordsAppended(), 2);
    EXPECT_EQ(j.bytesAppended(),
              2 * Journal::kHeaderBytes + 100 + 37);
    const Journal::Parsed parsed = Journal::readAndParse(fc, path);
    ASSERT_EQ(parsed.records.size(), 2u);
    EXPECT_EQ(parsed.torn_records, 0);
    EXPECT_EQ(parsed.bytes_replayable, 137);
    EXPECT_EQ(parsed.records[0].seg, 5);
    EXPECT_EQ(parsed.records[0].disp, 64);
    EXPECT_EQ(parsed.records[0].payload, p0);
    EXPECT_EQ(parsed.records[1].seg, 9);
    EXPECT_EQ(parsed.records[1].disp, 0);
    EXPECT_EQ(parsed.records[1].payload, p1);
  });
}

TEST(JournalTest, TornTailDroppedIntactPrefixSurvives) {
  withClient([](fs::FsClient& fc) {
    const std::string path = journalPath("data.dat", 0);
    Journal j(fc, path);
    const auto good = payload(64, 3);
    j.append(1, 0, good);
    // Crash mid-append: only 10 bytes of the second frame hit the platter.
    j.append(2, 128, payload(64, 4), /*torn_prefix=*/10);
    const Journal::Parsed parsed = Journal::readAndParse(fc, path);
    ASSERT_EQ(parsed.records.size(), 1u);
    EXPECT_EQ(parsed.records[0].payload, good);
    EXPECT_EQ(parsed.torn_records, 1);
    EXPECT_EQ(parsed.bytes_replayable, 64);
  });
}

TEST(JournalTest, TornAtZeroBytesLeavesNoTrace) {
  withClient([](fs::FsClient& fc) {
    const std::string path = journalPath("data.dat", 0);
    Journal j(fc, path);
    j.append(1, 0, payload(16, 5), /*torn_prefix=*/0);
    const Journal::Parsed parsed = Journal::readAndParse(fc, path);
    EXPECT_TRUE(parsed.records.empty());
    // Nothing reached the device, so there is no torn frame to count.
    EXPECT_EQ(parsed.torn_records, 0);
  });
}

TEST(JournalTest, CorruptPayloadDroppedAndScanContinues) {
  const auto p0 = payload(48, 6);
  std::vector<std::byte> raw;
  {
    // Build two valid frames by hand via a real journal, then flip a bit.
    fs::Filesystem fsys(fsCfg());
    mpi::JobConfig jc;
    jc.num_ranks = 1;
    mpi::runJob(jc, [&](mpi::Comm& comm) {
      fs::FsClient fc(fsys, comm.proc());
      Journal j(fc, "x.wal.0");
      j.append(0, 0, p0);
      j.append(1, 0, p0);
      fs::FsFile f = fc.open("x.wal.0", fs::kRead);
      raw.resize(static_cast<std::size_t>(fc.size(f)));
      fc.pread(f, 0, raw.data(), static_cast<Bytes>(raw.size()));
      fc.close(f);
    });
  }
  raw[static_cast<std::size_t>(Journal::kHeaderBytes) + 5] ^= std::byte{0x40};
  const Journal::Parsed parsed = Journal::parse(raw);
  // First frame's body is corrupt but its framing is intact: a silent bit
  // flip, not a torn append. The record is dropped, counted as corrupt, and
  // the scan continues — the second record is still replayable.
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.records[0].seg, 1);
  EXPECT_EQ(parsed.records[0].payload, p0);
  EXPECT_EQ(parsed.corrupt_records, 1);
  EXPECT_EQ(parsed.torn_records, 0);
  EXPECT_EQ(parsed.bytes_replayable, 48);
}

TEST(JournalTest, CorruptThenTornCountsBothAndKeepsIntactPrefix) {
  const auto p0 = payload(40, 9);
  std::vector<std::byte> raw;
  {
    fs::Filesystem fsys(fsCfg());
    mpi::JobConfig jc;
    jc.num_ranks = 1;
    mpi::runJob(jc, [&](mpi::Comm& comm) {
      fs::FsClient fc(fsys, comm.proc());
      Journal j(fc, "y.wal.0");
      j.append(0, 0, p0);                         // intact
      j.append(1, 8, p0);                         // will be bit-flipped
      j.append(2, 16, p0, /*torn_prefix=*/12);    // torn mid-append
      fs::FsFile f = fc.open("y.wal.0", fs::kRead);
      raw.resize(static_cast<std::size_t>(fc.size(f)));
      fc.pread(f, 0, raw.data(), static_cast<Bytes>(raw.size()));
      fc.close(f);
    });
  }
  const auto frame = static_cast<std::size_t>(Journal::kHeaderBytes) + 40;
  raw[frame + static_cast<std::size_t>(Journal::kHeaderBytes) + 3] ^=
      std::byte{0x01};
  const Journal::Parsed parsed = Journal::parse(raw);
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.records[0].seg, 0);
  EXPECT_EQ(parsed.corrupt_records, 1);
  EXPECT_EQ(parsed.torn_records, 1);
}

TEST(JournalTest, HeaderFieldFlipIsCorruptNotTorn) {
  // The frame CRC covers seg and disp too: a flipped bit there leaves the
  // framing (magic, len) intact, so the record is dropped as corrupt — a
  // replay must never apply a payload at the wrong segment or displacement —
  // and the scan goes on to the next frame.
  const auto p0 = payload(24, 10);
  std::vector<std::byte> raw;
  {
    fs::Filesystem fsys(fsCfg());
    mpi::JobConfig jc;
    jc.num_ranks = 1;
    mpi::runJob(jc, [&](mpi::Comm& comm) {
      fs::FsClient fc(fsys, comm.proc());
      Journal j(fc, "z.wal.0");
      j.append(3, 40, p0);
      j.append(4, 80, p0);
      fs::FsFile f = fc.open("z.wal.0", fs::kRead);
      raw.resize(static_cast<std::size_t>(fc.size(f)));
      fc.pread(f, 0, raw.data(), static_cast<Bytes>(raw.size()));
      fc.close(f);
    });
  }
  constexpr std::size_t kSegField = 8;
  constexpr std::size_t kDispField = 16;
  for (const std::size_t field : {kSegField, kDispField}) {
    std::vector<std::byte> flipped = raw;
    flipped[field] ^= std::byte{0x02};
    const Journal::Parsed parsed = Journal::parse(flipped);
    ASSERT_EQ(parsed.records.size(), 1u) << "field at " << field;
    EXPECT_EQ(parsed.records[0].seg, 4);
    EXPECT_EQ(parsed.records[0].disp, 80);
    EXPECT_EQ(parsed.corrupt_records, 1) << "field at " << field;
    EXPECT_EQ(parsed.torn_records, 0) << "field at " << field;
  }
}

TEST(JournalTest, OneRecordCostsExactlyHeaderPlusPayload) {
  withClient([](fs::FsClient& fc) {
    const std::string path = journalPath("size.dat", 0);
    Journal j(fc, path);
    EXPECT_EQ(Journal::kHeaderBytes, 32);  // the 'TCJ1' frame header
    constexpr Bytes kN = 57;
    j.append(2, 8, payload(static_cast<std::size_t>(kN), 11));
    EXPECT_EQ(j.bytesAppended(), Journal::kHeaderBytes + kN);
    fs::FsFile f = fc.open(path, fs::kRead);
    EXPECT_EQ(fc.size(f), Journal::kHeaderBytes + kN);
    fc.close(f);
  });
}

TEST(JournalTest, CommitTruncatesAndLogStaysUsable) {
  withClient([](fs::FsClient& fc) {
    const std::string path = journalPath("data.dat", 1);
    Journal j(fc, path);
    j.append(4, 8, payload(32, 7));
    j.commit();
    EXPECT_EQ(j.bytesAppended(), 0);
    EXPECT_EQ(j.recordsAppended(), 0);
    EXPECT_TRUE(Journal::readAndParse(fc, path).records.empty());
    // The log survives a commit: post-commit appends parse normally.
    const auto p = payload(16, 8);
    j.append(6, 256, p);
    const Journal::Parsed parsed = Journal::readAndParse(fc, path);
    ASSERT_EQ(parsed.records.size(), 1u);
    EXPECT_EQ(parsed.records[0].seg, 6);
    EXPECT_EQ(parsed.records[0].payload, p);
  });
}

TEST(JournalTest, MissingFileParsesEmpty) {
  withClient([](fs::FsClient& fc) {
    const Journal::Parsed parsed =
        Journal::readAndParse(fc, "never-created.wal.9");
    EXPECT_TRUE(parsed.records.empty());
    EXPECT_EQ(parsed.torn_records, 0);
  });
}

TEST(JournalTest, GarbageMagicCountsTorn) {
  std::vector<std::byte> raw(64, std::byte{0xab});
  const Journal::Parsed parsed = Journal::parse(raw);
  EXPECT_TRUE(parsed.records.empty());
  EXPECT_EQ(parsed.torn_records, 1);
}

}  // namespace
}  // namespace tcio::core
