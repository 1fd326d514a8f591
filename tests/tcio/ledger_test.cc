// Unit tests for the run-coalesced CRC ledger shared by core::File and
// delegate::Server: piece-precise supersede, interlocking strided runs,
// cross-append run extension, and the verification tally.
#include "tcio/ledger.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/crc32.h"

namespace tcio::core {
namespace {

constexpr Bytes kSeg = 512;
constexpr std::uint32_t kPiece = 16;

std::vector<std::byte> segmentImage() {
  std::vector<std::byte> v(static_cast<std::size_t>(kSeg));
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<std::byte>((i * 7 + 3) % 251);
  }
  return v;
}

std::span<const std::byte> piece(const std::vector<std::byte>& seg,
                                 Offset disp, Bytes len = kPiece) {
  return {seg.data() + disp, static_cast<std::size_t>(len)};
}

/// A run over `seg` with its CRC streamed across the pieces.
CrcRun runOver(const std::vector<std::byte>& seg, Offset disp,
               std::uint32_t len, std::uint32_t stride, std::uint32_t count) {
  CrcRun r{disp, len, stride, count, 0};
  r.crc = r.crcOver(seg.data());
  return r;
}

TEST(LedgerTest, SupersedesOnPieceIntersectionOnly) {
  const auto seg = segmentImage();
  SegmentLedger ledger;
  // Pieces at 0, 64, 128, 192.
  ledger.insert(runOver(seg, 0, kPiece, 64, 4));
  // Inside the strided run's envelope but between its pieces: coexists.
  ledger.insert(runOver(seg, 16, kPiece, 0, 1));
  EXPECT_EQ(ledger.verify(seg.data()).runs, 2);
  EXPECT_EQ(ledger.front().count, 4u);
  // Touches the strided run's second piece by one byte: the whole run goes.
  ledger.insert(runOver(seg, 64 + kPiece - 1, 2, 0, 1));
  const SegmentLedger::Tally t = ledger.verify(seg.data());
  EXPECT_EQ(t.runs, 2);
  EXPECT_EQ(t.bytes, kPiece + 2);
  EXPECT_EQ(ledger.front().disp, 16);
}

TEST(LedgerTest, AdjacentRunsAreNotSuperseded) {
  const auto seg = segmentImage();
  SegmentLedger ledger;
  ledger.insert(runOver(seg, 0, 32, 0, 1));
  ledger.insert(runOver(seg, 32, 32, 0, 1));  // starts where the first ends
  EXPECT_EQ(ledger.verify(seg.data()).runs, 2);
}

TEST(LedgerTest, InterlockingStridedRunsCoexist) {
  const auto seg = segmentImage();
  SegmentLedger ledger;
  // Four writers, each owning every fourth 16-byte piece of the segment.
  for (Offset w = 0; w < 4; ++w) {
    ledger.insert(runOver(seg, w * kPiece, kPiece, 4 * kPiece, 8));
  }
  const SegmentLedger::Tally t = ledger.verify(seg.data());
  EXPECT_EQ(t.runs, 4);
  EXPECT_EQ(t.bytes, kSeg);
  EXPECT_EQ(t.mismatches, 0);
}

TEST(LedgerTest, AppendExtendsContiguousRuns) {
  const auto seg = segmentImage();
  SegmentLedger ledger;
  for (Offset d = 0; d < 4 * kPiece; d += kPiece) {
    ledger.append(d, piece(seg, d), crc32(piece(seg, d)));
  }
  const CrcRun& r = ledger.front();
  EXPECT_EQ(r.disp, 0);
  EXPECT_EQ(r.len, 4 * kPiece);
  EXPECT_EQ(r.count, 1u);
  EXPECT_EQ(r.crc, crc32(piece(seg, 0, 4 * kPiece)));
  const SegmentLedger::Tally t = ledger.verify(seg.data());
  EXPECT_EQ(t.runs, 1);
  EXPECT_EQ(t.bytes, 4 * kPiece);
  EXPECT_EQ(t.mismatches, 0);
}

TEST(LedgerTest, AppendExtendsStridedRuns) {
  const auto seg = segmentImage();
  SegmentLedger ledger;
  for (Offset d = 0; d < 3 * 64; d += 64) {
    ledger.append(d, piece(seg, d), crc32(piece(seg, d)));
  }
  const CrcRun& r = ledger.front();
  EXPECT_EQ(r.len, kPiece);
  EXPECT_EQ(r.stride, 64u);
  EXPECT_EQ(r.count, 3u);
  EXPECT_EQ(r.crc, runOver(seg, 0, kPiece, 64, 3).crc);
  EXPECT_EQ(ledger.verify(seg.data()).runs, 1);
  // Off the stride, or a different length: a new run, the old one intact.
  ledger.append(200, piece(seg, 200), crc32(piece(seg, 200)));
  ledger.append(256, piece(seg, 256, 8), crc32(piece(seg, 256, 8)));
  EXPECT_EQ(ledger.front().count, 3u);
  EXPECT_EQ(ledger.verify(seg.data()).runs, 3);
}

TEST(LedgerTest, InterleavedAppendKeepsTheOtherWritersRun) {
  // One writer's strided run, then a second writer's piece between its
  // pieces: both stay covered, so a flip in either is still detected.
  auto seg = segmentImage();
  SegmentLedger ledger;
  for (Offset d = 0; d < kSeg; d += 4 * kPiece) {
    ledger.append(d, piece(seg, d), crc32(piece(seg, d)));
  }
  ledger.append(kPiece, piece(seg, kPiece), crc32(piece(seg, kPiece)));
  EXPECT_EQ(ledger.verify(seg.data()).runs, 2);
  seg[0] ^= std::byte{0x20};
  EXPECT_EQ(ledger.verify(seg.data()).mismatches, 1);
}

TEST(LedgerTest, VerifyTalliesBytesRunsAndMismatches) {
  auto seg = segmentImage();
  SegmentLedger ledger;
  ledger.insert(runOver(seg, 0, kPiece, 64, 4));    // 64 bytes
  ledger.insert(runOver(seg, 300, 100, 0, 1));      // 100 bytes
  ledger.insert(runOver(seg, 16, 8, 32, 2));        // 16 bytes
  SegmentLedger::Tally t = ledger.verify(seg.data());
  // What File::verifySlot charges: one crc_check per run and Σ len·count
  // digested bytes.
  EXPECT_EQ(t.runs, 3);
  EXPECT_EQ(t.bytes, 64 + 100 + 16);
  EXPECT_EQ(t.mismatches, 0);
  seg[128] ^= std::byte{1};  // third piece of the strided run
  seg[350] ^= std::byte{1};
  seg[17] ^= std::byte{1};
  t = ledger.verify(seg.data());
  EXPECT_EQ(t.runs, 3);
  EXPECT_EQ(t.mismatches, 3);
  seg[100] ^= std::byte{1};  // between pieces: covered by no run
  EXPECT_EQ(ledger.verify(seg.data()).mismatches, 3);
}

TEST(LedgerTest, TryExtendRejectsMisfitsUnchanged) {
  const auto seg = segmentImage();
  CrcRun r = runOver(seg, 64, kPiece, 32, 2);
  const CrcRun before = r;
  EXPECT_FALSE(r.tryExtend(64 + 3 * 32, piece(seg, 64 + 3 * 32)));  // gap
  EXPECT_FALSE(r.tryExtend(64 + 2 * 32, piece(seg, 64 + 2 * 32, 8)));
  EXPECT_FALSE(r.tryExtend(64 + kPiece, piece(seg, 64 + kPiece)));
  EXPECT_EQ(r.crc, before.crc);
  EXPECT_EQ(r.count, before.count);
  CrcRun single = runOver(seg, 64, kPiece, 0, 1);
  EXPECT_FALSE(single.tryExtend(0, piece(seg, 0)));  // behind the run
  EXPECT_TRUE(single.tryExtend(64 + kPiece, piece(seg, 64 + kPiece)));
  EXPECT_EQ(single.len, 2 * kPiece);
}

}  // namespace
}  // namespace tcio::core
