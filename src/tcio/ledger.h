// Run-coalesced CRC ledger (DESIGN.md §11).
//
// Integrity digests travel and rest as *runs*: `count` equal-length pieces
// spaced `stride` bytes apart under ONE streamed CRC32 (count == 1 for a
// plain extent). Fine-grained interleaved patterns would otherwise pay one
// digest record — and one verification — per 4-byte element.
//
// Both checksum owners keep their ledger here: core::File (one ledger per
// owned level-2 segment) and delegate::Server (one per shard segment), so
// the coalescing rule, the supersede rule, the verification pass and the
// journal repair exist once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace tcio::fs {
class FsClient;
}
namespace tcio::sim {
class Proc;
}

namespace tcio::core {

/// Charges `n` digested bytes to `proc`'s clock at kChecksumBandwidth.
void chargeChecksum(sim::Proc& proc, Bytes n);

/// One digest run. Piece k covers [disp + k*stride, disp + k*stride + len).
struct CrcRun {
  Offset disp = 0;           // first piece's in-segment displacement
  std::uint32_t len = 0;     // bytes per piece
  std::uint32_t stride = 0;  // spacing between piece starts (0: count == 1)
  std::uint32_t count = 1;   // pieces in the run
  std::uint32_t crc = 0;     // CRC32 over the pieces' bytes, concatenated

  /// One past the last piece's last byte.
  Offset end() const {
    return disp + static_cast<Offset>(count - 1) * stride + len;
  }
  /// Folds the piece `bytes` at displacement `at` into the run when the
  /// geometry fits exactly: a contiguous neighbour of a single piece grows
  /// it, an equal-length piece at the run's next constant-stride position
  /// joins it. The CRC streams across the new bytes. Returns false, leaving
  /// the run untouched, otherwise.
  bool tryExtend(Offset at, std::span<const std::byte> bytes);
  /// True when any piece of this run intersects any piece of `o`.
  bool intersects(const CrcRun& o) const;
  /// Streams the CRC of the run's pieces out of a segment image.
  std::uint32_t crcOver(const std::byte* seg_base) const;
};

/// The digest ledger of one segment: runs keyed by first-piece displacement.
class SegmentLedger {
 public:
  /// What one verification pass over the ledger found.
  struct Tally {
    Bytes bytes = 0;              // bytes digested
    std::int64_t runs = 0;        // runs checked
    std::int64_t mismatches = 0;  // runs whose CRC no longer matches
  };

  /// Records `run`. An older run is superseded whole when any of its pieces
  /// intersects a piece of `run` — the last-writer-wins order the bytes
  /// resolved to, and whole because a run's CRC is not splittable.
  /// Interlocking strided runs from different writers coexist: their
  /// envelopes overlap but their pieces never touch.
  void insert(const CrcRun& run);
  /// Records the single piece `bytes` at `disp` with digest `crc`:
  /// supersedes as insert() does, then extends the predecessor run when the
  /// geometry fits (CrcRun::tryExtend) instead of opening a new run.
  void append(Offset disp, std::span<const std::byte> bytes,
              std::uint32_t crc);
  /// Re-streams every run's CRC out of the segment image at `seg_base`.
  Tally verify(const std::byte* seg_base) const;

  bool empty() const { return runs_.empty(); }
  /// The lowest-displacement run (ledger must not be empty).
  const CrcRun& front() const { return runs_.begin()->second; }

 private:
  void supersede(const CrcRun& run);

  std::map<Offset, CrcRun> runs_;
};

/// The integrity counters one segment check advances; both owners' stats
/// carry them under these names.
struct IntegrityCounters {
  std::int64_t& crc_checks;
  std::int64_t& crc_mismatches;
  std::int64_t& repaired;
  std::int64_t& unrepairable;
};

/// The owner-side check of one level-2 segment image: verifies `ledger`
/// over `image`, counting and charging the pass. On a mismatch it replays
/// segment `g`'s records from the journals of `file` written by the ranks
/// `sources()` lists, in that order (costed reads through `client`; later
/// records win), and verifies again. Returns true when the replay repaired
/// the image. Throws IntegrityError, counted unrepairable, when there is no
/// source or the replayed bytes still mismatch.
bool verifyOrRepair(const SegmentLedger& ledger, std::byte* image,
                    SegmentId g, const std::string& file,
                    const std::function<std::vector<Rank>()>& sources,
                    fs::FsClient& client, sim::Proc& proc,
                    IntegrityCounters counts);

}  // namespace tcio::core
