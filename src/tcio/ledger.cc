#include "tcio/ledger.h"

#include <cstring>
#include <iterator>

#include "common/crc32.h"
#include "common/error.h"
#include "sim/engine.h"
#include "tcio/journal.h"

namespace tcio::core {

void chargeChecksum(sim::Proc& proc, Bytes n) {
  proc.advance(static_cast<double>(n) / kChecksumBandwidth);
}

bool CrcRun::tryExtend(Offset at, std::span<const std::byte> bytes) {
  const auto n = static_cast<Offset>(bytes.size());
  if (count == 1 && stride == 0 && at == disp + static_cast<Offset>(len) &&
      static_cast<Offset>(len) + n <= 0xffffffff) {
    len += static_cast<std::uint32_t>(n);
  } else if (n != static_cast<Offset>(len)) {
    return false;
  } else if (count == 1 && at > disp && at - disp <= 0xffffffff) {
    stride = static_cast<std::uint32_t>(at - disp);
    count = 2;
  } else if (count >= 2 &&
             at == disp + static_cast<Offset>(stride) *
                              static_cast<Offset>(count)) {
    ++count;
  } else {
    return false;
  }
  crc = crc32(bytes, crc);
  return true;
}

bool CrcRun::intersects(const CrcRun& o) const {
  // Two-pointer walk over both runs' sorted piece starts.
  std::uint32_t i = 0;
  std::uint32_t j = 0;
  while (i < count && j < o.count) {
    const Offset b1 = disp + static_cast<Offset>(i) * stride;
    const Offset b2 = o.disp + static_cast<Offset>(j) * o.stride;
    if (b1 < b2 + o.len && b2 < b1 + len) return true;
    if (b1 + len <= b2) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

std::uint32_t CrcRun::crcOver(const std::byte* seg_base) const {
  std::uint32_t c = 0;
  for (std::uint32_t k = 0; k < count; ++k) {
    c = crc32({seg_base + disp + static_cast<Offset>(k) * stride, len}, c);
  }
  return c;
}

void SegmentLedger::supersede(const CrcRun& run) {
  for (auto it = runs_.begin(); it != runs_.end();) {
    const CrcRun& old = it->second;
    if (old.disp < run.end() && run.disp < old.end() && old.intersects(run)) {
      it = runs_.erase(it);
    } else {
      ++it;
    }
  }
}

void SegmentLedger::insert(const CrcRun& run) {
  supersede(run);
  runs_[run.disp] = run;
}

void SegmentLedger::append(Offset disp, std::span<const std::byte> bytes,
                           std::uint32_t crc) {
  const CrcRun piece{disp, static_cast<std::uint32_t>(bytes.size()), 0, 1,
                     crc};
  supersede(piece);
  const auto up = runs_.upper_bound(disp);
  if (up != runs_.begin() && std::prev(up)->second.tryExtend(disp, bytes)) {
    return;
  }
  runs_[disp] = piece;
}

SegmentLedger::Tally SegmentLedger::verify(const std::byte* seg_base) const {
  Tally t;
  for (const auto& [disp, run] : runs_) {
    ++t.runs;
    t.bytes += static_cast<Bytes>(run.len) * run.count;
    if (run.crcOver(seg_base) != run.crc) ++t.mismatches;
  }
  return t;
}

bool verifyOrRepair(const SegmentLedger& ledger, std::byte* image,
                    SegmentId g, const std::string& file,
                    const std::function<std::vector<Rank>()>& sources,
                    fs::FsClient& client, sim::Proc& proc,
                    IntegrityCounters counts) {
  const SegmentLedger::Tally t = ledger.verify(image);
  counts.crc_checks += t.runs;
  counts.crc_mismatches += t.mismatches;
  chargeChecksum(proc, t.bytes);
  if (t.mismatches == 0) return false;
  const std::string what = "segment " + std::to_string(g) + " of " + file;
  const std::vector<Rank> ranks = sources();
  if (ranks.empty()) {
    ++counts.unrepairable;
    throw IntegrityError(what + " failed its CRC and no journal exists to "
                                "repair it");
  }
  // Every ledgered digest was taken over bytes some source journaled first,
  // so replaying the segment's records in source order reconstructs them.
  for (const Rank r : ranks) {
    const Journal::Parsed log =
        Journal::readAndParse(client, journalPath(file, r));
    for (const Journal::Record& rec : log.records) {
      if (rec.seg != g) continue;
      std::memcpy(image + rec.disp, rec.payload.data(), rec.payload.size());
    }
  }
  // The replay must reproduce every ledgered digest exactly; otherwise the
  // corruption predates the clean copies and nothing can prove the bytes.
  const SegmentLedger::Tally again = ledger.verify(image);
  chargeChecksum(proc, again.bytes);
  if (again.mismatches != 0) {
    ++counts.unrepairable;
    throw IntegrityError(what + " still fails its CRC after journal replay");
  }
  ++counts.repaired;
  return true;
}

}  // namespace tcio::core
