#include "tcio/ledger.h"

#include <iterator>

#include "common/crc32.h"

namespace tcio::core {

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

}  // namespace tcio::core
