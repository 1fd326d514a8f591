#include "mpi/liveness.h"

#include <cstring>

#include "common/error.h"
#include "mpi/world.h"

namespace tcio::mpi {

namespace {

/// Liveness tags live above the collective tag block (which tops out at
/// kInternalTagBase + 2^22 - 1): base + 2^23 + epoch*4 + round.
constexpr int kLivenessTagBase = kInternalTagBase + (1 << 23);

int livenessTag(int epoch, int round) {
  return kLivenessTagBase + (epoch % (1 << 20)) * 4 + round;
}

struct VoteMsg {
  std::int32_t epoch = 0;
  std::int32_t code = 0;
};

/// Fixed-size header of a verdict message. On the wire it is followed by
/// `words` 64-bit suspicion bitmap words (word r/64, bit r%64 set = sender
/// suspects rank r) and then `what_len` bytes of error text. Every rank
/// derives the same word count from the communicator size; the text is
/// empty unless `code` is an error, so a clean verdict is header + bitmap.
struct VerdictHeader {
  std::int32_t epoch = 0;
  std::int32_t code = 0;
  std::int32_t words = 0;
  std::int32_t what_len = 0;
};

void setBit(std::vector<std::uint64_t>& bits, Rank r) {
  bits[static_cast<std::size_t>(r) >> 6] |= std::uint64_t{1} << (r & 63);
}

bool testBit(const std::vector<std::uint64_t>& bits, Rank r) {
  return ((bits[static_cast<std::size_t>(r) >> 6] >> (r & 63)) & 1) != 0;
}

}  // namespace

std::vector<Rank> LivenessOutcome::survivors(int comm_size) const {
  std::vector<Rank> out;
  out.reserve(static_cast<std::size_t>(comm_size));
  std::size_t di = 0;
  for (Rank r = 0; r < comm_size; ++r) {
    if (di < dead.size() && dead[di] == r) {
      ++di;
      continue;
    }
    out.push_back(r);
  }
  return out;
}

LivenessOutcome agreeWithLiveness(Comm& comm, const CapturedError& local,
                                  int epoch) {
  const int P = comm.size();
  const Rank me = comm.rank();
  /// Suspicion bitmap width in 64-bit words (any communicator size).
  const std::size_t kWords = static_cast<std::size_t>(P + 63) / 64;
  const std::size_t kBitmapBytes = kWords * sizeof(std::uint64_t);

  // -- Round 1: vote ----------------------------------------------------------
  const int tag_vote = livenessTag(epoch, 0);
  VoteMsg vote{static_cast<std::int32_t>(epoch), local.code};
  {
    std::vector<Request> sends;
    sends.reserve(static_cast<std::size_t>(P));
    for (Rank r = 0; r < P; ++r) {
      if (r == me) continue;
      sends.push_back(comm.isend(&vote, sizeof(vote), r, tag_vote));
    }
    comm.waitAll(sends);
  }
  std::vector<std::uint64_t> suspects(kWords, 0);
  for (Rank r = 0; r < P; ++r) {
    if (r == me) continue;
    VoteMsg in;
    if (comm.recvOrDead(&in, sizeof(in), r, tag_vote)) {
      TCIO_CHECK_MSG(in.epoch == epoch, "liveness vote from a stale epoch");
    } else {
      setBit(suspects, r);
    }
  }

  // -- Round 2: verdict -------------------------------------------------------
  const int tag_verdict = livenessTag(epoch, 1);
  std::string best_what;
  if (local.code != CapturedError::kNone) {
    best_what = local.what.substr(0, kLivenessMaxWhat);
  }
  std::vector<std::byte> verdict;
  {
    VerdictHeader hdr;
    hdr.epoch = static_cast<std::int32_t>(epoch);
    hdr.code = local.code;
    hdr.words = static_cast<std::int32_t>(kWords);
    hdr.what_len = static_cast<std::int32_t>(best_what.size());
    verdict.resize(sizeof(hdr) + kBitmapBytes + best_what.size());
    std::memcpy(verdict.data(), &hdr, sizeof(hdr));
    std::memcpy(verdict.data() + sizeof(hdr), suspects.data(), kBitmapBytes);
    std::memcpy(verdict.data() + sizeof(hdr) + kBitmapBytes,
                best_what.data(), best_what.size());
  }
  {
    std::vector<Request> sends;
    sends.reserve(static_cast<std::size_t>(P));
    for (Rank r = 0; r < P; ++r) {
      if (r == me) continue;
      sends.push_back(comm.isend(verdict.data(),
                                 static_cast<Bytes>(verdict.size()), r,
                                 tag_verdict));
    }
    comm.waitAll(sends);
  }
  std::int32_t best_code = local.code;
  Rank best_owner = me;
  std::vector<std::uint64_t> dead_bits = suspects;
  std::vector<std::byte> in(sizeof(VerdictHeader) + kBitmapBytes +
                            kLivenessMaxWhat);
  std::vector<std::uint64_t> in_bits(kWords);
  for (Rank r = 0; r < P; ++r) {
    if (r == me) continue;
    RecvStatus st;
    if (comm.recvOrDead(in.data(), static_cast<Bytes>(in.size()), r,
                        tag_verdict, &st)) {
      VerdictHeader hdr;
      std::memcpy(&hdr, in.data(), sizeof(hdr));
      TCIO_CHECK_MSG(hdr.epoch == epoch, "liveness verdict from a stale epoch");
      TCIO_CHECK_MSG(hdr.words == static_cast<std::int32_t>(kWords),
                     "liveness verdict bitmap width mismatch");
      TCIO_CHECK_MSG(hdr.what_len >= 0 &&
                         st.count == static_cast<Bytes>(sizeof(hdr) +
                                                        kBitmapBytes) +
                                         hdr.what_len,
                     "liveness verdict length mismatch");
      std::memcpy(in_bits.data(), in.data() + sizeof(hdr), kBitmapBytes);
      for (std::size_t w = 0; w < kWords; ++w) dead_bits[w] |= in_bits[w];
      if (hdr.code > best_code || (hdr.code == best_code && r < best_owner)) {
        best_code = hdr.code;
        best_owner = r;
        best_what.assign(
            reinterpret_cast<const char*>(in.data() + sizeof(hdr) +
                                          kBitmapBytes),
            static_cast<std::size_t>(hdr.what_len));
      }
    } else {
      // Died between the rounds: no verdict.
      setBit(dead_bits, r);
    }
  }

  LivenessOutcome out;
  out.code = best_code;
  out.what = std::move(best_what);
  for (Rank r = 0; r < P; ++r) {
    if (testBit(dead_bits, r)) out.dead.push_back(r);
  }
  return out;
}

}  // namespace tcio::mpi
