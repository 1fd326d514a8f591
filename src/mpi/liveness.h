// Liveness-tracking collective agreement (fail-stop failure detection).
//
// `agreeOnError` (agreement.h) assumes every rank keeps calling collectives;
// a fail-stop crash strands the survivors in the allreduce. This module
// generalizes the agreement point into an epoch'd two-round protocol,
// modeled on the eventual-consensus shape of ULFM's MPI_Comm_agree.
// Detection is separate from agreement: every receive is Comm::recvOrDead,
// which waits for the peer's message for as long as the peer is alive and
// reports it dead only after it really crashed (Comm::failStop) — there is
// no window, so a late but live rank is never suspected:
//
//   Round 1 (vote):    every rank sends its local error class to every peer
//                      and receives every peer's vote. A peer that crashed
//                      before voting is *suspected*.
//   Round 2 (verdict): every rank broadcasts its suspicion bitmap plus its
//                      local error; the union of all received suspicion sets
//                      (plus peers that crashed before sending a verdict) is
//                      the agreed dead set. It holds crashed ranks only.
//
// Messages ride a reserved internal tag block (disjoint from collective
// tags), so stale traffic from a rank that died mid-collective can never
// alias a liveness message. Determinism: every send, receive and crash
// happens in global (virtual time, rank) order, so the same seed and crash
// schedule yield the same verdict on every run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "mpi/agreement.h"
#include "mpi/comm.h"

namespace tcio::mpi {

/// Result of one liveness agreement epoch.
struct LivenessOutcome {
  /// Ranks of the agreement communicator declared dead this epoch
  /// (ascending). Empty when everyone showed up.
  std::vector<Rank> dead;
  /// Max-reduced CapturedError::Code over every collected verdict.
  std::int32_t code = CapturedError::kNone;
  /// Error message of the lowest rank holding the winning code.
  std::string what;

  /// Survivors of `comm_size` ranks after removing `dead` (ascending).
  std::vector<Rank> survivors(int comm_size) const;
};

/// Longest error text a verdict carries.
inline constexpr std::size_t kLivenessMaxWhat = 159;

/// One agreement epoch over `comm`. All *live* ranks of `comm` must call it
/// with the same `epoch`; crashed ranks — those that called Comm::failStop —
/// are exactly the ones that don't.
/// Suspicion sets are word-vector bitmaps, so any communicator size works.
/// A verdict message is a 16-byte header (epoch, code, bitmap words, text
/// length), ceil(P/64) bitmap words, then the error text — present only
/// when the code is not kNone, and capped at kLivenessMaxWhat characters
/// (every rank, the sender included, agrees on the capped text).
LivenessOutcome agreeWithLiveness(Comm& comm, const CapturedError& local,
                                  int epoch);

}  // namespace tcio::mpi
