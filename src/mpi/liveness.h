// Liveness-tracking collective agreement (fail-stop failure detection).
//
// `agreeOnError` (agreement.h) assumes every rank keeps calling collectives;
// a fail-stop crash strands the survivors in the allreduce. This module
// generalizes the agreement point into an epoch'd two-round protocol with a
// virtual-time timeout, modeled on the eventual-consensus shape of
// ULFM's MPI_Comm_agree:
//
//   Round 1 (vote):    every rank sends its local error class to every peer
//                      and collects votes until `window` elapses on its own
//                      virtual clock. A peer whose vote never arrives is
//                      *suspected*.
//   Round 2 (verdict): every rank broadcasts its suspicion bitmap plus its
//                      local error; the union of all received suspicion sets
//                      is the agreed dead set. A live rank that finds itself
//                      in the union was too slow for the collective window —
//                      it self-fences (reports itself dead and withdraws) so
//                      the survivors' view stays consistent.
//
// Messages ride a reserved internal tag block (disjoint from collective
// tags), so stale traffic from a rank that died mid-collective can never
// alias a liveness message. Receives are Comm::recvUntil timed waits, so a
// round ends when its last message lands (or at the window) rather than on
// a poll tick. Determinism: every send, receive and timeout happens in
// global (virtual time, rank) order, so the same seed and crash schedule
// yield the same verdict on every run.
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
  /// True when *this* rank was declared dead by its peers (it missed the
  /// collective window but is actually alive). The caller must self-fence:
  /// stop participating in collectives on this communicator.
  bool self_dead = false;
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
/// with the same `epoch`; crashed ranks are exactly the ones that don't.
/// `window` is the virtual-time budget each round waits for a peer before
/// suspecting it (must exceed the worst-case skew between ranks at the
/// agreement point).
/// Suspicion sets are word-vector bitmaps, so any communicator size works.
/// A verdict message is a 16-byte header (epoch, code, bitmap words, text
/// length), ceil(P/64) bitmap words, then the error text — present only
/// when the code is not kNone, and capped at kLivenessMaxWhat characters
/// (every rank, the sender included, agrees on the capped text).
LivenessOutcome agreeWithLiveness(Comm& comm, const CapturedError& local,
                                  int epoch, SimTime window);

}  // namespace tcio::mpi
