// Collective error agreement.
//
// A fault that strikes one rank inside a collective I/O phase must not leave
// the job half-alive: if rank 3 aborts with an OST error while everyone else
// proceeds into the next barrier, the survivors deadlock. The protocol here
// turns a *local* failure into a *collective* outcome — after an aligned
// agreement point, either every rank continues or every rank throws the same
// typed error.
//
// Usage pattern (see core::File for the call sites):
//
//   CapturedError err;
//   try { /* LOCAL work only — no collectives inside! */ }
//   catch (const std::exception& e) { err.capture(e); }
//   agreeOnError(comm, err);   // aligned point: all ranks call this
//
// The try block must not contain collective calls: a rank that skips a
// collective desynchronizes the per-rank collective tag counters and the
// survivors hang. Capture around local/one-sided work, agree at the next
// point where every rank is guaranteed to arrive.
#pragma once

#include <cstdint>
#include <string>

#include "mpi/comm.h"

namespace tcio::mpi {

/// A locally caught failure, classified for cross-rank reduction. Higher
/// codes win the max-reduce, so permanent failures dominate transient ones
/// when different ranks fail differently in the same phase.
struct CapturedError {
  enum Code : std::int32_t {
    kNone = 0,
    kGeneric = 1,         // tcio::Error or any std::exception
    kFs = 2,              // generic FsError
    kTransientFs = 3,     // retryable EIO
    kRetryExhausted = 4,  // transient fault survived every retry attempt
    kNoSpace = 5,         // ENOSPC
    kFileNotFound = 6,
    kOstFailed = 7,     // permanent OST death
    kRankCrashed = 8,   // fail-stop peer crash (liveness protocol verdict)
    kOutOfMemory = 9,   // budget exceeded — a config error
    kIntegrity = 10,    // unrepairable silent corruption — always wins
  };

  std::int32_t code = kNone;
  std::string what;

  bool set() const { return code != kNone; }
  /// Classifies `e` (most-derived error type first) and stores its message.
  void capture(const std::exception& e);
};

/// The agreement point: max-reduces the local error class over `comm`. When
/// no rank failed, returns immediately (one allreduce of a single int32).
/// Otherwise the lowest rank holding the winning class broadcasts its
/// message and *every* rank throws the same typed error — including ranks
/// that failed locally with a lesser error, so the collective state machine
/// stays in lockstep. Must be called by all ranks of `comm` at an aligned
/// program point.
void agreeOnError(Comm& comm, const CapturedError& local);

/// agreeOnError without the throw: the same collective calls, returning the
/// agreed outcome (code kNone when no rank failed) for callers that release
/// resources before the error surfaces.
CapturedError agreeOnOutcome(Comm& comm, const CapturedError& local);

/// Rethrows the typed error for an agreed code. Exposed for layers that
/// piggyback the code on an existing collective (the node-aggregation round
/// loop) instead of paying agreeOnError's dedicated reduction.
[[noreturn]] void throwTyped(std::int32_t code, const std::string& what);

}  // namespace tcio::mpi
