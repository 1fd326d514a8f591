#include "mpi/agreement.h"

#include "common/error.h"

namespace tcio::mpi {

void CapturedError::capture(const std::exception& e) {
  what = e.what();
  if (dynamic_cast<const IntegrityError*>(&e) != nullptr) {
    code = kIntegrity;
  } else if (dynamic_cast<const RankCrashedError*>(&e) != nullptr) {
    code = kRankCrashed;
  } else if (dynamic_cast<const OstFailedError*>(&e) != nullptr) {
    code = kOstFailed;
  } else if (dynamic_cast<const NoSpaceError*>(&e) != nullptr) {
    code = kNoSpace;
  } else if (dynamic_cast<const FileNotFound*>(&e) != nullptr) {
    code = kFileNotFound;
  } else if (dynamic_cast<const RetryExhaustedError*>(&e) != nullptr) {
    code = kRetryExhausted;
  } else if (dynamic_cast<const TransientFsError*>(&e) != nullptr) {
    code = kTransientFs;
  } else if (dynamic_cast<const FsError*>(&e) != nullptr) {
    code = kFs;
  } else if (dynamic_cast<const OutOfMemoryBudget*>(&e) != nullptr) {
    code = kOutOfMemory;
  } else {
    code = kGeneric;
  }
}

void agreeOnError(Comm& comm, const CapturedError& local) {
  const CapturedError agreed = agreeOnOutcome(comm, local);
  if (agreed.set()) throwTyped(agreed.code, agreed.what);
}

CapturedError agreeOnOutcome(Comm& comm, const CapturedError& local) {
  // Label the agreement point itself, so a rank that skips it (or reaches a
  // different collective) is diagnosed against "agreeOnError" rather than
  // one of the allreduces it is built from.
  comm.checkCollective(check::CollOp::kAgree, -1, check::kUncheckedBytes,
                       "agreeOnError");
  std::int32_t code = local.code;
  comm.allreduce(&code, 1, ReduceOp::kMax);
  if (code == CapturedError::kNone) return {};  // fast path: nobody failed

  // The lowest rank that holds the winning class owns the message.
  std::int32_t owner =
      local.code == code ? static_cast<std::int32_t>(comm.rank())
                         : static_cast<std::int32_t>(comm.size());
  comm.allreduce(&owner, 1, ReduceOp::kMin);

  std::int64_t len =
      comm.rank() == owner ? static_cast<std::int64_t>(local.what.size()) : 0;
  comm.bcast(&len, static_cast<Bytes>(sizeof(len)), owner);
  std::string what(static_cast<std::size_t>(len), '\0');
  if (comm.rank() == owner) what = local.what;
  if (len > 0) comm.bcast(what.data(), len, owner);
  return {code, what};
}

void throwTyped(std::int32_t code, const std::string& what) {
  switch (code) {
    case CapturedError::kIntegrity:
      throw IntegrityError(what);
    case CapturedError::kRankCrashed:
      throw RankCrashedError(what, /*crashed_rank=*/-1);
    case CapturedError::kOstFailed:
      throw OstFailedError(what, /*failed_ost=*/-1);
    case CapturedError::kNoSpace:
      throw NoSpaceError(what);
    case CapturedError::kFileNotFound:
      throw FileNotFound(FileNotFound::Formatted{}, what);
    case CapturedError::kRetryExhausted:
      throw RetryExhaustedError(what, /*attempts_made=*/0);
    case CapturedError::kTransientFs:
      throw TransientFsError(what);
    case CapturedError::kFs:
      throw FsError(what);
    case CapturedError::kOutOfMemory:
      throw OutOfMemoryBudget(what, /*requested=*/0, /*available=*/0);
    default:
      throw Error(what);
  }
}

}  // namespace tcio::mpi
