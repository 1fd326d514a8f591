// Shared state of the simulated MPI job: mailboxes, RMA windows, per-rank
// memory budgets, and the network the job runs on.
//
// One `World` exists per simulated job. All mutation happens inside
// Proc::atomic() sections (enforced by the engine's active-rank discipline).
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "check/checker.h"
#include "common/memory_tracker.h"
#include "common/types.h"
#include "net/network.h"
#include "sim/engine.h"

namespace tcio::mpi {

/// Wildcards for point-to-point matching (MPI_ANY_SOURCE / MPI_ANY_TAG).
constexpr Rank kAnySource = -1;
constexpr int kAnyTag = -1;

/// Tags >= kInternalTagBase are reserved for collectives and window setup.
constexpr int kInternalTagBase = 1 << 28;

/// Failure-detection delay δ of the modeled fail-stop detector: a receive
/// from a crashed rank (Comm::recvOrDead) learns of the crash this long
/// after it happened — one heartbeat timeout of an eventually perfect
/// detector whose heartbeats run on a progress thread (DESIGN.md §2).
constexpr SimTime kFailureDetectionDelay = 10.0e-3;

/// Cost knobs of the MPI layer itself (on top of the raw network).
struct MpiConfig {
  /// Bandwidth of local pack/unpack and buffer copies, bytes/s.
  double memcpy_bandwidth = 6.0e9;
  /// CPU time to process a lock/unlock request at the target.
  SimTime lock_processing = 0.5e-6;
};

namespace detail {

/// A message that arrived before a matching receive was posted.
struct Envelope {
  Rank src = -1;  // rank within the communicator's group
  int tag = 0;
  int context = 0;  // communicator context id — isolates communicators
  std::vector<std::byte> data;
  SimTime delivered = 0;
};

/// A receive posted before its message arrived.
struct PendingRecv {
  Rank want_src = kAnySource;
  int want_tag = kAnyTag;
  int context = 0;
  std::byte* buf = nullptr;
  Bytes capacity = 0;
  /// World rank whose fail-stop crash completes this receive with
  /// `source_dead` set (Comm::recvOrDead); -1 for a plain receive.
  Rank watch = -1;
  // Filled by the matching send (or by the watched rank's crash):
  Rank src = -1;
  int tag = 0;
  Bytes received = 0;
  bool source_dead = false;
  sim::Event ev;
};

struct Mailbox {
  std::deque<Envelope> unexpected;
  std::deque<std::shared_ptr<PendingRecv>> posted;
};

/// One exclusive/shared lock queue per (window, target rank).
struct LockRequest {
  Rank origin = -1;
  bool exclusive = false;
  SimTime arrived = 0;
  sim::Event ev;
};

struct TargetLock {
  int shared_holders = 0;
  bool exclusive_held = false;
  std::deque<std::shared_ptr<LockRequest>> queue;
  /// World ranks currently granted this lock (maintained for the checker's
  /// wait-for-graph edges; cheap enough to track unconditionally).
  std::vector<Rank> holders;
};

/// Shared state of one RMA window across all ranks.
struct WinState {
  std::vector<std::vector<std::byte>> mem;  // per rank
  std::vector<TargetLock> locks;            // per target rank
  int registered = 0;                        // ranks that completed create
};

}  // namespace detail

/// Shared state container. Construct once, then hand to per-rank `Comm`s.
class World {
 public:
  World(sim::Engine& engine, net::Network& network, MpiConfig cfg = {})
      : engine_(engine),
        network_(network),
        cfg_(cfg),
        mailboxes_(static_cast<std::size_t>(engine.numRanks())),
        memory_(static_cast<std::size_t>(engine.numRanks())),
        died_at_(static_cast<std::size_t>(engine.numRanks()), kAlive) {
    if (check::Checker::enabled()) {
      checker_ = std::make_unique<check::Checker>(engine.numRanks());
    }
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  sim::Engine& engine() { return engine_; }
  net::Network& network() { return network_; }
  const MpiConfig& config() const { return cfg_; }
  int numRanks() const { return engine_.numRanks(); }

  detail::Mailbox& mailbox(Rank dst) {
    return mailboxes_[static_cast<std::size_t>(dst)];
  }

  /// Per-rank simulated memory budget (unlimited unless a bench sets one).
  MemoryTracker& memory(Rank r) { return memory_[static_cast<std::size_t>(r)]; }

  /// Window registry: windows are created collectively in program order
  /// within a communicator, so (context, seq) identifies one window across
  /// its group. `group_size` ranks contribute memory.
  detail::WinState& windowAt(int context, std::size_t seq, int group_size) {
    auto& slot = windows_[{context, seq}];
    if (slot == nullptr) {
      slot = std::make_unique<detail::WinState>();
      slot->mem.resize(static_cast<std::size_t>(group_size));
      slot->locks.resize(static_cast<std::size_t>(group_size));
    }
    return *slot;
  }

  /// Allocates `n` fresh communicator context ids (called by one rank of a
  /// splitting communicator inside an atomic section; the value is then
  /// broadcast to the group).
  int allocateContexts(int n) {
    const int base = next_context_;
    next_context_ += n;
    return base;
  }

  /// Fail-stop record (see Comm::failStop): the virtual time world rank `r`
  /// crashed, or kAlive.
  static constexpr SimTime kAlive = -1;
  SimTime diedAt(Rank r) const { return died_at_[static_cast<std::size_t>(r)]; }
  void recordDeath(Rank r, SimTime t) {
    died_at_[static_cast<std::size_t>(r)] = t;
  }

  /// Runtime correctness checker; null unless TCIO_CHECK is enabled. Every
  /// hook call is guarded by this null check, so the disabled cost is one
  /// load + branch per call site.
  check::Checker* checker() { return checker_.get(); }

 private:
  sim::Engine& engine_;
  net::Network& network_;
  MpiConfig cfg_;
  std::vector<detail::Mailbox> mailboxes_;
  std::vector<MemoryTracker> memory_;
  std::map<std::pair<int, std::size_t>, std::unique_ptr<detail::WinState>>
      windows_;
  int next_context_ = 1;  // 0 is COMM_WORLD
  std::vector<SimTime> died_at_;  // per world rank
  std::unique_ptr<check::Checker> checker_;
};

}  // namespace tcio::mpi
