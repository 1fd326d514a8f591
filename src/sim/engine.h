// Deterministic discrete-event engine: every simulated rank runs as a fiber
// on the one OS thread that calls Engine::run.
//
// Execution model
// ---------------
// Every simulated MPI rank runs its body as a user-level context (a fiber
// with its own stack), and the engine runs exactly one of them at a time
// ("the active rank"). All interaction with shared simulation state
// (mailboxes, RMA windows, file-system queues, ...) must happen inside
// `Proc::atomic(fn)`. `atomic` first *gates*: the calling rank is suspended
// until it holds the minimum (virtual time, rank) key among all runnable
// ranks. Because shared state is only ever touched inside a gated section,
// every observable event executes in global virtual-time order — a
// conservative discrete-event simulation that is bit-deterministic. A rank
// gives up the thread only inside `atomic` or `wait`, and the engine then
// switches straight to the next rank in key order; no OS scheduler is
// involved.
//
// Between engine calls a rank may freely run real computation and advance its
// own clock with `advance()`; that is safe because local work cannot touch
// shared state.
//
// Blocking is expressed with `Event`: a module (inside `atomic`) registers
// the calling rank as a waiter, and some later rank (inside its own `atomic`)
// calls `Proc::complete(event, time)`. `Proc::wait` suspends until then and
// advances the waiter's clock to the completion time.
//
// If every live rank ends up blocked, the engine raises `DeadlockError`
// naming each rank's wait reason — simulated programs cannot hang silently.
//
// Fibers share the OS thread, so `thread_local` state is shared by every
// rank; state keyed by the running rank belongs in `Proc::local()`.
#pragma once

#include <any>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/types.h"

namespace tcio::sim {

class Engine;
class Proc;

/// One-shot completion token connecting a blocked rank to the rank that will
/// unblock it. Owned by module data structures (message envelopes, lock
/// requests, ...). Its fields change only inside gated sections; user code
/// only passes Events to Proc::wait / Proc::complete.
class Event {
 public:
  bool ready() const { return ready_; }
  SimTime time() const { return time_; }

 private:
  friend class Engine;
  friend class Proc;
  bool ready_ = false;
  SimTime time_ = 0;
  std::vector<Rank> waiters_;
};

/// Per-rank facade handed to the rank body. All members must be called from
/// the owning rank's body only.
class Proc {
 public:
  Rank rank() const { return rank_; }
  int size() const;

  /// This rank's virtual clock, in seconds.
  SimTime now() const { return now_; }

  /// Charge `dt` seconds of local work (computation, memcpy, ...).
  void advance(SimTime dt) {
    TCIO_CHECK(dt >= 0);
    now_ += dt;
  }

  /// Move the clock forward to at least `t` (no-op if already past).
  void advanceTo(SimTime t) {
    if (t > now_) now_ = t;
  }

  /// Execute `fn` atomically at this rank's current virtual time, in global
  /// virtual-time order. No other rank runs until `fn` returns; `fn` must not
  /// call atomic/wait itself. Returns fn's result.
  template <typename F>
  auto atomic(F&& fn) -> decltype(fn()) {
    AtomicSection section(*this);
    return fn();
  }

  /// Mark `e` complete at time `t` and make its waiters runnable. Must be
  /// called inside atomic(). `t` must be >= the caller's gated time.
  void complete(Event& e, SimTime t);

  /// Block until `e` completes; advances this rank's clock to the completion
  /// time. `what` names the wait for deadlock diagnostics. Must NOT be
  /// called inside atomic().
  void wait(Event& e, const char* what);

  /// Deterministic per-rank random stream.
  Rng& rng() { return rng_; }

  Engine& engine() { return *engine_; }

  /// Storage for a layer above the engine that keeps state per rank (the C
  /// API's tcio_set_context). Empty at start; destroyed with the Engine.
  std::any& local() { return local_; }

 private:
  friend class Engine;
  Proc(Engine& engine, Rank rank, std::uint64_t seed)
      : engine_(&engine), rank_(rank), rng_(seed) {}

  /// RAII helper: gates on construction (waiting for virtual-time order) and
  /// marks the rank inside a section until destruction, so a nested
  /// atomic/wait is reported instead of suspending the rank mid-section.
  class AtomicSection {
   public:
    explicit AtomicSection(Proc& p);
    ~AtomicSection() { p_.in_atomic_ = false; }
    AtomicSection(const AtomicSection&) = delete;
    AtomicSection& operator=(const AtomicSection&) = delete;

   private:
    Proc& p_;
  };

  Engine* engine_;
  Rank rank_;
  SimTime now_ = 0;
  bool in_atomic_ = false;
  Rng rng_;
  std::any local_;
};

/// The engine itself. Construct with the rank count, then `run(body)`;
/// `body(proc)` is executed once per rank, each on its own fiber stack of
/// kStackBytes (mapped with a guard page when `run` starts and unmapped when
/// it returns). `run` returns when every rank finished and rethrows the first
/// failure, if any; after a failure every started rank is unwound with
/// `Aborted` and no unstarted rank enters `body`.
class Engine {
 public:
  struct Config {
    int num_ranks = 1;
    /// Seed mixed into each rank's Rng.
    std::uint64_t seed = 1;
  };

  explicit Engine(Config cfg);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Stack size of one rank's fiber, the size of a default pthread stack.
  static constexpr std::size_t kStackBytes = std::size_t{8} << 20;

  /// Runs `body` on every rank. May be called once per Engine.
  void run(const std::function<void(Proc&)>& body);

  /// The rank whose body is running on the calling OS thread, or nullptr
  /// outside every rank body.
  static Proc* current();

  int numRanks() const { return cfg_.num_ranks; }

  /// Maximum virtual time over all ranks after run() finished — the
  /// simulated makespan.
  SimTime makespan() const;

  /// Total number of gated sections executed (simulation event count).
  std::int64_t eventCount() const { return event_count_; }

 private:
  friend class Proc;

  enum class State : std::uint8_t { kGated, kActive, kBlocked, kDone };

  struct RankRecord {
    State state = State::kGated;
    const char* wait_what = nullptr;
  };

  /// A saved execution context: one per rank, plus one for run()'s caller.
  /// Defined in engine.cc, which owns every context switch.
  struct Fiber;

  using GateKey = std::pair<SimTime, Rank>;

  void gate(Proc& p);
  void releaseActive(Rank r);
  void dispatch();
  void switchTo(Rank to);
  [[noreturn]] void rankMain(Rank r);
  static void fiberEntry();
  void fail(std::exception_ptr ep);
  void checkAbort() const;

  Config cfg_;
  std::vector<RankRecord> records_;
  std::vector<std::unique_ptr<Proc>> procs_;
  /// Index r holds rank r's fiber, index num_ranks run()'s; live during run.
  std::unique_ptr<Fiber[]> fibers_;
  const std::function<void(Proc&)>* body_ = nullptr;
  /// The rank whose fiber is executing, or -1 while run() itself is.
  Rank running_ = -1;
  std::set<GateKey> gated_;
  Rank active_ = -1;
  int done_count_ = 0;
  bool abort_ = false;
  std::exception_ptr failure_;
  std::vector<SimTime> final_times_;
  std::int64_t event_count_ = 0;
  bool ran_ = false;
};

/// Thrown into rank bodies to unwind them after another rank failed. User
/// code should not catch it (catch-all handlers in rank bodies must rethrow).
struct Aborted {};

}  // namespace tcio::sim
