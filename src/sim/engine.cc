#include "sim/engine.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <cxxabi.h>
#include <sstream>

#if defined(__SANITIZE_ADDRESS__)
#define TCIO_SIM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TCIO_SIM_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define TCIO_SIM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define TCIO_SIM_TSAN 1
#endif
#endif

#ifdef TCIO_SIM_ASAN
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef TCIO_SIM_TSAN
#include <sanitizer/tsan_interface.h>
#endif

namespace tcio::sim {

namespace {

// The engine whose run() owns this OS thread; makecontext cannot pass a
// pointer to a fiber's entry function.
thread_local Engine* t_engine = nullptr;

// The Itanium C++ ABI's per-thread exception state (__cxa_eh_globals): the
// stack of exceptions being handled and the count thrown but not yet caught.
// Fibers share the thread's copy, and __cxa_end_catch pops whatever is on
// top — so a rank suspended inside a catch block would pop, rethrow or
// free another rank's exception. Each fiber keeps its own copy across
// switches.
struct EhGlobals {
  void* caught = nullptr;
  unsigned int uncaught = 0;
};

void* threadEhGlobals() { return abi::__cxa_get_globals(); }

}  // namespace

struct Engine::Fiber {
  Fiber() = default;
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  ~Fiber() {
    if (stack == nullptr) return;
#ifdef TCIO_SIM_TSAN
    __tsan_destroy_fiber(tsan);
#endif
#ifdef TCIO_SIM_ASAN
    // Frames that never returned (a finished rank's last switch) leave
    // poisoned shadow behind; clear it before the range can be mapped again.
    __asan_unpoison_memory_region(bottom, size);
#endif
    munmap(stack, mapped);
  }

  /// Maps a guard page plus kStackBytes and points `uc` at fiberEntry on it.
  void init() {
    const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    mapped = page + kStackBytes;
    void* mem = mmap(nullptr, mapped, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                     -1, 0);
    TCIO_CHECK_MSG(mem != MAP_FAILED,
                   "cannot map a rank's fiber stack (address space or "
                   "vm.max_map_count exhausted?)");
    stack = mem;
    TCIO_CHECK(mprotect(stack, page, PROT_NONE) == 0);  // overflow faults
    bottom = static_cast<char*>(stack) + page;
    size = kStackBytes;
    TCIO_CHECK(getcontext(&uc) == 0);
    uc.uc_stack.ss_sp = bottom;
    uc.uc_stack.ss_size = size;
    uc.uc_link = nullptr;  // fiberEntry never returns
    makecontext(&uc, &Engine::fiberEntry, 0);
    // makecontext has consumed the stack bounds. ASan's swapcontext
    // interceptor unpoisons the whole stack named here on every switch,
    // wiping the redzones of the suspended frames; forget them.
    uc.uc_stack = {};
#ifdef TCIO_SIM_TSAN
    tsan = __tsan_create_fiber(0);
#endif
  }

  ucontext_t uc{};
  EhGlobals eh;
  bool started = false;
  void* stack = nullptr;  // the whole mapping, guard page first
  std::size_t mapped = 0;
  // Usable stack; for run()'s fiber under ASan, learned on the first switch.
  void* bottom = nullptr;
  std::size_t size = 0;
#ifdef TCIO_SIM_ASAN
  void* fake_stack = nullptr;
#endif
#ifdef TCIO_SIM_TSAN
  void* tsan = nullptr;
#endif
};

// ---------------------------------------------------------------------------
// Proc
// ---------------------------------------------------------------------------

int Proc::size() const { return engine_->numRanks(); }

Proc::AtomicSection::AtomicSection(Proc& p) : p_(p) {
  TCIO_CHECK_MSG(!p.in_atomic_, "atomic() nested inside atomic()");
  p.engine_->gate(p);
  p.in_atomic_ = true;
}

void Proc::complete(Event& e, SimTime t) {
  Engine& eng = *engine_;
  TCIO_CHECK_MSG(eng.active_ == rank_ && in_atomic_,
                 "complete() outside atomic()");
  TCIO_CHECK_MSG(!e.ready_, "event completed twice");
  e.ready_ = true;
  e.time_ = t;
  for (Rank w : e.waiters_) {
    Engine::RankRecord& rec = eng.records_[w];
    TCIO_CHECK(rec.state == Engine::State::kBlocked);
    rec.state = Engine::State::kGated;
    rec.wait_what = nullptr;
    Proc& pw = *eng.procs_[w];
    pw.now_ = std::max(pw.now_, t);
    eng.gated_.insert({pw.now_, w});
  }
  e.waiters_.clear();
}

void Proc::wait(Event& e, const char* what) {
  Engine& eng = *engine_;
  TCIO_CHECK_MSG(!in_atomic_, "wait() inside atomic()");
  eng.checkAbort();
  if (e.ready_) {
    advanceTo(e.time_);
    return;
  }
  TCIO_CHECK_MSG(eng.active_ == rank_, "wait() by a non-active rank");
  Engine::RankRecord& rec = eng.records_[rank_];
  rec.state = Engine::State::kBlocked;
  rec.wait_what = what;
  e.waiters_.push_back(rank_);
  eng.releaseActive(rank_);
  eng.dispatch();
  eng.checkAbort();
  // complete() already advanced our clock and re-gated us; we are active now.
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(Config cfg) : cfg_(cfg) {
  TCIO_CHECK(cfg_.num_ranks >= 1);
  records_.resize(static_cast<std::size_t>(cfg_.num_ranks));
  final_times_.assign(static_cast<std::size_t>(cfg_.num_ranks), 0.0);
  procs_.reserve(static_cast<std::size_t>(cfg_.num_ranks));
  for (Rank r = 0; r < cfg_.num_ranks; ++r) {
    // Mix the rank into the seed so streams are independent.
    const std::uint64_t seed =
        cfg_.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(r) + 1;
    procs_.emplace_back(std::unique_ptr<Proc>(new Proc(*this, r, seed)));
  }
}

Engine::~Engine() = default;

Proc* Engine::current() {
  const Engine* e = t_engine;
  return e != nullptr && e->running_ >= 0 ? e->procs_[e->running_].get()
                                          : nullptr;
}

void Engine::run(const std::function<void(Proc&)>& body) {
  TCIO_CHECK_MSG(!ran_, "Engine::run may only be called once");
  ran_ = true;

  const int P = cfg_.num_ranks;
  fibers_ = std::make_unique<Fiber[]>(static_cast<std::size_t>(P) + 1);
  for (Rank r = 0; r < P; ++r) fibers_[r].init();
#ifdef TCIO_SIM_TSAN
  fibers_[P].tsan = __tsan_get_current_fiber();
#endif
  body_ = &body;
  Engine* const outer = t_engine;  // a rank body may run a nested engine
  t_engine = this;

  for (Rank r = 0; r < P; ++r) gated_.insert({0.0, r});
  dispatch();  // returns once every rank is done or the run aborted

  // After a failure: unwind every started rank from where it is suspended
  // (it throws Aborted and switches back here as it finishes), in rank
  // order; retire the rest without entering the body.
  for (Rank r = 0; r < P; ++r) {
    if (records_[r].state == State::kDone) continue;
    if (fibers_[r].started) {
      switchTo(r);
    } else {
      records_[r].state = State::kDone;
      ++done_count_;
    }
  }

  t_engine = outer;
  body_ = nullptr;
  fibers_.reset();
  if (failure_) std::rethrow_exception(failure_);
}

void Engine::fiberEntry() {
  Engine& eng = *t_engine;
#ifdef TCIO_SIM_ASAN
  const void* from_bottom = nullptr;
  std::size_t from_size = 0;
  __sanitizer_finish_switch_fiber(nullptr, &from_bottom, &from_size);
  // The first rank ever started is started by run() itself: that switch
  // tells us run()'s stack, which later switches back to it need.
  Fiber& caller = eng.fibers_[eng.cfg_.num_ranks];
  if (caller.size == 0) {
    caller.bottom = const_cast<void*>(from_bottom);
    caller.size = from_size;
  }
#endif
  eng.rankMain(eng.running_);
}

void Engine::rankMain(Rank r) {
  try {
    (*body_)(*procs_[r]);
  } catch (const Aborted&) {
    // Unwound after another rank's failure, which run() rethrows.
  } catch (...) {
    fail(std::current_exception());
  }
  records_[r].state = State::kDone;
  ++done_count_;
  final_times_[r] = procs_[r]->now_;
  if (active_ == r) releaseActive(r);
  dispatch();
  // A finished rank's fiber is never switched back to.
  std::abort();
}

SimTime Engine::makespan() const {
  SimTime m = 0;
  for (SimTime t : final_times_) m = std::max(m, t);
  return m;
}

void Engine::gate(Proc& p) {
  const Rank r = p.rank_;
  checkAbort();
  TCIO_CHECK_MSG(active_ == r, "atomic() by a non-active rank");
  ++event_count_;
  const GateKey key{p.now_, r};
  // Fast path: we are already the minimum runnable rank — keep running.
  if (gated_.empty() || key < *gated_.begin()) return;
  // Hand off to the earlier rank and queue ourselves.
  records_[r].state = State::kGated;
  gated_.insert(key);
  releaseActive(r);
  dispatch();
  checkAbort();
}

void Engine::releaseActive(Rank r) {
  TCIO_CHECK(active_ == r);
  active_ = -1;
}

// Passes the thread to the runnable rank with the least (time, rank) key, or
// back to run() once no rank is left or the run aborted. Returns when the
// caller's own fiber is switched back to.
void Engine::dispatch() {
  TCIO_CHECK(active_ == -1);
  if (!abort_ && !gated_.empty()) {
    const auto it = gated_.begin();
    const Rank r = it->second;
    gated_.erase(it);
    records_[r].state = State::kActive;
    active_ = r;
    switchTo(r);
    return;
  }
  if (!abort_ && done_count_ < cfg_.num_ranks) {
    // No runnable rank and somebody is still alive: they are all blocked.
    std::ostringstream os;
    os << "simulated deadlock: all live ranks are blocked —";
    for (Rank r = 0; r < cfg_.num_ranks; ++r) {
      if (records_[r].state == State::kBlocked) {
        os << " rank " << r << " waiting on "
           << (records_[r].wait_what != nullptr ? records_[r].wait_what : "?")
           << ";";
      }
    }
    fail(std::make_exception_ptr(DeadlockError(os.str())));
  }
  switchTo(-1);
}

// Suspends the running fiber and resumes `to`'s (-1: run()'s). Returns when
// some later switchTo resumes the caller; a finished rank's never is.
void Engine::switchTo(Rank to) {
  const Rank from = running_;
  const int P = cfg_.num_ranks;
  Fiber& cur = fibers_[from < 0 ? P : from];
  Fiber& next = fibers_[to < 0 ? P : to];
  next.started = true;
  std::memcpy(&cur.eh, threadEhGlobals(), sizeof(EhGlobals));
  std::memcpy(threadEhGlobals(), &next.eh, sizeof(EhGlobals));
  running_ = to;
#ifdef TCIO_SIM_ASAN
  const bool finished = from >= 0 && records_[from].state == State::kDone;
  // A null save slot tells ASan the leaving fiber is gone for good.
  __sanitizer_start_switch_fiber(finished ? nullptr : &cur.fake_stack,
                                 next.bottom, next.size);
#endif
#ifdef TCIO_SIM_TSAN
  // Nothing instrumented may run between this and the switch: TSan already
  // attributes it to `next`.
  __tsan_switch_to_fiber(next.tsan, 0);
#endif
  swapcontext(&cur.uc, &next.uc);
#ifdef TCIO_SIM_ASAN
  __sanitizer_finish_switch_fiber(cur.fake_stack, nullptr, nullptr);
#endif
}

void Engine::fail(std::exception_ptr ep) {
  if (!failure_) failure_ = std::move(ep);
  abort_ = true;
}

void Engine::checkAbort() const {
  if (abort_) throw Aborted{};
}

}  // namespace tcio::sim
