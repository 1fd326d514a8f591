#include "sim/engine.h"

#include <algorithm>
#include <sstream>

namespace tcio::sim {

// ---------------------------------------------------------------------------
// Proc
// ---------------------------------------------------------------------------

int Proc::size() const { return engine_->numRanks(); }

Proc::AtomicSection::AtomicSection(Proc& p) : lk_(p.engine_->lock_) {
  p.engine_->gateLocked(lk_, p);
}

void Proc::complete(Event& e, SimTime t) {
  Engine& eng = *engine_;
  // The engine lock is held by this thread's enclosing AtomicSection.
  TCIO_CHECK_MSG(eng.active_ == rank_, "complete() outside atomic()");
  TCIO_CHECK_MSG(!e.ready_, "event completed twice");
  e.ready_ = true;
  e.time_ = t;
  for (Rank w : e.waiters_) {
    Engine::RankRecord& rec = eng.records_[w];
    TCIO_CHECK(rec.state == Engine::State::kBlocked);
    rec.state = Engine::State::kGated;
    rec.wait_what = nullptr;
    --eng.blocked_count_;
    Proc& pw = *eng.procs_[w];
    pw.now_ = std::max(pw.now_, t);
    eng.gated_.insert({pw.now_, w});
  }
  e.waiters_.clear();
}

void Proc::wait(Event& e, const char* what) {
  Engine& eng = *engine_;
  std::unique_lock<std::mutex> lk(eng.lock_);
  eng.checkAbortLocked();
  if (e.ready_) {
    advanceTo(e.time_);
    return;
  }
  TCIO_CHECK_MSG(eng.active_ == rank_, "wait() by a non-active rank");
  Engine::RankRecord& rec = eng.records_[rank_];
  rec.state = Engine::State::kBlocked;
  rec.wait_what = what;
  ++eng.blocked_count_;
  e.waiters_.push_back(rank_);
  eng.releaseActiveLocked(rank_);
  eng.dispatchLocked();
  rec.cv.wait(lk, [&] { return eng.active_ == rank_ || eng.abort_; });
  if (eng.abort_) throw Aborted{};
  // complete() already advanced our clock and re-gated us; we are active now.
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(Config cfg) : cfg_(cfg) {
  TCIO_CHECK(cfg_.num_ranks >= 1);
  records_ = std::vector<RankRecord>(static_cast<std::size_t>(cfg_.num_ranks));
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

void Engine::run(const std::function<void(Proc&)>& body) {
  TCIO_CHECK_MSG(!ran_, "Engine::run may only be called once");
  ran_ = true;

  const int P = cfg_.num_ranks;
  int init_count = 0;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(P));
  for (Rank r = 0; r < P; ++r) {
    threads.emplace_back([&, r] {
      Proc& proc = *procs_[r];
      // Startup: register at time 0 and wait to be scheduled. The last rank
      // to register kicks off the first dispatch so the min-time pick sees
      // the complete gated set.
      {
        std::unique_lock<std::mutex> lk(lock_);
        gated_.insert({0.0, r});
        if (++init_count == P) dispatchLocked();
        records_[r].cv.wait(lk, [&] { return active_ == r || abort_; });
        if (abort_) {
          lk.unlock();
          finishRank(r, /*was_active=*/false);
          return;
        }
      }
      try {
        body(proc);
        finishRank(r, /*was_active=*/true);
      } catch (const Aborted&) {
        finishRank(r, /*was_active=*/false);
      } catch (...) {
        std::unique_lock<std::mutex> lk(lock_);
        failLocked(std::current_exception());
        lk.unlock();
        finishRank(r, /*was_active=*/false);
      }
    });
  }
  for (auto& t : threads) t.join();
  if (failure_) std::rethrow_exception(failure_);
}

void Engine::finishRank(Rank r, bool was_active) {
  std::unique_lock<std::mutex> lk(lock_);
  RankRecord& rec = records_[r];
  rec.state = State::kDone;
  ++done_count_;
  final_times_[r] = procs_[r]->now_;
  if (was_active) {
    TCIO_CHECK(active_ == r);
    releaseActiveLocked(r);
    dispatchLocked();
  } else if (active_ == r) {
    // Failure path: the failing rank may still be marked active.
    releaseActiveLocked(r);
    if (!abort_) dispatchLocked();
  }
}

SimTime Engine::makespan() const {
  std::unique_lock<std::mutex> lk(lock_);
  SimTime m = 0;
  for (SimTime t : final_times_) m = std::max(m, t);
  return m;
}

void Engine::gateLocked(std::unique_lock<std::mutex>& lk, Proc& p) {
  const Rank r = p.rank_;
  checkAbortLocked();
  TCIO_CHECK_MSG(active_ == r, "atomic() by a non-active rank");
  ++event_count_;
  const GateKey key{p.now_, r};
  // Fast path: we are already the minimum runnable rank — keep running.
  if (gated_.empty() || key < *gated_.begin()) return;
  // Hand off to the earlier rank and queue ourselves.
  records_[r].state = State::kGated;
  gated_.insert(key);
  releaseActiveLocked(r);
  dispatchLocked();
  records_[r].cv.wait(lk, [&] { return active_ == r || abort_; });
  if (abort_) throw Aborted{};
}

void Engine::releaseActiveLocked(Rank r) {
  TCIO_CHECK(active_ == r);
  active_ = -1;
}

void Engine::dispatchLocked() {
  if (abort_) return;
  TCIO_CHECK(active_ == -1);
  if (!gated_.empty()) {
    const auto it = gated_.begin();
    const Rank r = it->second;
    gated_.erase(it);
    records_[r].state = State::kActive;
    active_ = r;
    records_[r].cv.notify_one();
    return;
  }
  if (done_count_ == cfg_.num_ranks) return;  // everyone finished
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
  failLocked(std::make_exception_ptr(DeadlockError(os.str())));
}

void Engine::failLocked(std::exception_ptr ep) {
  if (!failure_) failure_ = std::move(ep);
  abort_ = true;
  for (auto& rec : records_) rec.cv.notify_all();
}

void Engine::checkAbortLocked() const {
  if (abort_) throw Aborted{};
}

}  // namespace tcio::sim
