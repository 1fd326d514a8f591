// GREEN fixture: banned-api. The approved counterparts — virtual time, the
// simulated MPI layer and per-rank state on sim::Proc — plus one reasoned
// waiver.

namespace fixture {

void approved(sim::Engine& eng, mpi::Comm& comm) {
  const sim::Time t0 = eng.now();
  comm.barrier();
  eng.advance(sim::micros(5));
  consume(t0);
}

// Per-rank state rides on the running rank, not on the OS thread.
void bindContext(const Context& ctx) {
  sim::Engine::current()->local() = ctx;
}

// A justified waiver: operator-facing tooling may read the host clock when
// it carries a reasoned suppression.
long hostSeconds() {
  // NOLINT-TCIO(banned-api): bench harness reports host wall time to the operator
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

}  // namespace fixture
