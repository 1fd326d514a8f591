// Spans the benchmark records around its own calls into the library.
//
// Every span carries the rank's virtual clock at entry and exit. Reading
// Proc::now() does not touch the simulation, so recording spans leaves every
// modeled number bit-identical. A traced probe also stamps host time; an
// untraced one leaves the host fields at zero. A loop of writeAt/readAt
// calls is one span with a call count, never one span per call.
//
// Each rank appends only to its own span list, from its own thread, so no
// locking is needed; the lists are read after the job has ended.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "mpi/comm.h"

namespace perfbench {

struct Span {
  const char* layer = "";
  const char* name = "";
  int parent = -1;          // index of the enclosing span on the same rank
  bool collective = false;  // every participating rank makes this call
  std::int64_t calls = 1;   // public library calls inside the span
  double v0 = 0, v1 = 0;    // virtual seconds
  double h0 = 0, h1 = 0;    // host seconds since the probe was made
};

class Probe {
 public:
  Probe(int ranks, bool traced);

  int ranks() const { return static_cast<int>(spans_.size()); }
  const std::vector<Span>& spans(int rank) const {
    return spans_[static_cast<std::size_t>(rank)];
  }
  std::int64_t spanCount() const;

  /// Opens a span on `rank`; its parent is the innermost open span.
  int begin(int rank, double now, const char* layer, const char* name,
            bool collective);
  void end(int rank, int index, double now, std::int64_t calls);

 private:
  double hostNow() const;

  bool traced_;
  std::chrono::steady_clock::time_point t0_;
  std::vector<std::vector<Span>> spans_;
  std::vector<std::vector<int>> open_;  // per-rank stack of open spans
};

/// Span scope over one rank's call. Phase spans ("write", "read") use the
/// layer "phase" and enclose the call spans.
class Scope {
 public:
  Scope(Probe& p, tcio::mpi::Comm& comm, const char* layer, const char* name,
        bool collective = false, std::int64_t calls = 1)
      : p_(p), comm_(comm), calls_(calls),
        index_(p.begin(comm.proc().rank(), comm.proc().now(), layer, name,
                       collective)) {}
  ~Scope() { p_.end(comm_.proc().rank(), index_, comm_.proc().now(), calls_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Probe& p_;
  tcio::mpi::Comm& comm_;
  std::int64_t calls_;
  int index_;
};

// -- Rollups ------------------------------------------------------------------

/// Latest exit minus earliest entry over every span named `name`.
double virtualExtent(const Probe& p, const char* name);
/// The same on the host clock (traced probes only).
double hostExtent(const Probe& p, const char* name);
/// Per-rank sum of the durations of spans named `name`, over the ranks that
/// made such a span.
std::vector<double> perRankTotal(const Probe& p, const char* name);

/// A collective call split at its latest entry: `wait` is the latest rank's
/// entry minus this rank's entry, `busy` is this rank's exit minus the latest
/// entry. The k-th span of a name on each rank is one call. Per-rank sums.
struct Split {
  std::vector<double> wait;
  std::vector<double> busy;
};
Split collectiveSplit(const Probe& p, const char* name);
/// Per-rank sum of `wait` over every collective span.
std::vector<double> entrySkew(const Probe& p);

/// Public calls made inside the non-phase spans.
std::int64_t callCount(const Probe& p);

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Appends Chrome trace-event records for `p` (process `pid`, one thread per
/// rank, virtual microseconds on the time axis) to `out`.
void appendChromeTrace(const Probe& p, int pid, const std::string& label,
                       std::string& out);

}  // namespace perfbench
