// The benchmark's workloads. Each builds its inputs from a seed, then runs
// its measured path or its baseline leg as one simulated job and checks every
// byte the job wrote and read.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fs/filesystem.h"
#include "mpi/runtime.h"
#include "probe.h"
#include "tcio/file.h"

namespace perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Network counters, read once every rank of the job has returned.
struct NetCounters {
  std::int64_t messages = 0;
  std::int64_t bytes = 0;
  std::int64_t internode_payload_msgs = 0;
  std::int64_t internode_control_msgs = 0;
  std::int64_t internode_bytes = 0;
  std::int64_t intranode_msgs = 0;
  std::int64_t intranode_bytes = 0;
  double fabric_busy_s = 0;
  std::int64_t rma_drops = 0;
};

/// TcioStats fields the benchmark reports, summed over ranks and files.
struct TcioCounters {
  std::int64_t level1_flushes = 0;
  std::int64_t bytes_written = 0;
  std::int64_t collective_fetches = 0;
  std::int64_t independent_fetches = 0;
  std::int64_t crc_checks = 0;
  std::int64_t crc_mismatches = 0;
  std::int64_t segments_scrubbed = 0;
  std::int64_t node_exchanges = 0;
  std::int64_t intranode_bytes = 0;
  std::int64_t internode_msgs_saved = 0;
  std::int64_t degraded_ranks = 0;

  void add(const tcio::core::TcioStats& s);
  void add(const TcioCounters& o);
};

/// One simulated job: its spans, counters, costs and verification outcome.
struct Leg {
  Leg(int ranks, bool traced) : probe(ranks, traced) {}

  Probe probe;
  tcio::mpi::JobResult job;
  double wall_s = 0;  // host seconds around runJob
  double user_s = 0;  // getrusage deltas around runJob
  double sys_s = 0;
  std::int64_t ctx_switches = 0;
  NetCounters net;
  tcio::fs::FsStats fs;
  std::int64_t fs_clients = 0;  // ranks that issued a costed FS call
  std::int64_t write_bytes = 0;  // file bytes the write phase produced
  std::int64_t read_bytes = 0;   // file bytes the read phase read back
  std::int64_t mem_peak = 0;     // largest comm.memory().peak()
  TcioCounters tcio;             // TCIO legs only
  tcio::core::TcioDelegateStats delegate;  // delegate sessions only
  std::int64_t failed = 0;  // failed calls, wrong bytes, thrown jobs
  std::string error;        // first failure, for the log

  double writeSeconds() const { return virtualExtent(probe, "write"); }
  double readSeconds() const { return virtualExtent(probe, "read"); }
  void fail(const std::string& why, std::int64_t n = 1);
};

/// Runs `body` on every rank of a job and fills the host and network fields
/// of `leg`. A throwing job counts as one failure and is not rethrown.
void runLeg(Leg& leg, const tcio::mpi::JobConfig& job,
            const std::function<void(tcio::mpi::Comm&)>& body);

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input from `seed`: trees, payloads, configs.
  virtual void setup(std::uint64_t seed) = 0;
  /// Runs the measured path, or the baseline leg on identical inputs, as a
  /// job seeded with `job_seed` (the network jitter draw).
  virtual Leg run(bool baseline, bool traced, std::uint64_t job_seed) = 0;
  /// True when the baseline leg runs through MPI-IO (the mpiio layer).
  virtual bool baselineIsMpiio() const = 0;
  /// Layer metrics only this workload has (zero-filled elsewhere).
  virtual void addLayerMetrics(Metrics&) const {}
};

/// Null for an unknown name. `smoke` selects a small, fast configuration.
std::unique_ptr<Workload> makeWorkload(const std::string& name, bool smoke);

}  // namespace perfbench
