// Benchmark driver: one workload, one seed, one run.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--smoke] [--trace-out FILE] [--commit SHA]
//
// Builds the workload's inputs several times (set-up time is the median),
// runs the baseline leg once per jitter draw, then cycles the measured path
// through the draws until S seconds have passed (at least one cycle). Prints
// human-readable lines, then, as the last line, one JSON object with the
// keys correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 each cycle's repeat of draw 0 is
// traced, and the metrics are the per-layer rollup of that traced run.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "check/checker.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

/// Jitter draws per run: the network noise is heavy-tailed, so one draw per
/// seed makes collective-bound throughputs jump between seeds.
constexpr int kDraws = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "NAME --seed N --seconds S --trace 0|1 [--smoke] "
               "[--trace-out FILE] [--commit SHA]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--commit") {
      a.commit = v;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

bool sanitized() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

/// Busy jiffies per CPU from /proc/stat: every state but idle and iowait,
/// so interrupts and hypervisor steal count as busy. Empty when unreadable.
std::vector<long long> busyJiffies() {
  std::vector<long long> busy;
  std::ifstream f("/proc/stat");
  std::string line;
  while (std::getline(f, line)) {
    int cpu = 0;
    long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    if (std::sscanf(line.c_str(),
                    "cpu%d %lld %lld %lld %lld %lld %lld %lld %lld", &cpu,
                    &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                    &v[7]) != 9) {
      continue;  // the aggregate "cpu " line and other records
    }
    if (cpu >= static_cast<int>(busy.size())) busy.resize(cpu + 1, 0);
    busy[static_cast<std::size_t>(cpu)] =
        v[0] + v[1] + v[2] + v[5] + v[6] + v[7];
  }
  return busy;
}

/// Pins the process to the allowed CPU that was least busy over a short
/// sample, preferring higher-numbered CPUs on a tie (CPU 0 usually takes the
/// most interrupts). The engine admits one rank thread at a time,
/// so one CPU measures the engine rather than cross-core wake-ups. Returns
/// the CPU, or -1.
int pinToOneCpu(int* allowed) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  *allowed = CPU_COUNT(&set);
  int cpu = sched_getcpu();
  const std::vector<long long> before = busyJiffies();
  usleep(200 * 1000);
  const std::vector<long long> after = busyJiffies();
  long long best = -1;
  for (std::size_t c = 0; c < after.size() && c < before.size(); ++c) {
    if (!CPU_ISSET(static_cast<int>(c), &set)) continue;
    if (best < 0 || after[c] - before[c] <= best) {
      best = after[c] - before[c];
      cpu = static_cast<int>(c);
    }
  }
  if (cpu < 0 || !CPU_ISSET(cpu, &set)) {
    for (cpu = 0; cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &set); ++cpu) {
    }
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

void printBuildRecord(const Args& a, int cpu, int allowed) {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  std::printf("build: type=%s compiler=\"%s\" sanitizer=%s checker=%s "
              "commit=%s\n",
              PERFBENCH_BUILD_TYPE, kCompiler, sanitized() ? "on" : "off",
              tcio::check::Checker::enabled() ? "on" : "off",
              a.commit.c_str());
  std::printf("host: nproc=%ld allowed_cpus=%d pinned_cpu=%d "
              "loadavg=%.2f,%.2f,%.2f\n",
              sysconf(_SC_NPROCESSORS_ONLN), allowed, cpu, load[0], load[1],
              load[2]);
  std::string env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("TCIO_CHECK=", 0) == 0 || kv.rfind("TCIO_DELEGATES=", 0) == 0 ||
        kv.rfind("TCIO_INTEGRITY=", 0) == 0 || kv.rfind("TCIO_BENCH_", 0) == 0) {
      env += " " + kv;
    }
  }
  std::printf("env:%s\n", env.empty() ? " (no TCIO_* knobs set)" : env.c_str());
}

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double mbps(std::int64_t bytes, double secs) {
  return secs > 0 ? static_cast<double>(bytes) / secs / 1e6 : 0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Every virtual-time result of a leg; equal vectors mean bit-identical.
std::vector<double> modeled(const Leg& l) {
  return {l.writeSeconds(),
          l.readSeconds(),
          static_cast<double>(l.write_bytes),
          static_cast<double>(l.read_bytes),
          static_cast<double>(l.mem_peak),
          l.job.makespan,
          static_cast<double>(l.job.engine_events),
          static_cast<double>(l.job.network_messages),
          static_cast<double>(l.job.network_bytes),
          l.net.fabric_busy_s,
          static_cast<double>(l.fs.write_requests),
          static_cast<double>(l.fs.read_requests),
          static_cast<double>(l.tcio.level1_flushes),
          static_cast<double>(l.delegate.submissions)};
}

void putQuantiles(Metrics& m, const std::string& name,
                  const std::vector<double>& v) {
  m[name + ".p50"] = {quantile(v, 0.5), "s"};
  m[name + ".p90"] = {quantile(v, 0.9), "s"};
}

std::vector<double> plus(std::vector<double> a, const std::vector<double>& b) {
  if (a.size() < b.size()) a.resize(b.size(), 0);
  for (std::size_t i = 0; i < b.size(); ++i) a[i] += b[i];
  return a;
}

/// Median over the jitter draws of a leg's modeled result.
template <typename F>
double overDraws(const std::vector<Leg>& legs, F&& f) {
  std::vector<double> v;
  for (const Leg& l : legs) v.push_back(f(l));
  return median(v);
}

Metrics endToEnd(const std::vector<Leg>& m, const std::vector<Leg>& b,
                 double setup_s) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto write = [](const Leg& l) { return mbps(l.write_bytes, l.writeSeconds()); };
  auto read = [](const Leg& l) { return mbps(l.read_bytes, l.readSeconds()); };
  Metrics out;
  out["write_mbps"] = {overDraws(m, write), "MB/s"};
  out["read_mbps"] = {overDraws(m, read), "MB/s"};
  out["baseline_write_mbps"] = {overDraws(b, write), "MB/s"};
  out["baseline_read_mbps"] = {overDraws(b, read), "MB/s"};
  out["mem_per_rank_kib"] = {
      overDraws(m, [](const Leg& l) { return l.mem_peak / 1024.0; }), "KiB"};
  out["setup_s"] = {setup_s, "s"};
  out["peak_rss_mb"] = {static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"};
  return out;
}

Metrics perLayer(const Workload& w, const Leg& t, const Leg& b,
                 double wall_s, double overhead_s) {
  Metrics out;
  auto count = [&out](const std::string& name, double v) {
    out[name] = {v, "count"};
  };
  auto secs = [&out](const std::string& name, double v) {
    out[name] = {v, "s"};
  };
  auto bytes = [&out](const std::string& name, double v) {
    out[name] = {v, "B"};
  };
  auto frac = [&out](const std::string& name, double v) {
    out[name] = {v, "ratio"};
  };
  const auto events = static_cast<double>(t.job.engine_events);

  secs("sim.wall_s", wall_s);
  count("sim.events", events);
  out["sim.us_per_event"] = {ratio(wall_s * 1e6, events), "us"};
  secs("sim.user_s", t.user_s);
  secs("sim.sys_s", t.sys_s);
  count("sim.ctx_switches", static_cast<double>(t.ctx_switches));
  secs("sim.host_write_s", hostExtent(t.probe, "write"));
  secs("sim.host_read_s", hostExtent(t.probe, "read"));

  count("net.messages", static_cast<double>(t.net.messages));
  bytes("net.bytes", static_cast<double>(t.net.bytes));
  count("net.internode_payload_msgs",
        static_cast<double>(t.net.internode_payload_msgs));
  count("net.internode_control_msgs",
        static_cast<double>(t.net.internode_control_msgs));
  bytes("net.internode_bytes", static_cast<double>(t.net.internode_bytes));
  count("net.intranode_msgs", static_cast<double>(t.net.intranode_msgs));
  bytes("net.intranode_bytes", static_cast<double>(t.net.intranode_bytes));
  secs("net.fabric_busy_s", t.net.fabric_busy_s);
  count("net.rma_drops", static_cast<double>(t.net.rma_drops));

  putQuantiles(out, "mpi.entry_skew_s", entrySkew(t.probe));

  const auto& fs = t.fs;
  count("fs.write_requests", static_cast<double>(fs.write_requests));
  count("fs.read_requests", static_cast<double>(fs.read_requests));
  bytes("fs.bytes_written", static_cast<double>(fs.bytes_written));
  bytes("fs.bytes_read", static_cast<double>(fs.bytes_read));
  bytes("fs.bytes_per_write_request",
        ratio(static_cast<double>(fs.bytes_written),
              static_cast<double>(fs.write_requests)));
  frac("fs.cache_hit_frac", ratio(static_cast<double>(fs.bytes_read_from_cache),
                                  static_cast<double>(fs.bytes_read)));
  count("fs.lock_grants", static_cast<double>(fs.lock_grants));
  count("fs.lock_revocations", static_cast<double>(fs.lock_revocations));
  count("fs.opens", static_cast<double>(fs.opens));
  count("fs.journal_writes", static_cast<double>(fs.journal_writes));
  bytes("fs.journal_bytes", static_cast<double>(fs.journal_bytes));
  count("fs.clients", static_cast<double>(t.fs_clients));

  // MPI-IO runs only in the baseline legs that use it.
  const bool mpiio = w.baselineIsMpiio();
  putQuantiles(out, "mpiio.write_s",
               mpiio ? perRankTotal(b.probe, "write") : std::vector<double>{});
  putQuantiles(out, "mpiio.read_s",
               mpiio ? perRankTotal(b.probe, "read") : std::vector<double>{});
  count("mpiio.net_messages",
        mpiio ? static_cast<double>(b.job.network_messages) : 0);
  count("mpiio.fs_requests",
        mpiio ? static_cast<double>(b.fs.write_requests + b.fs.read_requests)
              : 0);

  const Probe& p = t.probe;
  putQuantiles(out, "tcio.open_s",
               plus(perRankTotal(p, "tcio.write_open"),
                    perRankTotal(p, "tcio.read_open")));
  putQuantiles(out, "tcio.write_loop_s", perRankTotal(p, "tcio.write_loop"));
  const Split wclose = collectiveSplit(p, "tcio.write_close");
  putQuantiles(out, "tcio.write_close.wait_s", wclose.wait);
  putQuantiles(out, "tcio.write_close.busy_s", wclose.busy);
  putQuantiles(out, "tcio.read_loop_s", perRankTotal(p, "tcio.read_loop"));
  const Split fetch = collectiveSplit(p, "tcio.fetch");
  putQuantiles(out, "tcio.fetch.wait_s", fetch.wait);
  putQuantiles(out, "tcio.fetch.busy_s", fetch.busy);
  putQuantiles(out, "tcio.read_close_s", perRankTotal(p, "tcio.read_close"));
  const TcioCounters& tc = t.tcio;
  count("tcio.level1_flushes", static_cast<double>(tc.level1_flushes));
  bytes("tcio.bytes_per_flush",
        ratio(static_cast<double>(tc.bytes_written),
              static_cast<double>(tc.level1_flushes)));
  count("tcio.collective_fetches", static_cast<double>(tc.collective_fetches));
  count("tcio.independent_fetches",
        static_cast<double>(tc.independent_fetches));
  count("tcio.crc_checks", static_cast<double>(tc.crc_checks));
  count("tcio.segments_scrubbed", static_cast<double>(tc.segments_scrubbed));
  count("tcio.crc_mismatches", static_cast<double>(tc.crc_mismatches));
  count("tcio.degraded_ranks", static_cast<double>(tc.degraded_ranks));

  count("topo.node_exchanges", static_cast<double>(tc.node_exchanges));
  bytes("topo.intranode_bytes", static_cast<double>(tc.intranode_bytes));
  count("topo.internode_msgs_saved",
        static_cast<double>(tc.internode_msgs_saved));

  const auto& d = t.delegate;
  count("delegate.submissions", static_cast<double>(d.submissions));
  count("delegate.rejections", static_cast<double>(d.rejections));
  frac("delegate.admit_frac",
       ratio(static_cast<double>(d.submissions),
             static_cast<double>(d.submissions + d.rejections)));
  count("delegate.busy_retries", static_cast<double>(d.busy_retries));
  count("delegate.queue_high_watermark",
        static_cast<double>(d.queue_high_watermark));
  count("delegate.batches", static_cast<double>(d.batches));
  count("delegate.extents_per_batch",
        ratio(static_cast<double>(d.batched_extents),
              static_cast<double>(d.batches)));
  secs("delegate.service_s", d.service_time);

  putQuantiles(out, "art.dump_s", perRankTotal(p, "art.dump"));
  putQuantiles(out, "art.restart_s", perRankTotal(p, "art.restart"));
  count("art.arrays", 0);
  bytes("art.file_bytes", 0);
  secs("art.gen_s", 0);
  w.addLayerMetrics(out);

  secs("trace.overhead_s", overhead_s);
  frac("trace.overhead_frac", ratio(overhead_s, wall_s));
  count("trace.spans", static_cast<double>(p.spanCount() + b.probe.spanCount()));
  return out;
}

void printJson(bool correct, std::int64_t attempted, std::int64_t failed,
               const Metrics& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const auto& [name, m] : metrics) {
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!first) s += ", ";
    first = false;
    s += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" + m.unit +
         "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

int run(const Args& a) {
  if (sanitized() || tcio::check::Checker::enabled()) {
    std::fprintf(stderr,
                 "perfbench_driver: refusing to measure a sanitizer or "
                 "TCIO_CHECK build (unset TCIO_CHECK, rebuild plain)\n");
    return 3;
  }
  std::unique_ptr<Workload> w = makeWorkload(a.workload, a.smoke);
  if (w == nullptr) usage(("unknown workload " + a.workload).c_str());
  int allowed = 0;
  const int cpu = pinToOneCpu(&allowed);
  printBuildRecord(a, cpu, allowed);

  // Set-up: the inputs are rebuilt (identically) before each of the first
  // `setups` legs, so the samples spread over the run rather than one burst
  // of host time; setup_s is their median.
  const int setups = a.smoke ? 2 : 5;
  std::vector<double> setup_times;
  auto setupAndRun = [&](bool baseline, bool traced, std::uint64_t job_seed) {
    if (static_cast<int>(setup_times.size()) < setups) {
      const auto t0 = std::chrono::steady_clock::now();
      w->setup(a.seed);
      setup_times.push_back(since(t0));
    }
    return w->run(baseline, traced, job_seed);
  };

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool deterministic = true;
  auto account = [&](const Leg& l, const char* what, int draw) {
    attempted += callCount(l.probe);
    failed += l.failed;
    if (!l.error.empty()) {
      std::printf("FAILED %s, draw %d: %s\n", what, draw, l.error.c_str());
    }
  };
  auto expectSame = [&](const Leg& x, const Leg& y, const char* what) {
    if (modeled(x) == modeled(y)) return;
    deterministic = false;
    std::printf("FAILED %s: modeled results differ at the same seed\n", what);
  };
  // Jitter draw d runs the job with seed seed * kDraws + d; the inputs stay
  // those of the seed. Modeled metrics are medians over the draws.
  auto jobSeed = [&a](int d) { return a.seed * kDraws + d; };

  std::vector<Leg> base;
  for (int d = 0; d < kDraws; ++d) {
    base.push_back(setupAndRun(/*baseline=*/true, a.trace, jobSeed(d)));
    account(base.back(), "baseline leg", d);
  }
  if (a.trace) {
    const Leg plain = setupAndRun(/*baseline=*/true, false, jobSeed(0));
    account(plain, "baseline leg (untraced)", 0);
    expectSame(plain, base[0], "baseline leg, traced vs untraced");
  }

  // Measured path: a cycle runs draws 0..kDraws-1 untraced, then draw 0
  // again (traced in a traced run) to check it reproduces bit for bit.
  // Cycles repeat until the time is up.
  std::vector<Leg> draws;
  std::optional<Leg> traced;
  std::vector<double> walls;       // untraced iterations
  std::vector<double> walls0;      // untraced iterations of draw 0
  std::vector<double> traced_walls;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0;; ++i) {
    const int slot = i % (kDraws + 1);
    const int d = slot == kDraws ? 0 : slot;
    const bool trace_this = a.trace && slot == kDraws;
    Leg leg = setupAndRun(/*baseline=*/false, trace_this, jobSeed(d));
    account(leg, "measured path", d);
    if (trace_this) {
      traced_walls.push_back(leg.wall_s);
    } else {
      walls.push_back(leg.wall_s);
      if (d == 0) walls0.push_back(leg.wall_s);
    }
    if (i < kDraws) {
      draws.push_back(std::move(leg));
    } else {
      expectSame(leg, draws[static_cast<std::size_t>(d)],
                 trace_this ? "measured path, traced vs untraced"
                            : "measured path, repeated draw");
      if (trace_this) traced.emplace(std::move(leg));
    }
    if (slot == kDraws && since(t0) >= a.seconds) break;
  }

  const double wall_s = median(walls);
  Metrics metrics;
  if (a.trace) {
    const double overhead = median(traced_walls) - median(walls0);
    metrics = perLayer(*w, *traced, base[0], wall_s, overhead);
    if (!a.trace_out.empty()) {
      std::string events;
      appendChromeTrace(traced->probe, 1, a.workload + " measured path",
                        events);
      appendChromeTrace(base[0].probe, 2, a.workload + " baseline leg", events);
      std::ofstream f(a.trace_out);
      f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
        << events << "\n]}\n";
      std::printf("trace: %s (%lld spans; open in Perfetto)\n",
                  a.trace_out.c_str(),
                  static_cast<long long>(traced->probe.spanCount() +
                                         base[0].probe.spanCount()));
    }
  } else {
    metrics = endToEnd(draws, base, median(setup_times));
  }

  std::printf("workload=%s seed=%llu smoke=%d trace=%d setups=%d draws=%d "
              "iterations=%zu deterministic=%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.smoke ? 1 : 0, a.trace ? 1 : 0, setups, kDraws,
              walls.size() + traced_walls.size(),
              deterministic ? "yes" : "NO");
  std::printf("  %-32s", "host wall per iteration (s)");
  for (double v : walls) std::printf(" %.3f", v);
  std::printf("\n");
  for (const auto& [name, m] : metrics) {
    std::printf("  %-32s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-32s %.6g ratio (%lld of %lld calls)\n", "failed_frac",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<long long>(failed),
              static_cast<long long>(attempted));
  printJson(failed == 0 && deterministic, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
