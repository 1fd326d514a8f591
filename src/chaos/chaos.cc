#include "chaos/chaos.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "mpi/agreement.h"
#include "mpi/runtime.h"
#include "tcio/file.h"

namespace tcio::chaos {

namespace {

constexpr std::uint64_t kChaosSalt = 0x6368616f73ULL;  // "chaos"

const char* pointName(CrashPoint p) {
  switch (p) {
    case CrashPoint::kAtCollective: return "coll";
    case CrashPoint::kMidRma: return "rma";
    case CrashPoint::kMidJournal: return "journal";
    case CrashPoint::kMidClose: return "close";
    case CrashPoint::kMidRecovery: return "recovery";
  }
  return "?";
}

CrashPoint parsePoint(const std::string& s) {
  if (s == "coll") return CrashPoint::kAtCollective;
  if (s == "rma") return CrashPoint::kMidRma;
  if (s == "journal") return CrashPoint::kMidJournal;
  if (s == "close") return CrashPoint::kMidClose;
  if (s == "recovery") return CrashPoint::kMidRecovery;
  TCIO_CHECK_MSG(false, "unknown crash point in chaos plan string");
  return CrashPoint::kAtCollective;
}

const char* siteName(CorruptSite s) {
  switch (s) {
    case CorruptSite::kStagingFrame: return "frame";
    case CorruptSite::kWindow: return "window";
    case CorruptSite::kStoredBlock: return "stored";
    case CorruptSite::kJournalBody: return "jbody";
  }
  return "?";
}

CorruptSite parseSite(const std::string& s) {
  if (s == "frame") return CorruptSite::kStagingFrame;
  if (s == "window") return CorruptSite::kWindow;
  if (s == "stored") return CorruptSite::kStoredBlock;
  if (s == "jbody") return CorruptSite::kJournalBody;
  TCIO_CHECK_MSG(false, "unknown corruption site in chaos plan string");
  return CorruptSite::kStagingFrame;
}

std::string fmtRate(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The workload's value model: one fixed byte per offset, written exactly
/// once, so a crashed rank's region can be attributed byte-by-byte (the
/// round value or zero — anything else is silent corruption).
std::byte expectedByte(const ChaosPlan& plan, Offset off) {
  return static_cast<std::byte>(
      (off * 13 + off / plan.segment_size + 7) % 251 + 1);
}

/// Everything one execution of the plan's workload produced, reduced to a
/// comparable fingerprint (the determinism invariant is `a == b`).
struct RunFingerprint {
  std::vector<std::int32_t> outcome;  // CapturedError code per rank
  Bytes file_size = 0;
  std::vector<std::byte> contents;
  SimTime makespan = 0;
  std::vector<std::int64_t> stats_flat;          // per-rank, concatenated
  std::vector<core::TcioStats> per_rank_stats;   // for conservation checks
};

void flattenInto(const core::TcioStats& s, std::vector<std::int64_t>* out) {
  out->push_back(s.writes);
  out->push_back(s.level1_flushes);
  out->push_back(s.bytes_written);
  out->push_back(s.node_exchanges);
  out->push_back(s.degraded.ranks_crashed);
  out->push_back(s.degraded.segments_taken_over);
  out->push_back(s.degraded.journal_records_replayed);
  out->push_back(s.degraded.journal_bytes_replayed);
  out->push_back(s.degraded.journal_torn_records);
  out->push_back(s.degraded.unjournaled_segments_lost);
  out->push_back(s.degraded.window_remaps);
  out->push_back(s.degraded.fs_transient_faults);
  out->push_back(s.degraded.fs_retries);
  out->push_back(s.integrity.crc_checks);
  out->push_back(s.integrity.crc_mismatches);
  out->push_back(s.integrity.repaired);
  out->push_back(s.integrity.unrepairable);
}

core::TcioConfig chaosConfig(const ChaosPlan& plan, bool faulty) {
  core::TcioConfig cfg;
  cfg.segment_size = plan.segment_size;
  cfg.segments_per_rank = plan.segments_per_rank;
  cfg.use_onesided = true;
  cfg.lazy_reads = true;
  cfg.node_aggregation = plan.node_agg;
  cfg.crash.enabled = true;  // shadow runs the same protocol, unarmed
  cfg.crash.journal = true;
  // Pin integrity explicitly (never defer to TCIO_INTEGRITY): the oracle
  // compares faulty vs shadow runs, which must agree on the pipeline.
  cfg.integrity.enabled = plan.integrity ? 1 : -1;
  cfg.retry.max_attempts = 8;  // absorb drawn transient rates
  cfg.faults.seed = plan.seed;
  if (!faulty) return cfg;
  cfg.faults.crashes = plan.crashes;
  cfg.faults.corruptions = plan.corruptions;
  cfg.faults.fs_transient_write_rate = plan.fs_transient_write_rate;
  cfg.faults.fs_transient_read_rate = plan.fs_transient_read_rate;
  if (plan.straggler_ost >= 0) {
    cfg.faults.straggler_ost = plan.straggler_ost;
    cfg.faults.straggler_multiplier = plan.straggler_multiplier;
  }
  cfg.faults.enabled = plan.fs_transient_write_rate > 0 ||
                       plan.fs_transient_read_rate > 0 ||
                       plan.straggler_ost >= 0;
  return cfg;
}

RunFingerprint runOnce(const ChaosPlan& plan, bool faulty) {
  const Bytes region = plan.segment_size * plan.segments_per_rank;

  fs::FsConfig fcfg;
  fcfg.num_osts = 3;
  fcfg.stripe_size = plan.segment_size;
  fcfg.default_stripe_count = 3;
  fs::Filesystem fsys(fcfg);

  mpi::JobConfig jc;
  jc.num_ranks = plan.ranks;
  jc.net.ranks_per_node = plan.ranks_per_node;
  jc.seed = plan.seed;

  const core::TcioConfig cfg = chaosConfig(plan, faulty);

  RunFingerprint fp;
  fp.outcome.assign(static_cast<std::size_t>(plan.ranks), 0);
  fp.per_rank_stats.resize(static_cast<std::size_t>(plan.ranks));
  const mpi::JobResult jr = mpi::runJob(jc, [&](mpi::Comm& comm) {
    const int r = comm.rank();
    mpi::CapturedError err;
    core::File f(comm, fsys, "chaos.dat", fs::kWrite | fs::kCreate, cfg);
    try {
      const Offset begin = r * region;
      std::vector<std::byte> buf;
      for (int round = 0; round < plan.rounds; ++round) {
        // Round k writes slice k of this rank's private region in small
        // chunks, then flushes collectively — so every byte is journaled
        // one round after it is written and each crash round has a
        // well-defined durable prefix.
        const Offset lo = begin + region * round / plan.rounds;
        const Offset hi = begin + region * (round + 1) / plan.rounds;
        constexpr Bytes kChunk = 128;
        for (Offset cur = lo; cur < hi;) {
          const Bytes n = std::min<Bytes>(kChunk, hi - cur);
          buf.resize(static_cast<std::size_t>(n));
          for (Bytes i = 0; i < n; ++i) {
            buf[static_cast<std::size_t>(i)] = expectedByte(plan, cur + i);
          }
          f.writeAt(cur, buf.data(), n);
          cur += n;
        }
        f.flush();
      }
      f.close();
    } catch (const std::exception& e) {
      err.capture(e);
    }
    fp.outcome[static_cast<std::size_t>(r)] = err.code;
    fp.per_rank_stats[static_cast<std::size_t>(r)] = f.stats();
  });
  fp.makespan = jr.makespan;
  for (const core::TcioStats& s : fp.per_rank_stats) {
    flattenInto(s, &fp.stats_flat);
  }
  fp.file_size = fsys.peekSize("chaos.dat");
  fp.contents.resize(static_cast<std::size_t>(fp.file_size));
  if (fp.file_size > 0) fsys.peek("chaos.dat", 0, fp.contents);
  return fp;
}

}  // namespace

std::string ChaosPlan::str() const {
  std::ostringstream os;
  os << "chaos1 seed=" << seed << " ranks=" << ranks
     << " rpn=" << ranks_per_node << " seg=" << segment_size
     << " spr=" << segments_per_rank << " rounds=" << rounds
     << " nodeagg=" << (node_agg ? 1 : 0) << " integ=" << (integrity ? 1 : 0)
     << " eiow=" << fmtRate(fs_transient_write_rate)
     << " eior=" << fmtRate(fs_transient_read_rate);
  if (straggler_ost >= 0) {
    os << " strag=" << straggler_ost << ":" << fmtRate(straggler_multiplier);
  }
  if (!crashes.empty()) {
    os << " crash=";
    for (std::size_t i = 0; i < crashes.size(); ++i) {
      if (i > 0) os << ",";
      os << crashes[i].rank << "@" << pointName(crashes[i].point) << "."
         << crashes[i].after;
    }
  }
  if (!corruptions.empty()) {
    os << " corrupt=";
    for (std::size_t i = 0; i < corruptions.size(); ++i) {
      if (i > 0) os << ",";
      os << corruptions[i].rank << "@" << siteName(corruptions[i].site) << "."
         << corruptions[i].after;
    }
  }
  return os.str();
}

ChaosPlan ChaosPlan::parse(const std::string& s) {
  ChaosPlan p;
  std::istringstream is(s);
  std::string tok;
  is >> tok;
  TCIO_CHECK_MSG(tok == "chaos1", "not a chaos plan string (missing header)");
  const auto splitList = [](const std::string& v) {
    std::vector<std::string> out;
    std::size_t at = 0;
    while (at <= v.size()) {
      const std::size_t comma = v.find(',', at);
      out.push_back(v.substr(at, comma - at));
      if (comma == std::string::npos) break;
      at = comma + 1;
    }
    return out;
  };
  // One "rank@name.after" element of a crash/corrupt list.
  const auto splitArm = [](const std::string& e, Rank* rank,
                           std::string* name, std::int64_t* after) {
    const std::size_t amp = e.find('@');
    const std::size_t dot = e.rfind('.');
    TCIO_CHECK_MSG(amp != std::string::npos && dot != std::string::npos &&
                       dot > amp,
                   "malformed arm in chaos plan string");
    *rank = static_cast<Rank>(std::stoll(e.substr(0, amp)));
    *name = e.substr(amp + 1, dot - amp - 1);
    *after = std::stoll(e.substr(dot + 1));
  };
  while (is >> tok) {
    const std::size_t eq = tok.find('=');
    TCIO_CHECK_MSG(eq != std::string::npos, "malformed chaos plan token");
    const std::string key = tok.substr(0, eq);
    const std::string val = tok.substr(eq + 1);
    if (key == "seed") {
      p.seed = static_cast<std::uint64_t>(std::stoull(val));
    } else if (key == "ranks") {
      p.ranks = static_cast<int>(std::stoll(val));
    } else if (key == "rpn") {
      p.ranks_per_node = static_cast<int>(std::stoll(val));
    } else if (key == "seg") {
      p.segment_size = std::stoll(val);
    } else if (key == "spr") {
      p.segments_per_rank = std::stoll(val);
    } else if (key == "rounds") {
      p.rounds = static_cast<int>(std::stoll(val));
    } else if (key == "nodeagg") {
      p.node_agg = std::stoll(val) != 0;
    } else if (key == "integ") {
      p.integrity = std::stoll(val) != 0;
    } else if (key == "eiow") {
      p.fs_transient_write_rate = std::stod(val);
    } else if (key == "eior") {
      p.fs_transient_read_rate = std::stod(val);
    } else if (key == "strag") {
      const std::size_t colon = val.find(':');
      TCIO_CHECK_MSG(colon != std::string::npos, "malformed strag token");
      p.straggler_ost = static_cast<int>(std::stoll(val.substr(0, colon)));
      p.straggler_multiplier = std::stod(val.substr(colon + 1));
    } else if (key == "crash") {
      for (const std::string& e : splitList(val)) {
        CrashSchedule c;
        std::string name;
        splitArm(e, &c.rank, &name, &c.after);
        c.point = parsePoint(name);
        p.crashes.push_back(c);
      }
    } else if (key == "corrupt") {
      for (const std::string& e : splitList(val)) {
        CorruptionSchedule c;
        std::string name;
        splitArm(e, &c.rank, &name, &c.after);
        c.site = parseSite(name);
        p.corruptions.push_back(c);
      }
    } else {
      TCIO_CHECK_MSG(false, "unknown key in chaos plan string");
    }
  }
  return p;
}

ChaosPlan makeChaosPlan(const ChaosKnobs& knobs, std::uint64_t seed) {
  ChaosPlan p;
  p.seed = seed;
  p.ranks = knobs.ranks;
  p.ranks_per_node = knobs.ranks_per_node;
  p.segment_size = knobs.segment_size;
  p.segments_per_rank = knobs.segments_per_rank;
  p.rounds = knobs.rounds;
  p.integrity = knobs.integrity;
  Rng rng(seed ^ kChaosSalt);
  p.node_agg = rng.uniform() < knobs.node_agg_chance;
  if (rng.uniform() < 0.7) {
    p.fs_transient_write_rate = rng.uniform() * knobs.transient_rate_max;
  }
  if (rng.uniform() < 0.5) {
    p.fs_transient_read_rate = rng.uniform() * knobs.transient_rate_max;
  }
  if (rng.uniform() < knobs.straggler_chance) {
    p.straggler_ost = static_cast<int>(rng.uniformInt(0, 2));
    p.straggler_multiplier = knobs.straggler_multiplier;
  }
  // Crash arms at geometric inter-arrival gaps over the collective rounds
  // (flush rounds 0..rounds-1; `rounds` is the close). Victims are distinct
  // and capped below half the job so survivors always exist.
  const int max_crashes =
      std::min(knobs.max_crashes, std::max(1, knobs.ranks / 2 - 1));
  std::vector<bool> used(static_cast<std::size_t>(knobs.ranks), false);
  const auto drawGap = [&] {
    double u = rng.uniform();
    if (u > 0.999) u = 0.999;
    return 1 + static_cast<std::int64_t>(
                   std::floor(-std::log(1.0 - u) * knobs.crash_mean_gap));
  };
  std::int64_t at = drawGap() - 1;
  while (at <= knobs.rounds &&
         static_cast<int>(p.crashes.size()) < max_crashes) {
    Rank victim = static_cast<Rank>(rng.uniformInt(0, knobs.ranks - 1));
    for (int tries = 0; used[static_cast<std::size_t>(victim)] && tries < 64;
         ++tries) {
      victim = static_cast<Rank>(rng.uniformInt(0, knobs.ranks - 1));
    }
    if (used[static_cast<std::size_t>(victim)]) break;
    used[static_cast<std::size_t>(victim)] = true;
    CrashSchedule c;
    c.rank = victim;
    const double u = rng.uniform();
    if (u < 0.45) {
      c.point = CrashPoint::kAtCollective;
      c.after = at;
    } else if (u < 0.65) {
      c.point = CrashPoint::kMidRma;
      c.after = rng.uniformInt(0, std::max<std::int64_t>(0, at));
    } else if (u < 0.8) {
      c.point = CrashPoint::kMidJournal;
      c.after = rng.uniformInt(0, 1);
    } else {
      c.point = CrashPoint::kMidClose;
      c.after = rng.uniformInt(0, knobs.segments_per_rank - 1);
    }
    p.crashes.push_back(c);
    at += drawGap();
  }
  if (knobs.allow_mid_recovery && p.crashes.size() >= 2) {
    // Cascade: the LAST drawn victim dies inside recovery replay instead —
    // it only fires if that rank actually adopts segments from an earlier
    // death, which is exactly the in-flight-recovery window we want hit.
    p.crashes.back().point = CrashPoint::kMidRecovery;
    p.crashes.back().after = 0;
  }
  if (knobs.integrity) {
    const int n_corrupt =
        rng.uniform() < knobs.corruption_chance
            ? static_cast<int>(rng.uniformInt(1, knobs.max_corruptions))
            : 0;
    for (int i = 0; i < n_corrupt; ++i) {
      CorruptionSchedule c;
      // Only the sites integrity repairs before bytes reach the store: the
      // oracle demands byte parity, so unrepairable domains stay out.
      c.site = rng.uniform() < 0.5 ? CorruptSite::kStagingFrame
                                   : CorruptSite::kWindow;
      c.rank = static_cast<Rank>(rng.uniformInt(0, knobs.ranks - 1));
      c.after = rng.uniformInt(0, 2);
      p.corruptions.push_back(c);
    }
  }
  return p;
}

ChaosOutcome runChaos(const ChaosPlan& plan) {
  const Bytes region = plan.segment_size * plan.segments_per_rank;
  const Bytes total = region * plan.ranks;
  ChaosOutcome out;
  const auto fail = [&](const std::string& m) {
    if (out.ok) {
      out.ok = false;
      out.failure = m;
    }
  };

  // Shadow: the same workload and exchange config with every fault class
  // stripped. It must be perfect — it is the parity reference.
  const RunFingerprint shadow = runOnce(plan, /*faulty=*/false);
  for (int r = 0; r < plan.ranks; ++r) {
    if (shadow.outcome[static_cast<std::size_t>(r)] != 0) {
      fail("shadow run failed on rank " + std::to_string(r));
    }
  }
  if (shadow.file_size != total) fail("shadow run produced a short file");
  for (Offset off = 0; out.ok && off < total; ++off) {
    if (shadow.contents[static_cast<std::size_t>(off)] !=
        expectedByte(plan, off)) {
      fail("shadow byte mismatch at offset " + std::to_string(off));
    }
  }
  if (!out.ok) return out;

  const RunFingerprint a = runOnce(plan, /*faulty=*/true);

  // Invariant 1 — outcomes: a rank either completed cleanly or died at a
  // SCHEDULED crash; any other error on any rank is a verdict.
  std::vector<bool> dead(static_cast<std::size_t>(plan.ranks), false);
  for (int r = 0; r < plan.ranks; ++r) {
    const std::int32_t code = a.outcome[static_cast<std::size_t>(r)];
    if (code == mpi::CapturedError::kRankCrashed) {
      dead[static_cast<std::size_t>(r)] = true;
      ++out.ranks_crashed;
      const bool scheduled =
          std::any_of(plan.crashes.begin(), plan.crashes.end(),
                      [&](const CrashSchedule& c) { return c.rank == r; });
      if (!scheduled) {
        fail("rank " + std::to_string(r) + " died without a scheduled crash");
      }
    } else if (code != 0) {
      fail("rank " + std::to_string(r) +
           " failed with error code " + std::to_string(code));
    }
  }

  // Invariant 2 — byte attribution vs the shadow: survivor regions exactly;
  // crashed regions hold the written value or zero, never garbage.
  if (a.file_size > total) fail("faulty run overgrew the file");
  for (Offset off = 0; out.ok && off < total; ++off) {
    const std::byte v = off < static_cast<Offset>(a.file_size)
                            ? a.contents[static_cast<std::size_t>(off)]
                            : std::byte{0};
    const int writer = static_cast<int>(off / region);
    if (!dead[static_cast<std::size_t>(writer)]) {
      if (v != shadow.contents[static_cast<std::size_t>(off)]) {
        fail("survivor byte lost/corrupt at offset " + std::to_string(off) +
             " (writer rank " + std::to_string(writer) + ")");
      }
    } else if (v != expectedByte(plan, off) && v != std::byte{0}) {
      fail("silent corruption in crashed rank " + std::to_string(writer) +
           "'s region at offset " + std::to_string(off));
    }
  }

  // Invariant 3 — stats conservation.
  std::int64_t max_agreed = 0;
  std::int64_t unrepairable = 0;
  for (int r = 0; r < plan.ranks; ++r) {
    const core::TcioStats& s = a.per_rank_stats[static_cast<std::size_t>(r)];
    if (dead[static_cast<std::size_t>(r)]) continue;
    max_agreed = std::max(max_agreed, s.degraded.ranks_crashed);
    out.segments_taken_over += s.degraded.segments_taken_over;
    out.window_remaps += s.degraded.window_remaps;
    out.journal_records_replayed += s.degraded.journal_records_replayed;
    out.crc_mismatches += s.integrity.crc_mismatches;
    unrepairable += s.integrity.unrepairable;
    if (s.bytes_written != region) {
      fail("survivor rank " + std::to_string(r) +
           " wrote " + std::to_string(s.bytes_written) + " bytes, expected " +
           std::to_string(region));
    }
  }
  if (max_agreed > out.ranks_crashed) {
    fail("survivors agreed on more deaths than actually happened");
  }
  if (out.segments_taken_over < max_agreed * plan.segments_per_rank) {
    fail("takeover leak: " + std::to_string(max_agreed) +
         " agreed deaths but only " + std::to_string(out.segments_taken_over) +
         " segments taken over");
  }
  if (plan.integrity && unrepairable != 0) {
    fail("integrity reported unrepairable corruption under chaos");
  }

  // Invariant 4 — seed-exact determinism: the identical plan replays to the
  // identical fingerprint, outcome codes through makespan through stats.
  const RunFingerprint b = runOnce(plan, /*faulty=*/true);
  if (a.outcome != b.outcome || a.file_size != b.file_size ||
      a.contents != b.contents || a.makespan != b.makespan ||
      a.stats_flat != b.stats_flat) {
    fail("nondeterministic replay: two runs of the same plan diverged");
  }
  return out;
}

ChaosPlan minimizeChaos(const ChaosPlan& plan,
                        const std::function<bool(const ChaosPlan&)>& fails) {
  TCIO_CHECK_MSG(fails(plan), "minimizeChaos needs a failing plan");
  ChaosPlan cur = plan;
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < cur.crashes.size(); ++i) {
      ChaosPlan t = cur;
      t.crashes.erase(t.crashes.begin() + static_cast<std::ptrdiff_t>(i));
      if (fails(t)) {
        cur = std::move(t);
        changed = true;
        break;
      }
    }
    if (changed) continue;
    for (std::size_t i = 0; i < cur.corruptions.size(); ++i) {
      ChaosPlan t = cur;
      t.corruptions.erase(t.corruptions.begin() +
                          static_cast<std::ptrdiff_t>(i));
      if (fails(t)) {
        cur = std::move(t);
        changed = true;
        break;
      }
    }
    if (changed) continue;
    // Crash ordinals: bisect each surviving arm's `after` down to the
    // smallest ordinal that still fails. Arm drops run first so only
    // culprit arms get polished; a lowered ordinal can unlock further
    // drops, so any shrink re-enters the greedy loop. The loop invariant
    // keeps `hi` on a failing value, so non-monotone predicates still
    // converge to *a* failing ordinal (greedy, like the drops above).
    for (std::size_t i = 0; !changed && i < cur.crashes.size(); ++i) {
      std::int64_t lo = 0;
      std::int64_t hi = cur.crashes[i].after;
      if (hi == 0) continue;
      while (lo < hi) {
        const std::int64_t mid = lo + (hi - lo) / 2;
        ChaosPlan t = cur;
        t.crashes[i].after = mid;
        if (fails(t)) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      if (hi < cur.crashes[i].after) {
        cur.crashes[i].after = hi;
        changed = true;
      }
    }
    if (changed) continue;
    // Scalar fault classes, one deletion at a time. Dropping integrity also
    // drops the corruption arms: a window flip with no pipeline to repair it
    // is EXPECTED data loss, and minimizing into that would swap the real
    // failure for a trivial one.
    const auto tryMutation = [&](const std::function<void(ChaosPlan&)>& mut) {
      ChaosPlan t = cur;
      mut(t);
      if (fails(t)) {
        cur = std::move(t);
        changed = true;
      }
    };
    if (cur.fs_transient_write_rate > 0) {
      tryMutation([](ChaosPlan& t) { t.fs_transient_write_rate = 0; });
    }
    if (!changed && cur.fs_transient_read_rate > 0) {
      tryMutation([](ChaosPlan& t) { t.fs_transient_read_rate = 0; });
    }
    if (!changed && cur.straggler_ost >= 0) {
      tryMutation([](ChaosPlan& t) {
        t.straggler_ost = -1;
        t.straggler_multiplier = 1.0;
      });
    }
    if (!changed && cur.node_agg) {
      tryMutation([](ChaosPlan& t) { t.node_agg = false; });
    }
    if (!changed && cur.integrity) {
      tryMutation([](ChaosPlan& t) {
        t.integrity = false;
        t.corruptions.clear();
      });
    }
  }
  return cur;
}

}  // namespace tcio::chaos
