// Composed chaos harness (DESIGN.md §8.2).
//
// The fault-injection layers below (common/fault.h) are each deterministic
// on their own; what the matrix tests cannot cover is their *composition* —
// a straggling OST stretching collective skew while two ranks die in
// different rounds, a third dies inside the recovery replay of the first,
// and transient EIO noise forces retry loops under all of it. The chaos
// harness closes that gap:
//
//   * a `ChaosPlan` is one fully-specified composed schedule (crash arms,
//     corruption arms, FS fault rates, straggler, exchange mode), drawn from
//     a seeded stream by makeChaosPlan() with geometric inter-arrival gaps
//     between crash rounds — and round-trippable through a compact string
//     (ChaosPlan::str / parse) so a red seed is a one-line reproducer;
//   * runChaos() executes the plan against a fault-free SHADOW run of the
//     same workload and checks an invariant oracle: survivor regions must be
//     byte-identical to the shadow, crashed-rank regions must hold either
//     the value the workload wrote or zero (no silent corruption), stats
//     must conserve (agreed deaths never exceed real deaths, every agreed
//     death's segments are taken over, integrity never reports unrepairable
//     loss), and the whole run must reproduce bit-exactly from its seed;
//   * minimizeChaos() greedily shrinks a failing plan — dropping crash and
//     corruption arms, bisecting crash ordinals, zeroing rates, stripping
//     the straggler — to a minimal schedule that still fails, which is what
//     gets printed on a red seed.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/types.h"

namespace tcio::chaos {

/// Distribution knobs for makeChaosPlan(). The defaults keep every drawn
/// plan inside the envelope the recovery machinery guarantees to survive
/// (journaling on, transients under the retry budget), so a red seed is a
/// real bug, not a mis-tuned plan.
struct ChaosKnobs {
  int ranks = 12;
  int ranks_per_node = 4;
  Bytes segment_size = 512;
  std::int64_t segments_per_rank = 2;
  /// Write rounds; each ends in a collective flush (close is round `rounds`).
  int rounds = 5;
  /// Crash arms are drawn with geometric inter-arrival gaps of this mean (in
  /// collective rounds) until the round horizon or this cap is hit.
  int max_crashes = 4;
  double crash_mean_gap = 1.5;
  /// One drawn crash is retargeted to CrashPoint::kMidRecovery when at least
  /// two fire, so cascades land inside recovery itself.
  bool allow_mid_recovery = true;
  /// Per-request transient EIO rates are drawn uniformly from [0, max].
  double transient_rate_max = 0.12;
  /// Probability of a straggling OST (service-time multiplier, not an
  /// error). The skew it adds costs waiting time, never a death.
  double straggler_chance = 0.35;
  double straggler_multiplier = 4.0;
  /// Probability of drawing node aggregation for the exchange path.
  double node_agg_chance = 0.35;
  /// Arm the end-to-end integrity pipeline and draw silent bit-flips
  /// (staging-frame and window sites — the domains integrity repairs before
  /// any byte reaches the store).
  bool integrity = false;
  double corruption_chance = 0.6;
  int max_corruptions = 2;
};

/// One fully-specified composed fault schedule. Everything runChaos() needs
/// is in here (plus the workload shape), so plans serialize losslessly.
struct ChaosPlan {
  std::uint64_t seed = 1;
  int ranks = 12;
  int ranks_per_node = 4;
  Bytes segment_size = 512;
  std::int64_t segments_per_rank = 2;
  int rounds = 5;
  bool node_agg = false;
  bool integrity = false;
  double fs_transient_write_rate = 0.0;
  double fs_transient_read_rate = 0.0;
  int straggler_ost = -1;
  double straggler_multiplier = 1.0;
  std::vector<CrashSchedule> crashes;
  std::vector<CorruptionSchedule> corruptions;

  /// Compact one-line form, e.g.
  ///   "chaos1 seed=7 ranks=12 rpn=4 seg=512 spr=2 rounds=5 nodeagg=0
  ///    integ=1 eiow=0.05 eior=0 strag=1:4 crash=3@coll.2,5@recovery.0
  ///    corrupt=2@window.0"
  /// parse(str()) reproduces the plan exactly (rates print round-trippably).
  std::string str() const;
  static ChaosPlan parse(const std::string& s);
};

/// Draws one composed plan from `seed`. Same (knobs, seed) -> same plan.
ChaosPlan makeChaosPlan(const ChaosKnobs& knobs, std::uint64_t seed);

/// What the oracle concluded about one plan's execution.
struct ChaosOutcome {
  bool ok = true;
  /// First violated invariant, human-readable; empty when ok.
  std::string failure;
  // Observability for soak logs and conservation asserts in tests.
  int ranks_crashed = 0;               // ranks that actually died
  std::int64_t segments_taken_over = 0;  // summed over survivors
  std::int64_t window_remaps = 0;        // takeover-capacity growth rounds
  std::int64_t journal_records_replayed = 0;
  std::int64_t crc_mismatches = 0;       // integrity runs only
};

/// Runs the plan's workload three times — fault-free shadow, faulty, faulty
/// again — and checks the invariant oracle (see file comment). Never throws
/// on an oracle violation; the verdict is in the returned outcome.
ChaosOutcome runChaos(const ChaosPlan& plan);

/// Greedy schedule minimizer: repeatedly tries dropping one crash arm, one
/// corruption arm, or one scalar fault class (transient rates, straggler,
/// node aggregation, integrity+corruption) and keeps any mutation for which
/// `fails` still returns true, until no single deletion preserves the
/// failure. Surviving crash arms additionally have their `after` ordinal
/// bisected to the smallest still-failing value, so a printed red plan says
/// "the 2nd collective" rather than whatever large ordinal the draw landed
/// on. `fails(plan)` must be true on entry.
ChaosPlan minimizeChaos(const ChaosPlan& plan,
                        const std::function<bool(const ChaosPlan&)>& fails);

}  // namespace tcio::chaos
