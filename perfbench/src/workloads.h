// The benchmark's workloads: seeded generators of the SessionConfigs the
// simulator runs. The program under test only ever sees these configs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/ab_test.h"
#include "harness/scenario.h"
#include "sim/time.h"

namespace perfbench {

namespace harness = xlink::harness;
namespace sim = xlink::sim;

enum class Workload {
  /// One thread. Back-to-back XLINK sessions over two clean, stable paths
  /// (Wi-Fi 30 ms + LTE 80 ms RTT), 8 Mb/s, 20 s videos, 512 KiB chunks:
  /// the per-byte layers carry the load, the scheduler has little to do.
  kHdLongClean,
  /// One thread. Short-video feed: 5 s videos under drawn conditions
  /// (20% outage-heavy, up to 1% residual loss; every binary condition
  /// factor stratified over the round), Gilbert-Elliott burst
  /// loss on every path, XLINK with re-injection + FEC, and a 1 s
  /// primary-path blackout at t = 2 s in every 4th session: transport
  /// logic (loss/CC, re-injection, FEC, failover, timers) carries the load.
  kShortFeedLossy,
  /// run_ab_day(SP, XLINK) on the default population at min(4, nproc)
  /// workers: thread pool, index-order fold_day and the shard codec.
  kAbDayParallel,
};

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload w);

/// Scripted blackout of short_feed_lossy (every 4th session).
constexpr sim::Time kBlackoutStart = sim::seconds(2);
constexpr sim::Duration kBlackoutLength = sim::seconds(1);
constexpr std::size_t kBlackoutEvery = 4;

/// Adds the scripted blackout to the path that will be primary.
void add_primary_blackout(harness::SessionConfig& cfg);

/// Everything one benchmark process runs, derived from (workload, seed).
/// A "round" is the fixed, ordered set of sessions() sessions; timed
/// passes repeat rounds, so every round does identical work.
struct Plan {
  Workload workload = Workload::kHdLongClean;
  unsigned jobs = 1;
  /// Single-thread workloads: the pre-generated configs of one round.
  std::vector<harness::SessionConfig> configs;
  /// ab_day_parallel: run_ab_day's inputs (sessions are drawn on demand,
  /// exactly as run_ab_day draws them on its workers).
  harness::PopulationConfig pop;
  std::uint64_t day_seed = 0;

  std::size_t sessions() const;
  /// Config of session i of a round (for ab_day_parallel: arm A = SP for
  /// i < N, arm B = XLINK for i >= N, both arms on the same draws).
  harness::SessionConfig config(std::size_t i) const;
  bool has_blackout(std::size_t i) const;
  /// Configs of the failover probes: on workloads without scripted
  /// blackouts, the first kFailoverProbes XLINK sessions of the round with
  /// the blackout added, run only to measure failover latency.
  std::vector<harness::SessionConfig> failover_probes() const;
};

constexpr std::size_t kFailoverProbes = 2;

/// Builds the plan; `jobs_cap` bounds ab_day_parallel's worker count.
Plan make_plan(Workload w, std::uint64_t seed, unsigned jobs_cap);

/// A short standard XLINK session (2 clean paths, 2 s video): the set-up
/// warm-up and the seam tests' session.
harness::SessionConfig warmup_config(std::uint64_t seed);

}  // namespace perfbench
