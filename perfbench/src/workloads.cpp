#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "core/primary_path.h"
#include "sim/rng.h"
#include "trace/synthetic.h"

namespace perfbench {
namespace {

constexpr std::size_t kHdSessionsPerRound = 4;
constexpr std::size_t kFeedSessionsPerRound = 64;
constexpr int kAbSessionsPerArm = 60;

/// Per-session seed, the same derivation run_day uses for its population.
std::uint64_t session_seed(std::uint64_t seed, std::size_t i) {
  return seed * 1000003ULL + i;
}

harness::SessionConfig hd_long_clean(std::uint64_t seed, std::size_t i) {
  sim::Rng rng(session_seed(seed, i));
  harness::SessionConfig cfg;
  cfg.scheme = xlink::core::Scheme::kXlink;
  cfg.seed = rng.next_u64();
  cfg.time_limit = sim::seconds(60);
  cfg.video.duration = sim::seconds(20);
  cfg.video.bitrate_bps = 8'000'000;
  cfg.video.fps = 30;
  cfg.video.seed = rng.next_u64();
  // Default client: 512 KiB chunks, two concurrent.
  cfg.paths.push_back(harness::make_path_spec(
      xlink::net::Wireless::kWifi,
      xlink::trace::stable_lte(rng.next_u64(), sim::seconds(60)),
      sim::millis(30)));
  cfg.paths.push_back(harness::make_path_spec(
      xlink::net::Wireless::kLte,
      xlink::trace::stable_lte(rng.next_u64(), sim::seconds(60)),
      sim::millis(80)));
  return cfg;
}

/// The short-feed population: draw_session_conditions with 20%
/// outage-heavy sessions and up to 1% residual loss.
harness::PopulationConfig short_feed_population() {
  harness::PopulationConfig pop;
  pop.p_outage_heavy = 0.2;
  pop.max_loss = 0.01;
  pop.time_limit = sim::seconds(30);
  return pop;
}

/// Stratified draws: each binary condition factor of the population (a
/// probability p) is given to exactly round(p * n) of the n sessions of a
/// round, on slots a seeded shuffle picks; the session then draws with that
/// factor's probability set to 1 or 0. The marginals are exactly the
/// population's, so the seed moves which sessions get a factor but not how
/// many, which keeps a round's cost and QoE steady across seeds.
std::vector<harness::PopulationConfig> stratified(
    const harness::PopulationConfig& pop, std::size_t n, std::uint64_t seed) {
  std::vector<harness::PopulationConfig> out(n, pop);
  sim::Rng rng(seed ^ 0x5deece66dULL);
  const auto assign = [&](double harness::PopulationConfig::*factor) {
    std::vector<std::size_t> slots(n);
    for (std::size_t k = 0; k < n; ++k) slots[k] = k;
    for (std::size_t k = n; k > 1; --k)
      std::swap(slots[k - 1], slots[rng.uniform(k)]);
    const auto hits =
        static_cast<std::size_t>(std::lround(pop.*factor * static_cast<double>(n)));
    for (std::size_t k = 0; k < n; ++k)
      out[slots[k]].*factor = k < hits ? 1.0 : 0.0;
  };
  assign(&harness::PopulationConfig::p_outage_heavy);
  assign(&harness::PopulationConfig::p_walking_wifi);
  assign(&harness::PopulationConfig::p_5g);
  assign(&harness::PopulationConfig::p_fading_cellular);
  assign(&harness::PopulationConfig::p_cross_isp);
  return out;
}

harness::SessionConfig short_feed_lossy(const harness::PopulationConfig& pop,
                                        std::uint64_t seed, std::size_t i) {
  harness::SessionConfig cfg =
      harness::draw_session_conditions(pop, session_seed(seed, i));
  cfg.scheme = xlink::core::Scheme::kXlink;
  cfg.options.xlink_redundancy = xlink::core::XlinkRedundancy::kReinjectPlusFec;
  cfg.video.duration = sim::seconds(5);
  // Burst loss on every path (the FEC ablation's Gilbert-Elliott regime).
  xlink::net::PathSpec::GeLoss ge;
  ge.p_good_to_bad = 0.006;
  ge.p_bad_to_good = 0.35;
  ge.loss_good = 0.0;
  ge.loss_bad = 0.45;
  for (auto& p : cfg.paths) p.ge_loss = ge;
  if (i % kBlackoutEvery == kBlackoutEvery - 1) add_primary_blackout(cfg);
  return cfg;
}

}  // namespace

void add_primary_blackout(harness::SessionConfig& cfg) {
  // The primary path is the one wireless-aware ranking puts first.
  std::vector<xlink::net::Wireless> techs;
  for (const auto& p : cfg.paths) techs.push_back(p.tech);
  cfg.paths[xlink::core::select_primary_path(techs)].fault_plan.blackout(
      kBlackoutStart, kBlackoutLength);
}

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::kHdLongClean, Workload::kShortFeedLossy,
                     Workload::kAbDayParallel}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kHdLongClean: return "hd_long_clean";
    case Workload::kShortFeedLossy: return "short_feed_lossy";
    case Workload::kAbDayParallel: return "ab_day_parallel";
  }
  return "?";
}

std::size_t Plan::sessions() const {
  if (workload == Workload::kAbDayParallel)
    return 2 * static_cast<std::size_t>(pop.sessions_per_day);
  return configs.size();
}

harness::SessionConfig Plan::config(std::size_t i) const {
  if (workload != Workload::kAbDayParallel) return configs.at(i);
  // Mirrors run_ab_day: indices [0, N) are arm A, [N, 2N) arm B, both
  // drawn from session seed day_seed * 1000003 + (i mod N).
  const auto n = static_cast<std::size_t>(pop.sessions_per_day);
  const bool is_b = i >= n;
  harness::SessionConfig cfg =
      harness::draw_session_conditions(pop, session_seed(day_seed, i % n));
  cfg.scheme = is_b ? xlink::core::Scheme::kXlink
                    : xlink::core::Scheme::kSinglePath;
  cfg.options = {};
  return cfg;
}

bool Plan::has_blackout(std::size_t i) const {
  return workload == Workload::kShortFeedLossy &&
         i % kBlackoutEvery == kBlackoutEvery - 1;
}

std::vector<harness::SessionConfig> Plan::failover_probes() const {
  std::vector<harness::SessionConfig> probes;
  if (workload == Workload::kShortFeedLossy) return probes;
  for (std::size_t i = 0; i < sessions() && probes.size() < kFailoverProbes;
       ++i) {
    harness::SessionConfig cfg = config(i);
    if (cfg.scheme != xlink::core::Scheme::kXlink) continue;
    add_primary_blackout(cfg);
    probes.push_back(std::move(cfg));
  }
  return probes;
}

Plan make_plan(Workload w, std::uint64_t seed, unsigned jobs_cap) {
  Plan plan;
  plan.workload = w;
  switch (w) {
    case Workload::kHdLongClean:
      for (std::size_t i = 0; i < kHdSessionsPerRound; ++i)
        plan.configs.push_back(hd_long_clean(seed, i));
      break;
    case Workload::kShortFeedLossy: {
      const auto pops =
          stratified(short_feed_population(), kFeedSessionsPerRound, seed);
      for (std::size_t i = 0; i < kFeedSessionsPerRound; ++i)
        plan.configs.push_back(short_feed_lossy(pops[i], seed, i));
      break;
    }
    case Workload::kAbDayParallel: {
      const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
      plan.jobs = std::max(1u, std::min({4u, hw, jobs_cap}));
      plan.pop.sessions_per_day = kAbSessionsPerArm;
      plan.day_seed = seed;
      break;
    }
  }
  return plan;
}

harness::SessionConfig warmup_config(std::uint64_t seed) {
  harness::SessionConfig cfg = hd_long_clean(seed, 0);
  cfg.video.duration = sim::seconds(2);
  cfg.video.bitrate_bps = 2'000'000;
  cfg.client.chunk_bytes = 128 * 1024;
  return cfg;
}

}  // namespace perfbench
