// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One process runs one workload (see workloads.h) closed-loop: each session
// starts when the previous one on its worker finishes. Per process:
//
//   1. set-up, five times (setup_s is the median): generate the round's
//      inputs from the seed and run a short warm-up session;
//   2. an untimed check pass over one round with content verification on:
//      output checks, reference digests, QoE, exact per-session counters
//      and the failover latencies of the blackout sessions (on workloads
//      without scripted blackouts, of two probe sessions given one);
//   3. timed rounds for --seconds. --trace 0: untraced rounds only, and the
//      end-to-end metrics are printed. --trace 1: untraced and traced
//      rounds alternate (the ratio is the tracing overhead), the layer
//      drivers run, and the per-layer metrics and the ledger are printed.
//
// Every session of every pass must reproduce the check pass's digest. The
// last stdout line is one JSON object: correct, attempted, failed, metrics.
// Exit code 1 when any output check failed, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "digest.h"
#include "drivers.h"
#include "harness/parallel.h"
#include "harness/shard.h"
#include "ledger.h"
#include "net/packet_buffer.h"
#include "seams.h"
#include "telemetry/event.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace shard = xlink::harness::shard;
using xlink::net::PacketBufferPool;

constexpr int kSetupRepeats = 5;
constexpr int kMinRounds = 2;  // per kind of timed round

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// --------------------------------------------------------------- outputs

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"sessions_per_s", "1/s"},
    {"session_wall_p50_ms", "ms"},
    {"session_wall_tail_ms", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"chunk_rct_p50_s", "s"},
    {"first_frame_p50_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    // Sim-time QoE whose spread across seeds is too wide to gate (see
    // README.md): exact per seed, reported beside the layers.
    {"rebuffer_rate_pct", "%"},
    {"chunk_rct_p99_s", "s"},
    {"redundancy_pct", "%"},
    {"http.server.self_pct", "%"},
    {"http.server.ns_per_content_byte", "ns"},
    {"http.client.self_pct", "%"},
    {"video.content.ns_per_byte", "ns"},
    {"video.content.est_pct", "%"},
    {"quic.rx_server.self_pct", "%"},
    {"quic.rx_client.self_pct", "%"},
    {"quic.rx_server.ns_per_dgram", "ns"},
    {"quic.rx_client.ns_per_dgram", "ns"},
    {"quic.packets_per_session", "count"},
    {"quic.acks_per_session", "count"},
    {"quic.ptos_per_session", "count"},
    {"quic.lost_per_session", "count"},
    {"quic.retx_kb_per_session", "KB"},
    {"quic.crypto.seal_ns_1200", "ns"},
    {"quic.crypto.open_ns_1200", "ns"},
    {"quic.crypto.seal_ns_min", "ns"},
    {"quic.crypto.est_pct", "%"},
    {"quic.codec.build_ns_1200", "ns"},
    {"quic.codec.parse_ns_1200", "ns"},
    {"quic.codec.parse_ns_ack", "ns"},
    {"quic.codec.est_pct", "%"},
    {"sched.self_pct", "%"},
    {"sched.ns_per_call", "ns"},
    {"sched.calls_per_pkt", "1/pkt"},
    {"sched.select_none_pct", "%"},
    {"sched.reinject_pct", "%"},
    {"fec.repair_per_session", "count"},
    {"fec.recovered_per_session", "count"},
    {"fec.useful_pct", "%"},
    {"fec.encode_decode_ns_per_pkt", "ns"},
    {"path.failovers_per_session", "count"},
    {"path.probes_per_session", "count"},
    {"path.detect_p50_s", "s"},
    {"path.resume_p50_s", "s"},
    {"sim.loop.self_pct", "%"},
    {"sim.events_per_session", "count"},
    {"sim.event_ns", "ns"},
    {"net.tx.self_pct", "%"},
    {"net.queue_drops_per_session", "count"},
    {"net.peak_queue_kb_p50", "KB"},
    {"net.pool.acquires_per_pkt", "1/pkt"},
    {"net.pool.slab_allocs_per_session", "count"},
    {"harness.session_ctor_ms", "ms"},
    {"harness.pool_idle_pct", "%"},
    {"harness.fold_ms", "ms"},
    {"harness.shard_codec_ms", "ms"},
    {"bench.span_overhead_pct", "%"},
};

// ------------------------------------------------------------ bookkeeping

/// Exact per-session work counters, read in the check pass. add() sums
/// all but peak_queue_bytes, whose per-session median is reported.
struct Counters {
  std::uint64_t server_sent = 0, client_sent = 0;
  std::uint64_t server_recv = 0, client_recv = 0;
  std::uint64_t acks = 0, ptos = 0, lost = 0, retx_bytes = 0;
  std::uint64_t content_bytes = 0;
  std::uint64_t fec_repair = 0, fec_recovered = 0;
  std::uint64_t failovers = 0, probes = 0;
  std::uint64_t events = 0, queue_drops = 0, peak_queue_bytes = 0;
  std::uint64_t pool_acquires = 0, pool_slab_allocs = 0;

  void add(const Counters& o) {
    server_sent += o.server_sent;
    client_sent += o.client_sent;
    server_recv += o.server_recv;
    client_recv += o.client_recv;
    acks += o.acks;
    ptos += o.ptos;
    lost += o.lost;
    retx_bytes += o.retx_bytes;
    content_bytes += o.content_bytes;
    fec_repair += o.fec_repair;
    fec_recovered += o.fec_recovered;
    failovers += o.failovers;
    probes += o.probes;
    events += o.events;
    queue_drops += o.queue_drops;
    pool_acquires += o.pool_acquires;
    pool_slab_allocs += o.pool_slab_allocs;
  }
};

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void session(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  void fail(const std::string& what) {
    ++failed;
    if (problems.size() < 20) problems.push_back(what);
  }
};

/// Timing of one session of a timed round.
struct SessionTiming {
  double wall_ms = 0;  // as the worker sees it: ctor + run + teardown
  double ctor_ms = 0;
  double run_ms = 0;   // the ledger's base (traced rounds)
};

struct Round {
  double wall_s = 0;  // every session + fold_day
  double fold_ms = 0;
  double codec_ms = 0;
  std::vector<SessionTiming> sessions;
  SessionProbe probe;  // merged over the round (traced rounds)
};

struct CheckPass {
  std::vector<std::uint64_t> digests;
  std::vector<Counters> counters;
  std::vector<double> detect_s, resume_s;
  std::string cell;  // reference shard text of a round's fold
  xlink::harness::DayMetrics qoe;  // XLINK arm on ab_day_parallel
};

shard::CellResult fold(const Plan& plan,
                       const std::vector<harness::SessionResult>& results) {
  shard::CellResult cell;
  if (plan.workload == Workload::kAbDayParallel) {
    const std::size_t n = results.size() / 2;
    cell.arm_a = xlink::harness::fold_day({results.begin(), results.begin() + n});
    cell.arm_b = xlink::harness::fold_day({results.begin() + n, results.end()});
  } else {
    cell.arm_a = xlink::harness::fold_day(results);
  }
  return cell;
}

/// Shard-codec round trip: write, parse, write again; the two texts must
/// be byte-equal. Returns the elapsed milliseconds.
double codec_round_trip(const shard::CellResult& cell, Checks& checks) {
  const std::int64_t t0 = now_ns();
  const std::string first = cell_text(cell);
  const shard::CellResult parsed = shard::parse_cell_result(first);
  const std::string second = cell_text(parsed);
  const std::int64_t t1 = now_ns();
  if (first != second) checks.fail("shard codec round trip is not byte-equal");
  return ms(t1 - t0);
}

// ---------------------------------------------------------------- benchmark

class Bench {
 public:
  Bench(Workload w, std::uint64_t seed, double seconds, bool trace)
      : workload_(w), seed_(seed), seconds_(seconds), trace_(trace) {}

  int run();

 private:
  void setup();
  void check_pass();
  Round round(bool traced);
  Round single_thread_round(bool traced);
  Round parallel_round(bool traced);
  void end_to_end_metrics(const std::vector<Round>& rounds);
  void per_layer_metrics(const std::vector<Round>& plain,
                         const std::vector<Round>& traced);
  void qoe_metrics();
  void print_ledger(const Ledger& ledger, double base_ns);
  void set(const char* name, double value) { metrics_[name] = value; }
  int report(bool per_layer);

  Workload workload_;
  std::uint64_t seed_;
  double seconds_;
  bool trace_;
  Plan plan_;
  double setup_s_ = 0;
  CheckPass check_;
  Checks checks_;
  std::map<std::string, double> metrics_;
  std::uint64_t round_id_ = 0;  // identifies a parallel round to workers
};

void Bench::setup() {
  std::vector<double> times;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const std::int64_t t0 = now_ns();
    plan_ = make_plan(workload_, seed_, 4);
    // Warm-up: one short standard session, result discarded. Its size does
    // not depend on the seed, so neither does setup_s. (Worker threads are
    // created per round, so there is no pool to warm.)
    harness::Session(warmup_config(seed_)).run();
    times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  setup_s_ = median(times);
}

/// Reads the path-health trace of a scripted-blackout session the way
/// bench_perf's failover_recovery does, for path 0 (the primary, which the
/// blackout hits): the first endpoint to declare it dead (kProbing) at or
/// after the blackout start, and when that endpoint next sees it kGood.
/// Sessions whose download ends before the blackout never fail over.
void failover_latency(harness::Session& s, CheckPass& out) {
  namespace tel = xlink::telemetry;
  std::optional<xlink::sim::Time> failover_at, resurrect_at;
  tel::Origin origin = tel::Origin::kServer;
  const auto events = s.trace_sink()->snapshot();
  for (const auto& e : events) {
    if (e.type != tel::EventType::kPathHealth || e.path != 0) continue;
    if (e.a == 2 && e.t >= kBlackoutStart) {
      failover_at = e.t;
      origin = e.origin;
      break;
    }
  }
  if (!failover_at) return;
  for (const auto& e : events) {
    if (e.type == tel::EventType::kPathHealth && e.path == 0 &&
        e.origin == origin && e.a == 0 && e.t > *failover_at) {
      resurrect_at = e.t;
      break;
    }
  }
  if (!resurrect_at) return;
  out.detect_s.push_back(xlink::sim::to_seconds(*failover_at - kBlackoutStart));
  out.resume_s.push_back(xlink::sim::to_seconds(
      *resurrect_at - (kBlackoutStart + kBlackoutLength)));
}

Counters read_counters(harness::Session& s) {
  Counters c;
  const auto& sv = s.server_conn().stats();
  const auto& cl = s.client_conn().stats();
  c.server_sent = sv.packets_sent;
  c.client_sent = cl.packets_sent;
  c.server_recv = sv.packets_received;
  c.client_recv = cl.packets_received;
  c.acks = sv.acks_sent + cl.acks_sent;
  c.ptos = sv.ptos + cl.ptos;
  c.lost = sv.packets_lost + cl.packets_lost;
  c.retx_bytes = sv.retransmitted_bytes + cl.retransmitted_bytes;
  c.content_bytes = sv.stream_bytes_sent;
  c.fec_repair = sv.fec_repair_packets_sent;
  c.fec_recovered = cl.fec_recovered_packets;
  c.failovers = sv.failovers + cl.failovers;
  c.probes = sv.dead_path_probes + cl.dead_path_probes;
  c.events = s.loop().events_fired();
  for (std::size_t i = 0; i < s.network().path_count(); ++i) {
    const auto& p = s.network().path(i);
    c.queue_drops += p.up_stats().packets_dropped_queue +
                     p.down_stats().packets_dropped_queue;
    c.peak_queue_bytes =
        std::max(c.peak_queue_bytes, p.down_stats().peak_queued_bytes);
  }
  return c;
}

/// The check pass runs one round serially on this thread, with the
/// client verifying every content byte and a trace sink on the blackout
/// sessions. It fixes the reference digests the timed passes must match.
void Bench::check_pass() {
  const std::size_t n = plan_.sessions();
  std::vector<harness::SessionResult> results(n);
  check_.digests.resize(n);
  check_.counters.resize(n);
  PacketBufferPool& pool = PacketBufferPool::local();
  for (std::size_t i = 0; i < n; ++i) {
    harness::SessionConfig cfg = plan_.config(i);
    cfg.client.verify_content = true;
    cfg.trace.enabled = plan_.has_blackout(i);
    const PacketBufferPool::Counters before = pool.counters();
    auto session = std::make_unique<harness::Session>(std::move(cfg));
    results[i] = session->run();
    Counters c = read_counters(*session);
    const auto& sv = session->server_conn();
    const auto& cl = session->client_conn();
    std::string bad;
    if (session->media_client().content_mismatches() != 0)
      bad += " content-mismatch";
    if (sv.stats().auth_failures + cl.stats().auth_failures != 0)
      bad += " auth-failure";
    if (sv.guard_counters().violations + cl.guard_counters().violations != 0)
      bad += " guard-violation";
    if (plan_.has_blackout(i)) failover_latency(*session, check_);
    session.reset();
    const PacketBufferPool::Counters after = pool.counters();
    c.pool_acquires = after.acquires - before.acquires;
    c.pool_slab_allocs = after.slab_allocs - before.slab_allocs;
    if (after.outstanding() != 0) bad += " pool-unbalanced";
    check_.counters[i] = c;
    check_.digests[i] = digest(results[i]);
    checks_.session(bad.empty(), "check pass session " + std::to_string(i) +
                                     ":" + bad);
  }
  for (harness::SessionConfig cfg : plan_.failover_probes()) {
    cfg.trace.enabled = true;
    harness::Session session(std::move(cfg));
    session.run();
    failover_latency(session, check_);
  }

  const shard::CellResult cell = fold(plan_, results);
  check_.qoe = workload_ == Workload::kAbDayParallel ? cell.arm_b : cell.arm_a;

  // A trace sink adds its own event counters to a session's telemetry
  // registry, so with blackout sessions traced here the reference fold is
  // taken from the first timed round instead.
  if (workload_ == Workload::kAbDayParallel) {
    check_.cell = cell_text(cell);
    // The public entry point must agree with the serial replay (jobs 1
    // here vs plan_.jobs there).
    const auto day = xlink::harness::run_ab_day(
        xlink::core::Scheme::kSinglePath, {}, xlink::core::Scheme::kXlink, {},
        plan_.pop, plan_.day_seed, plan_.jobs);
    shard::CellResult ab;
    ab.arm_a = day.arm_a;
    ab.arm_b = day.arm_b;
    if (cell_text(ab) != check_.cell)
      checks_.fail("run_ab_day differs from the serial replay of its sessions");
  }
}

Round Bench::round(bool traced) {
  return workload_ == Workload::kAbDayParallel ? parallel_round(traced)
                                               : single_thread_round(traced);
}

Round Bench::single_thread_round(bool traced) {
  const std::size_t n = plan_.sessions();
  Round r;
  r.sessions.resize(n);
  std::vector<harness::SessionResult> results(n);
  PacketBufferPool& pool = PacketBufferPool::local();
  const std::int64_t round_start = now_ns();
  std::int64_t excluded = 0;  // seam installation and config copies
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t c0 = now_ns();
    harness::SessionConfig cfg = plan_.configs[i];
    SessionProbe probe;
    if (traced) wrap_server_scheduler(cfg, probe);
    const std::int64_t t0 = now_ns();
    auto session = std::make_unique<harness::Session>(std::move(cfg));
    const std::int64_t t1 = now_ns();
    if (traced) install_seams(*session, probe);
    const std::int64_t t2 = now_ns();
    results[i] = session->run();
    const std::int64_t t3 = now_ns();
    session.reset();
    const std::int64_t t4 = now_ns();
    excluded += (t0 - c0) + (t2 - t1);
    SessionTiming& st = r.sessions[i];
    st.ctor_ms = ms(t1 - t0);
    st.run_ms = ms(t3 - t2);
    st.wall_ms = ms((t4 - t0) - (t2 - t1));
    const bool ok = digest(results[i]) == check_.digests[i] &&
                    pool.counters().outstanding() == 0 &&
                    probe.ledger.depth() == 0 &&
                    probe.ledger.overflows() == 0;
    checks_.session(ok, std::string(traced ? "traced" : "timed") +
                            " session " + std::to_string(i) +
                            ": digest, pool or span balance differs");
    if (traced) r.probe.merge(probe);
  }
  const std::int64_t f0 = now_ns();
  const shard::CellResult cell = fold(plan_, results);
  const std::int64_t f1 = now_ns();
  r.fold_ms = ms(f1 - f0);
  r.wall_s = static_cast<double>(f1 - round_start - excluded) / 1e9;
  const std::string text = cell_text(cell);
  if (check_.cell.empty()) check_.cell = text;
  if (text != check_.cell)
    checks_.fail("fold_day differs between timed rounds");
  r.codec_ms = codec_round_trip(cell, checks_);
  return r;
}

/// Where a worker thread's previous session of the current round lives,
/// so the next one can check that session released every pooled buffer.
struct ThreadSlot {
  std::uint64_t round = 0;
  std::size_t index = 0;
};
thread_local ThreadSlot tl_slot;

/// Stamps the time it is destroyed: hung on a callback the session owns,
/// it marks the session's teardown without altering anything it runs.
class EndStamp {
 public:
  explicit EndStamp(std::int64_t* out) : out_(out) {}
  ~EndStamp() { *out_ = now_ns(); }
  EndStamp(const EndStamp&) = delete;
  EndStamp& operator=(const EndStamp&) = delete;

 private:
  std::int64_t* out_;
};

Round Bench::parallel_round(bool traced) {
  const std::size_t n = plan_.sessions();
  struct Slot {
    std::int64_t start = 0, ctor_start = 0, ctor_end = 0, run_start = 0,
                 end = 0;
    bool pool_ok = true;
    SessionProbe probe;
  };
  std::vector<Slot> slots(n);
  const std::uint64_t id = ++round_id_;
  const auto make_config = [&](std::size_t i) {
    const std::int64_t start = now_ns();
    if (tl_slot.round == id &&
        PacketBufferPool::local().counters().outstanding() != 0)
      slots[tl_slot.index].pool_ok = false;
    tl_slot = ThreadSlot{id, i};
    Slot& s = slots[i];
    s.start = start;
    harness::SessionConfig cfg = plan_.config(i);
    if (traced) wrap_server_scheduler(cfg, s.probe);
    s.ctor_start = now_ns();
    return cfg;
  };
  const auto setup = [&](std::size_t i, harness::Session& session) {
    Slot& s = slots[i];
    s.ctor_end = now_ns();
    if (traced) install_seams(session, s.probe);
    auto stamp = std::make_shared<EndStamp>(&s.end);
    auto& established = session.client_conn().on_established;
    established = [inner = std::move(established), stamp] { inner(); };
    s.run_start = now_ns();
  };
  const std::int64_t t0 = now_ns();
  const auto results = xlink::harness::run_sessions_parallel(
      n, make_config, setup, plan_.jobs);
  const std::int64_t f0 = now_ns();
  const shard::CellResult cell = fold(plan_, results);
  const std::int64_t f1 = now_ns();
  if (tl_slot.round == id &&
      PacketBufferPool::local().counters().outstanding() != 0)
    slots[tl_slot.index].pool_ok = false;

  Round r;
  r.fold_ms = ms(f1 - f0);
  r.wall_s = static_cast<double>(f1 - t0) / 1e9;
  r.sessions.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Slot& s = slots[i];
    SessionTiming& st = r.sessions[i];
    st.ctor_ms = ms(s.ctor_end - s.ctor_start);
    st.run_ms = ms(s.end - s.run_start);
    st.wall_ms = ms((s.end - s.start) - (s.run_start - s.ctor_end));
    const bool ok = s.end != 0 && digest(results[i]) == check_.digests[i] &&
                    s.pool_ok && s.probe.ledger.depth() == 0 &&
                    s.probe.ledger.overflows() == 0;
    checks_.session(ok, std::string(traced ? "traced" : "timed") +
                            " session " + std::to_string(i) +
                            ": digest, pool or span balance differs");
    if (traced) r.probe.merge(s.probe);
  }
  if (cell_text(cell) != check_.cell)
    checks_.fail("fold_day at jobs " + std::to_string(plan_.jobs) +
                 " differs from the serial check pass");
  r.codec_ms = codec_round_trip(cell, checks_);
  return r;
}

std::vector<double> session_walls(const std::vector<Round>& rounds) {
  std::vector<double> walls;
  for (const Round& r : rounds)
    for (const SessionTiming& s : r.sessions) walls.push_back(s.wall_ms);
  return walls;
}

template <typename F>
double median_over(const std::vector<Round>& rounds, F&& f) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(f(r));
  return median(std::move(v));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Bench::end_to_end_metrics(const std::vector<Round>& rounds) {
  const double per_round = static_cast<double>(plan_.sessions());
  set("sessions_per_s",
      median_over(rounds, [&](const Round& r) { return per_round / r.wall_s; }));
  const std::vector<double> walls = session_walls(rounds);
  const int tail = tail_percentile(walls.size());
  set("session_wall_p50_ms", median(walls));
  set("session_wall_tail_ms", quantile(walls, tail / 100.0));
  std::printf("session_wall_tail_ms is p%d of n=%zu session walls\n", tail,
              walls.size());
  set("setup_s", setup_s_);
  set("peak_rss_mb", peak_rss_mb());
}

double pct(double part, double whole) {
  return whole > 0 ? 100.0 * part / whole : 0.0;
}

void Bench::per_layer_metrics(const std::vector<Round>& plain,
                              const std::vector<Round>& traced) {
  Ledger ledger;
  SchedCounters sched;
  double base_ns = 0;  // traced run() wall, all traced rounds
  for (const Round& r : traced) {
    ledger.merge(r.probe.ledger);
    sched.merge(r.probe.sched);
    for (const SessionTiming& s : r.sessions) base_ns += s.run_ms * 1e6;
  }
  const double rounds = static_cast<double>(traced.size());
  const double per_round_ns = base_ns / rounds;
  Counters c;
  for (const Counters& s : check_.counters) c.add(s);
  const double n = static_cast<double>(plan_.sessions());
  const auto per_session = [&](std::uint64_t v) {
    return static_cast<double>(v) / n;
  };
  const auto self_pct = [&](Layer l) {
    return pct(static_cast<double>(ledger.layer(l).self_ns()), base_ns);
  };
  const auto per_call = [&](Layer l, double ns) {
    const auto calls = ledger.layer(l).calls;
    return calls ? ns / static_cast<double>(calls) : 0.0;
  };

  set("http.server.self_pct", self_pct(Layer::kHttpServer));
  set("http.server.ns_per_content_byte",
      c.content_bytes
          ? static_cast<double>(ledger.layer(Layer::kHttpServer).self_ns()) /
                (rounds * static_cast<double>(c.content_bytes))
          : 0.0);
  set("http.client.self_pct", self_pct(Layer::kHttpClient));
  set("quic.rx_server.self_pct", self_pct(Layer::kRxServer));
  set("quic.rx_client.self_pct", self_pct(Layer::kRxClient));
  set("quic.rx_server.ns_per_dgram",
      per_call(Layer::kRxServer,
               static_cast<double>(ledger.layer(Layer::kRxServer).self_ns())));
  set("quic.rx_client.ns_per_dgram",
      per_call(Layer::kRxClient,
               static_cast<double>(ledger.layer(Layer::kRxClient).self_ns())));
  set("sched.self_pct", self_pct(Layer::kSched));
  set("sched.ns_per_call",
      per_call(Layer::kSched,
               static_cast<double>(ledger.layer(Layer::kSched).total_ns)));
  set("sched.calls_per_pkt",
      c.server_sent ? static_cast<double>(sched.calls()) /
                          (rounds * static_cast<double>(c.server_sent))
                    : 0.0);
  set("sched.select_none_pct",
      pct(static_cast<double>(sched.select_none),
          static_cast<double>(sched.select_calls)));
  set("sched.reinject_pct",
      pct(static_cast<double>(sched.reinject_queued),
          static_cast<double>(sched.reinject_calls)));
  set("net.tx.self_pct", self_pct(Layer::kNetTx));
  const double loop_ns = base_ns - static_cast<double>(ledger.top_level_ns());
  set("sim.loop.self_pct", pct(loop_ns, base_ns));

  set("quic.packets_per_session", per_session(c.server_sent + c.client_sent));
  set("quic.acks_per_session", per_session(c.acks));
  set("quic.ptos_per_session", per_session(c.ptos));
  set("quic.lost_per_session", per_session(c.lost));
  set("quic.retx_kb_per_session", per_session(c.retx_bytes) / 1024.0);
  set("fec.repair_per_session", per_session(c.fec_repair));
  set("fec.recovered_per_session", per_session(c.fec_recovered));
  set("fec.useful_pct", pct(static_cast<double>(c.fec_recovered),
                            static_cast<double>(c.fec_repair)));
  set("path.failovers_per_session", per_session(c.failovers));
  set("path.probes_per_session", per_session(c.probes));
  set("path.detect_p50_s", median(check_.detect_s));
  set("path.resume_p50_s", median(check_.resume_s));
  std::printf("path.detect/resume from %zu blackout sessions that failed "
              "over\n", check_.detect_s.size());
  set("sim.events_per_session", per_session(c.events));
  set("net.queue_drops_per_session", per_session(c.queue_drops));
  std::vector<double> peaks;
  for (const Counters& s : check_.counters)
    peaks.push_back(static_cast<double>(s.peak_queue_bytes) / 1024.0);
  set("net.peak_queue_kb_p50", median(peaks));
  const std::uint64_t packets = c.server_sent + c.client_sent;
  set("net.pool.acquires_per_pkt",
      packets ? static_cast<double>(c.pool_acquires) /
                    static_cast<double>(packets)
              : 0.0);
  set("net.pool.slab_allocs_per_session", per_session(c.pool_slab_allocs));

  std::vector<double> ctor;
  for (const Round& r : plain)
    for (const SessionTiming& s : r.sessions) ctor.push_back(s.ctor_ms);
  set("harness.session_ctor_ms", median(ctor));
  set("harness.pool_idle_pct", median_over(plain, [&](const Round& r) {
        double busy_ms = 0;
        for (const SessionTiming& s : r.sessions) busy_ms += s.wall_ms;
        return 100.0 * (1.0 - busy_ms / (plan_.jobs * r.wall_s * 1e3));
      }));
  set("harness.fold_ms", median_over(plain, [](const Round& r) {
        return r.fold_ms;
      }));
  set("harness.shard_codec_ms", median_over(plain, [](const Round& r) {
        return r.codec_ms;
      }));
  const double plain_wall =
      median_over(plain, [](const Round& r) { return r.wall_s; });
  const double traced_wall =
      median_over(traced, [](const Round& r) { return r.wall_s; });
  set("bench.span_overhead_pct", 100.0 * (traced_wall / plain_wall - 1.0));

  // Layer drivers, scaled by the exact per-round operation counts.
  const DriverTimes d = run_drivers(seed_);
  if (!d.ok) checks_.fail("a layer driver returned a wrong result");
  set("quic.crypto.seal_ns_1200", d.seal_ns_1200);
  set("quic.crypto.open_ns_1200", d.open_ns_1200);
  set("quic.crypto.seal_ns_min", d.seal_ns_min);
  set("quic.codec.build_ns_1200", d.build_ns_1200);
  set("quic.codec.parse_ns_1200", d.parse_ns_1200);
  set("quic.codec.parse_ns_ack", d.parse_ns_ack);
  set("video.content.ns_per_byte", d.content_ns_per_byte);
  set("fec.encode_decode_ns_per_pkt", d.fec_ns_per_pkt);
  set("sim.event_ns", d.event_ns);
  const auto f = [](std::uint64_t v) { return static_cast<double>(v); };
  // Bulk packets: the server sends and the client receives data packets,
  // the client sends and the server receives ack-only packets.
  const double open_ns = f(c.client_recv) * d.open_ns_1200 +
                         f(c.server_recv) * d.open_ns_min;
  const double seal_ns = f(c.server_sent) * d.seal_ns_1200 +
                         f(c.client_sent) * d.seal_ns_min;
  const double parse_ns = f(c.client_recv) * d.parse_ns_1200 +
                          f(c.server_recv) * d.parse_ns_ack;
  const double build_ns = f(c.server_sent) * d.build_ns_1200 +
                          f(c.client_sent) * d.build_ns_ack;
  const double content_ns = f(c.content_bytes) * d.content_ns_per_byte;
  const double crypto_pct = pct(open_ns + seal_ns, per_round_ns);
  const double codec_pct = pct(parse_ns + build_ns, per_round_ns);
  const double content_pct = pct(content_ns, per_round_ns);
  set("quic.crypto.est_pct", crypto_pct);
  set("quic.codec.est_pct", codec_pct);
  set("video.content.est_pct", content_pct);

  print_ledger(ledger, base_ns);
  // Reconciliation: each driver estimate must fit inside the spans that
  // contain its calls. Content synthesis runs in http.server; opening and
  // parsing in quic.rx_*; nothing the drivers time runs in sched or net.tx.
  const auto incl_pct = [&](Layer l) {
    return pct(static_cast<double>(ledger.layer(l).total_ns), base_ns);
  };
  const auto warn_if = [](bool over, const char* name, double est,
                          double room) {
    if (over)
      std::printf("ledger-warning: %s estimate %.2f%% exceeds its spans' "
                  "%.2f%%\n", name, est, room);
  };
  const double rx_room = incl_pct(Layer::kRxServer) + incl_pct(Layer::kRxClient);
  warn_if(content_pct > incl_pct(Layer::kHttpServer), "video.content.est_pct",
          content_pct, incl_pct(Layer::kHttpServer));
  const double rx_est = pct(open_ns + parse_ns, per_round_ns);
  warn_if(rx_est > rx_room, "quic.rx (open+parse) est", rx_est, rx_room);
  const double outside = self_pct(Layer::kSched) + self_pct(Layer::kNetTx);
  const double all_est = crypto_pct + codec_pct + content_pct;
  warn_if(all_est > 100.0 - outside, "crypto+codec+content est", all_est,
          100.0 - outside);
}

void Bench::print_ledger(const Ledger& ledger, double base_ns) {
  std::printf("ledger (share of traced Session::run() wall, %s):\n",
              workload_name(workload_));
  std::printf("  %-18s %9s %9s %12s\n", "layer", "self%", "incl%", "calls");
  double sum = 0;
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const auto l = static_cast<Layer>(i);
    const LayerTotals& t = ledger.layer(l);
    const double self = pct(static_cast<double>(t.self_ns()), base_ns);
    sum += self;
    std::printf("  %-18s %9.3f %9.3f %12llu\n", layer_name(l), self,
                pct(static_cast<double>(t.total_ns), base_ns),
                static_cast<unsigned long long>(t.calls));
  }
  const double loop = metrics_["sim.loop.self_pct"];
  sum += loop;
  std::printf("  %-18s %9.3f\n  %-18s %9.3f\n", "sim.loop (rest)", loop,
              "sum", sum);
  if (std::fabs(sum - 100.0) > 1e-6)
    checks_.fail("ledger self shares do not sum to 100% of session wall");
}

/// Sim-time QoE of the check pass (the XLINK arm on ab_day_parallel).
void Bench::qoe_metrics() {
  const auto& q = check_.qoe;
  set("chunk_rct_p50_s", q.rct.percentile(50));
  set("first_frame_p50_s", q.first_frame.median());
  set("rebuffer_rate_pct", 100.0 * q.rebuffer_rate);
  set("chunk_rct_p99_s", q.rct.percentile(99));
  set("redundancy_pct", q.redundancy_pct);
}

int Bench::report(bool per_layer) {
  const double failed_pct =
      checks_.attempted
          ? 100.0 * static_cast<double>(checks_.failed) /
                static_cast<double>(checks_.attempted)
          : 100.0;
  std::printf("sessions_failed_pct = %.4f %% (%llu of %llu)\n", failed_pct,
              static_cast<unsigned long long>(checks_.failed),
              static_cast<unsigned long long>(checks_.attempted));
  for (const std::string& p : checks_.problems)
    std::printf("check-failed: %s\n", p.c_str());

  std::ostringstream js;
  js.precision(17);
  const bool correct = checks_.failed == 0;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << checks_.attempted
     << ", \"failed\": " << checks_.failed << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricDef& m) {
    const double v = metrics_.at(m.name);
    std::printf("%-34s %16.6f %s\n", m.name, v, m.unit);
    js << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
       << (std::isfinite(v) ? v : 0.0) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  };
  if (per_layer) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int Bench::run() {
  setup();
  std::printf("workload %s seed %llu: %zu sessions per round, %u worker(s)\n",
              workload_name(workload_),
              static_cast<unsigned long long>(seed_), plan_.sessions(),
              plan_.jobs);
  check_pass();

  std::vector<Round> plain, traced;
  const std::int64_t start = now_ns();
  const auto elapsed = [&] { return static_cast<double>(now_ns() - start) / 1e9; };
  while (elapsed() < seconds_ || static_cast<int>(plain.size()) < kMinRounds ||
         (trace_ && static_cast<int>(traced.size()) < kMinRounds)) {
    plain.push_back(round(false));
    if (trace_) traced.push_back(round(true));
  }
  std::printf("%zu untraced and %zu traced rounds in %.2f s; round walls (s):",
              plain.size(), traced.size(), elapsed());
  for (const Round& r : plain) std::printf(" %.3f", r.wall_s);
  for (const Round& r : traced) std::printf(" t%.3f", r.wall_s);
  std::printf("\n");
  qoe_metrics();
  if (trace_) {
    per_layer_metrics(plain, traced);
  } else {
    end_to_end_metrics(plain);
  }
  return report(trace_);
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<hd_long_clean|short_feed_lossy|ab_day_parallel> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::optional<Workload> workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        workload = parse_workload(val);
        if (!workload) return usage(("unknown workload " + val).c_str());
      } else if (key == "--seed") {
        seed = std::stoull(val);
      } else if (key == "--seconds") {
        seconds = std::stod(val);
      } else if (key == "--trace") {
        trace = std::stoi(val);
      } else {
        return usage(("unknown option " + key).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options take one value each");
  if (!workload || !seed) return usage("--workload and --seed are required");
  if (!(seconds > 0) || (trace != 0 && trace != 1))
    return usage("--seconds must be > 0 and --trace 0 or 1");
  Bench bench(*workload, *seed, seconds, trace == 1);
  return bench.run();
}
