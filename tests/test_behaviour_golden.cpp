// Behaviour golden: fixed-seed sessions whose observable outcome is pinned
// to committed constants, so a refactor of the transport can prove it
// changed no simulated behaviour.
//
// Each case renders one "fingerprint" string: every SessionResult scalar,
// the chunk RCT vector, both endpoints' Connection::Stats and
// GuardCounters, the final path table, the event loop's events_fired(),
// every path state/health transition in trace order, and a digest of the
// whole trace. Doubles print in shortest round-trip form, so equal text
// means bit-equal values. On a mismatch gtest prints a line diff of the
// two fingerprints; a deliberate behaviour change re-blesses the constant
// from that output and says why in CHANGES.md.
//
// The cases cover the path lifecycle end to end: primary blackout with
// failover / probe backoff / resurrection (and the same blackout with
// path health off), uplink-only drop, NAT rebind, the CM scheme stalling
// into migrate_to_path, MPTCP-like (TCP-style RTO), SP, Redundant and
// ReinjectNoQoe (append-order re-injection) under loss, a lossy FEC +
// re-injection session, and a scripted WirePair run of
// PATH_STATUS standby / available / abandon.
#include <gtest/gtest.h>

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "harness/scenario.h"
#include "mpquic/schedulers.h"
#include "test_support.h"
#include "trace/synthetic.h"

namespace xlink {
namespace {

using quic::Connection;
using quic::PathId;
using quic::PathState;

std::string shortest(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Space-separated `name=value` tokens wrapped at 76 columns.
class Fingerprint {
 public:
  template <typename T>
  void add(std::string_view name, const T& v) {
    token(std::string(name) + "=" + render(v));
  }
  template <typename T>
  void add(std::string_view name, const std::vector<T>& v) {
    token(std::string(name) + "=[");
    for (const T& x : v) token(render(x));
    token("]");
  }

  void token(const std::string& t) {
    if (!line_.empty() && line_.size() + 1 + t.size() > 76) flush();
    if (!line_.empty()) line_ += ' ';
    line_ += t;
  }

  std::string str() {
    flush();
    return out_;
  }

 private:
  template <typename T>
  static std::string render(const T& v) {
    if constexpr (std::is_floating_point_v<T>) {
      return shortest(v);
    } else if constexpr (std::is_same_v<T, bool>) {
      return v ? "1" : "0";
    } else if constexpr (std::is_same_v<T, std::optional<double>>) {
      return v ? shortest(*v) : "-";
    } else {
      return std::to_string(v);
    }
  }

  void flush() {
    if (line_.empty()) return;
    out_ += line_ + "\n";
    line_.clear();
  }

  std::string line_;
  std::string out_ = "\n";  // golden literals open on their own line
};

#define XLINK_FP(fp, prefix, obj, field) fp.add(prefix #field, (obj).field)

void add_connection(Fingerprint& fp, const char* who, const Connection& c) {
  fp.token(std::string(who) + ":");
  const Connection::Stats& s = c.stats();
  XLINK_FP(fp, "", s, packets_sent);
  XLINK_FP(fp, "", s, packets_received);
  XLINK_FP(fp, "", s, packets_lost);
  XLINK_FP(fp, "", s, ptos);
  XLINK_FP(fp, "", s, bytes_sent);
  XLINK_FP(fp, "", s, bytes_received);
  XLINK_FP(fp, "", s, stream_bytes_sent);
  XLINK_FP(fp, "", s, retransmitted_bytes);
  XLINK_FP(fp, "", s, reinjected_bytes);
  XLINK_FP(fp, "", s, auth_failures);
  XLINK_FP(fp, "", s, acks_sent);
  XLINK_FP(fp, "", s, failovers);
  XLINK_FP(fp, "", s, path_resurrections);
  XLINK_FP(fp, "", s, dead_path_probes);
  XLINK_FP(fp, "", s, fec_repair_packets_sent);
  XLINK_FP(fp, "", s, fec_repair_bytes_sent);
  XLINK_FP(fp, "", s, fec_windows_protected);
  XLINK_FP(fp, "", s, fec_recovered_packets);
  XLINK_FP(fp, "", s, fec_wasted_symbols);
  XLINK_FP(fp, "", s, fec_erased_seen);
  const quic::GuardCounters& g = c.guard_counters();
  XLINK_FP(fp, "g.", g, violations);
  XLINK_FP(fp, "g.", g, replayed_packets);
  XLINK_FP(fp, "g.", g, ack_frames);
  XLINK_FP(fp, "g.", g, repair_frames);
  XLINK_FP(fp, "g.", g, amplification_blocked);
  XLINK_FP(fp, "g.", g, gap_collapses);
  XLINK_FP(fp, "g.", g, phantom_bytes);
  XLINK_FP(fp, "g.", g, close_resends);
  XLINK_FP(fp, "g.", g, peak_open_recv_streams);
  XLINK_FP(fp, "g.", g, peak_stream_gaps);
  // Final path table: id/state/health/status_seq_out/status_seq_in.
  for (PathId id : c.path_ids()) {
    const PathState& p = c.path_state(id);
    fp.token("path" + std::to_string(id) + "=" +
             std::to_string(static_cast<int>(p.state)) + "/" +
             std::to_string(static_cast<int>(p.health)) + "/" +
             std::to_string(p.status_seq_out) + "/" +
             std::to_string(p.status_seq_in));
  }
}

/// Path state/health transitions in trace order, plus an FNV-1a digest of
/// every recorded event (the ring is sized to hold the whole session).
void add_trace(Fingerprint& fp, const telemetry::TraceSink& sink) {
  fp.add("trace.recorded", sink.recorded());
  fp.add("trace.dropped", sink.dropped());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const telemetry::Event& e : sink.snapshot()) {
    mix(e.t);
    mix(static_cast<std::uint64_t>(e.type));
    mix(static_cast<std::uint64_t>(e.origin));
    mix(e.path);
    mix(e.flag);
    mix(e.extra);
    mix(e.a);
    mix(e.b);
    mix(e.c);
    mix(e.d);
    const bool status = e.type == telemetry::EventType::kPathStatus;
    if (status || e.type == telemetry::EventType::kPathHealth) {
      // s|h<origin>.<path>=<value>@<t us>
      fp.token(std::string(status ? "s" : "h") +
               std::to_string(static_cast<int>(e.origin)) + "." +
               std::to_string(e.path) + "=" + std::to_string(e.a) + "@" +
               std::to_string(e.t));
    }
  }
  fp.add("trace.digest", h);
}

std::string session_fingerprint(harness::SessionConfig cfg) {
  cfg.trace.enabled = true;
  cfg.trace.capacity = 1u << 19;
  harness::Session session(std::move(cfg));
  const harness::SessionResult r = session.run();
  Fingerprint fp;
  XLINK_FP(fp, "", r, chunks_total);
  XLINK_FP(fp, "", r, chunks_completed);
  XLINK_FP(fp, "", r, first_frame_seconds);
  XLINK_FP(fp, "", r, startup_delay_seconds);
  XLINK_FP(fp, "", r, rebuffer_rate);
  XLINK_FP(fp, "", r, rebuffer_seconds);
  XLINK_FP(fp, "", r, play_seconds);
  XLINK_FP(fp, "", r, rebuffer_count);
  XLINK_FP(fp, "", r, video_finished);
  XLINK_FP(fp, "", r, download_finished);
  XLINK_FP(fp, "", r, download_seconds);
  XLINK_FP(fp, "", r, server_wire_bytes);
  XLINK_FP(fp, "", r, stream_payload_bytes);
  XLINK_FP(fp, "", r, reinjected_bytes);
  XLINK_FP(fp, "", r, retransmitted_bytes);
  XLINK_FP(fp, "", r, packets_lost);
  XLINK_FP(fp, "", r, redundancy_ratio);
  XLINK_FP(fp, "", r, fec_repair_bytes);
  XLINK_FP(fp, "", r, fec_repair_packets);
  XLINK_FP(fp, "", r, fec_windows_protected);
  XLINK_FP(fp, "", r, fec_recovered_packets);
  XLINK_FP(fp, "", r, fec_wasted_symbols);
  XLINK_FP(fp, "", r, fec_erased_seen);
  XLINK_FP(fp, "", r, abr_enabled);
  XLINK_FP(fp, "", r, abr_decisions);
  XLINK_FP(fp, "", r, abr_switches);
  XLINK_FP(fp, "", r, abr_switch_magnitude);
  XLINK_FP(fp, "", r, abr_bitrate_utility);
  XLINK_FP(fp, "", r, path_down_bytes);
  XLINK_FP(fp, "", r, path_peak_queue_bytes);
  XLINK_FP(fp, "", r, chunk_rct_seconds);
  fp.add("events_fired", session.loop().events_fired());
  add_connection(fp, "client", session.client_conn());
  add_connection(fp, "server", session.server_conn());
  add_trace(fp, *session.trace_sink());
  return fp.str();
}

/// The failover suite's two-path setup (test_faults.cpp): fast WiFi
/// primary on network path 0, slower LTE survivor on path 1.
harness::SessionConfig fault_config(
    std::uint64_t seed, core::Scheme scheme = core::Scheme::kXlink) {
  harness::SessionConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = seed;
  cfg.video.duration = sim::seconds(16);
  cfg.video.bitrate_bps = 8'000'000;
  cfg.video.seed = seed;
  cfg.client.chunk_bytes = 192 * 1024;
  cfg.time_limit = sim::seconds(90);
  cfg.wireless_aware_primary = false;
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi, trace::stable_lte(seed, sim::seconds(40)),
      sim::millis(20)));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(seed + 1, sim::seconds(40)),
      sim::millis(60)));
  for (auto& p : cfg.paths) p.queue_capacity_bytes = 256 * 1024;
  return cfg;
}

/// Short two-path session with random loss on both paths and a 1 s
/// primary outage from t=0.5 s, so the PTO path also runs: TCP-style RTO
/// for MPTCP, the never-failed-over last path for SP.
harness::SessionConfig lossy_config(core::Scheme scheme, std::uint64_t seed,
                                    double loss) {
  harness::SessionConfig cfg;
  cfg.scheme = scheme;
  cfg.seed = seed;
  cfg.video.duration = sim::seconds(4);
  cfg.video.bitrate_bps = 2'000'000;
  cfg.video.seed = seed;
  cfg.client.chunk_bytes = 192 * 1024;
  cfg.time_limit = sim::seconds(60);
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi, trace::stable_lte(seed, sim::seconds(20)),
      sim::millis(30), loss));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(seed + 1, sim::seconds(20)),
      sim::millis(90), loss));
  cfg.paths[0].fault_plan.blackout(sim::millis(500), sim::seconds(1));
  return cfg;
}

TEST(BehaviourGolden, XlinkPrimaryBlackout) {
  auto cfg = fault_config(11);
  cfg.paths[0].fault_plan.blackout(sim::seconds(2), sim::seconds(3));
  EXPECT_EQ(session_fingerprint(std::move(cfg)), R"(
chunks_total=84 chunks_completed=84 first_frame_seconds=0.304
startup_delay_seconds=0.304 rebuffer_rate=0 rebuffer_seconds=0
play_seconds=15.99984 rebuffer_count=0 video_finished=1 download_finished=1
download_seconds=9.192 server_wire_bytes=17221725
stream_payload_bytes=16501727 reinjected_bytes=23415
retransmitted_bytes=306680 packets_lost=42
redundancy_ratio=0.001418942393120429 fec_repair_bytes=0
fec_repair_packets=0 fec_windows_protected=0 fec_recovered_packets=0
fec_wasted_symbols=0 fec_erased_seen=0 abr_enabled=0 abr_decisions=0
abr_switches=0 abr_switch_magnitude=0 abr_bitrate_utility=0
path_down_bytes=[ 3518636 13501993 ] path_peak_queue_bytes=[ 262003 196022 ]
chunk_rct_seconds=[ 0.162 0.282 0.207 0.136 0.132 0.161 0.122 0.116 0.142
0.112 0.112 0.134 0.106 0.113 0.136 0.106 0.115 0.221 0.119 0.088 0.214
0.151 0.1 0.179 0.153 0.119 0.128 0.148 1.517 1.485 0.175 0.264 0.247 0.25
0.238 0.221 0.228 0.227 0.225 0.244 0.257 0.259 0.248 0.229 0.227 0.223 0.22
0.227 0.227 0.219 0.209 0.203 0.215 0.219 0.202 0.189 0.191 0.192 0.196
0.195 0.183 0.185 0.19 0.198 0.201 0.209 0.221 0.227 0.216 0.195 0.202 0.204
0.206 0.202 0.177 0.166 0.158 0.15 0.158 0.182 0.186 0.178 0.184 0.188 ]
events_fired=47521 client: packets_sent=5882 packets_received=12101
packets_lost=0 ptos=3 bytes_sent=284754 bytes_received=17020629
stream_bytes_sent=2235 retransmitted_bytes=0 reinjected_bytes=255
auth_failures=0 acks_sent=6317 failovers=1 path_resurrections=1
dead_path_probes=1 fec_repair_packets_sent=0 fec_repair_bytes_sent=0
fec_windows_protected=0 fec_recovered_packets=0 fec_wasted_symbols=0
fec_erased_seen=0 g.violations=0 g.replayed_packets=0 g.ack_frames=98
g.repair_frames=0 g.amplification_blocked=0 g.gap_collapses=0
g.phantom_bytes=0 g.close_resends=0 g.peak_open_recv_streams=84
g.peak_stream_gaps=10 path0=1/0/2/2 path1=1/0/0/0 server: packets_sent=12245
packets_received=5758 packets_lost=42 ptos=6 bytes_sent=17221725
bytes_received=278446 stream_bytes_sent=16501727 retransmitted_bytes=306680
reinjected_bytes=23415 auth_failures=0 acks_sent=99 failovers=1
path_resurrections=1 dead_path_probes=2 fec_repair_packets_sent=0
fec_repair_bytes_sent=0 fec_windows_protected=0 fec_recovered_packets=0
fec_wasted_symbols=0 fec_erased_seen=0 g.violations=0 g.replayed_packets=0
g.ack_frames=6181 g.repair_frames=0 g.amplification_blocked=0
g.gap_collapses=0 g.phantom_bytes=0 g.close_resends=0
g.peak_open_recv_streams=84 g.peak_stream_gaps=1 path0=1/0/2/2 path1=1/0/0/0
trace.recorded=68256 trace.dropped=0 s1.0=1@0 s0.0=1@10017 s1.1=0@21000
s0.1=0@51012 s1.1=1@82000 s0.1=1@112019 h1.0=1@2229231 h0.1=1@2248901
h0.0=1@2339753 h1.0=2@2730924 s0.0=2@2760935 h0.1=0@3102019 h0.0=2@3214597
s1.0=2@3245000 h0.0=0@8030032 s1.0=1@8127000 h1.0=0@9259000 s0.0=1@9269012
trace.digest=4618468107335775652
)");
}

TEST(BehaviourGolden, XlinkPrimaryBlackoutWithoutPathHealth) {
  auto cfg = fault_config(11);
  cfg.paths[0].fault_plan.blackout(sim::seconds(2), sim::seconds(3));
  cfg.path_health = false;
  EXPECT_EQ(session_fingerprint(std::move(cfg)), R"(
chunks_total=84 chunks_completed=84 first_frame_seconds=0.304
startup_delay_seconds=0.304 rebuffer_rate=0.011128298782987829
rebuffer_seconds=0.178051 play_seconds=15.99984 rebuffer_count=1
video_finished=1 download_finished=1 download_seconds=10.594
server_wire_bytes=17253952 stream_payload_bytes=16501727
reinjected_bytes=144542 retransmitted_bytes=215950 packets_lost=145
redundancy_ratio=0.0087592044153924 fec_repair_bytes=0 fec_repair_packets=0
fec_windows_protected=0 fec_recovered_packets=0 fec_wasted_symbols=0
fec_erased_seen=0 abr_enabled=0 abr_decisions=0 abr_switches=0
abr_switch_magnitude=0 abr_bitrate_utility=0 path_down_bytes=[ 13514449
3535589 ] path_peak_queue_bytes=[ 262003 123928 ] chunk_rct_seconds=[ 0.162
0.282 0.207 0.136 0.132 0.161 0.122 0.116 0.142 0.112 0.112 0.134 0.106
0.113 0.136 0.106 0.115 0.221 0.119 0.088 0.214 0.151 0.1 0.179 0.153 0.119
0.128 0.148 3.588 3.564 0.2 0.243 0.178 0.188 0.196 0.193 0.184 0.188 0.194
0.195 0.204 0.217 0.23 0.231 0.221 0.202 0.181 0.168 0.158 0.156 0.168 0.175
0.174 0.185 0.212 0.246 0.261 0.249 0.221 0.2 0.176 0.148 0.144 0.152 0.165
0.177 0.172 0.162 0.162 0.163 0.163 0.162 0.155 0.15 0.153 0.161 0.169 0.177
0.179 0.174 0.167 0.159 0.156 0.147 ] events_fired=47229 client:
packets_sent=5775 packets_received=12145 packets_lost=1 ptos=5
bytes_sent=319907 bytes_received=17050038 stream_bytes_sent=2235
retransmitted_bytes=0 reinjected_bytes=608 auth_failures=0 acks_sent=6457
failovers=0 path_resurrections=0 dead_path_probes=0
fec_repair_packets_sent=0 fec_repair_bytes_sent=0 fec_windows_protected=0
fec_recovered_packets=0 fec_wasted_symbols=0 fec_erased_seen=0
g.violations=0 g.replayed_packets=0 g.ack_frames=108 g.repair_frames=0
g.amplification_blocked=0 g.gap_collapses=0 g.phantom_bytes=0
g.close_resends=0 g.peak_open_recv_streams=84 g.peak_stream_gaps=11
path0=1/0/0/0 path1=1/0/0/0 server: packets_sent=12290 packets_received=5649
packets_lost=145 ptos=10 bytes_sent=17253952 bytes_received=313502
stream_bytes_sent=16501727 retransmitted_bytes=215950
reinjected_bytes=144542 auth_failures=0 acks_sent=109 failovers=0
path_resurrections=0 dead_path_probes=0 fec_repair_packets_sent=0
fec_repair_bytes_sent=0 fec_windows_protected=0 fec_recovered_packets=0
fec_wasted_symbols=0 fec_erased_seen=0 g.violations=0 g.replayed_packets=0
g.ack_frames=6319 g.repair_frames=0 g.amplification_blocked=0
g.gap_collapses=0 g.phantom_bytes=0 g.close_resends=0
g.peak_open_recv_streams=84 g.peak_stream_gaps=1 path0=1/0/0/0 path1=1/0/0/0
trace.recorded=68784 trace.dropped=0 s1.0=1@0 s0.0=1@10017 s1.1=0@21000
s0.1=0@51012 s1.1=1@82000 s0.1=1@112019 trace.digest=18109214894727336574
)");
}

TEST(BehaviourGolden, XlinkUplinkOnlyDrop) {
  auto cfg = fault_config(12);
  cfg.paths[0].fault_plan.uplink_drop(sim::seconds(2), sim::seconds(3));
  EXPECT_EQ(session_fingerprint(std::move(cfg)), R"(
chunks_total=83 chunks_completed=83 first_frame_seconds=0.301
startup_delay_seconds=0.301 rebuffer_rate=0 rebuffer_seconds=0
play_seconds=15.99984 rebuffer_count=0 video_finished=1 download_finished=1
download_seconds=9.073 server_wire_bytes=17181196
stream_payload_bytes=16279325 reinjected_bytes=45737
retransmitted_bytes=469035 packets_lost=146
redundancy_ratio=0.0028095145222544545 fec_repair_bytes=0
fec_repair_packets=0 fec_windows_protected=0 fec_recovered_packets=0
fec_wasted_symbols=0 fec_erased_seen=0 abr_enabled=0 abr_decisions=0
abr_switches=0 abr_switch_magnitude=0 abr_bitrate_utility=0
path_down_bytes=[ 3710711 13263738 ] path_peak_queue_bytes=[ 262100 262026 ]
chunk_rct_seconds=[ 0.157 0.266 0.222 0.169 0.113 0.154 0.151 0.103 0.144
0.152 0.108 0.135 0.225 0.111 0.099 0.22 0.147 0.086 0.174 0.147 0.099 0.128
0.134 0.093 0.129 0.132 0.092 0.126 0.126 1.162 1.241 0.357 0.278 0.172
0.344 0.186 0.172 0.352 0.205 0.16 0.26 0.22 0.22 0.206 0.197 0.199 0.204
0.206 0.198 0.207 0.22 0.229 0.237 0.224 0.208 0.194 0.185 0.194 0.209 0.207
0.204 0.207 0.219 0.235 0.236 0.232 0.223 0.203 0.191 0.198 0.218 0.228 0.22
0.213 0.21 0.213 0.228 0.232 0.234 0.237 0.229 0.221 0.193 ]
events_fired=46910 client: packets_sent=5864 packets_received=12005
packets_lost=1 ptos=3 bytes_sent=326493 bytes_received=16974449
stream_bytes_sent=2207 retransmitted_bytes=0 reinjected_bytes=410
auth_failures=0 acks_sent=6255 failovers=1 path_resurrections=1
dead_path_probes=2 fec_repair_packets_sent=0 fec_repair_bytes_sent=0
fec_windows_protected=0 fec_recovered_packets=0 fec_wasted_symbols=0
fec_erased_seen=0 g.violations=0 g.replayed_packets=0 g.ack_frames=101
g.repair_frames=0 g.amplification_blocked=0 g.gap_collapses=0
g.phantom_bytes=0 g.close_resends=0 g.peak_open_recv_streams=83
g.peak_stream_gaps=11 path0=1/0/2/2 path1=1/0/0/0 server: packets_sent=12151
packets_received=5705 packets_lost=146 ptos=5 bytes_sent=17181196
bytes_received=317834 stream_bytes_sent=16279325 retransmitted_bytes=469035
reinjected_bytes=45737 auth_failures=0 acks_sent=101 failovers=1
path_resurrections=1 dead_path_probes=1 fec_repair_packets_sent=0
fec_repair_bytes_sent=0 fec_windows_protected=0 fec_recovered_packets=0
fec_wasted_symbols=0 fec_erased_seen=0 g.violations=0 g.replayed_packets=0
g.ack_frames=6071 g.repair_frames=0 g.amplification_blocked=0
g.gap_collapses=0 g.phantom_bytes=0 g.close_resends=0
g.peak_open_recv_streams=83 g.peak_stream_gaps=1 path0=1/0/2/2 path1=1/0/0/0
trace.recorded=67653 trace.dropped=0 s1.0=1@0 s0.0=1@10017 s1.1=0@21000
s0.1=0@51012 s1.1=1@82000 s0.1=1@112019 h0.0=1@2213982 h0.1=1@2274860
h1.0=1@2280814 h1.0=2@2778256 s0.0=2@2808267 h0.0=2@2903694 s1.0=2@2934000
h0.1=0@2989019 h0.0=0@3891034 s1.0=1@3979000 h1.0=0@9140000 s0.0=1@9150012
trace.digest=7674721405673688025
)");
}

TEST(BehaviourGolden, XlinkNatRebind) {
  auto cfg = fault_config(14);
  cfg.paths[0].fault_plan.nat_rebind(sim::seconds(2));
  EXPECT_EQ(session_fingerprint(std::move(cfg)), R"(
chunks_total=84 chunks_completed=84 first_frame_seconds=0.276
startup_delay_seconds=0.276 rebuffer_rate=0 rebuffer_seconds=0
play_seconds=15.99984 rebuffer_count=0 video_finished=1 download_finished=1
download_seconds=5.159 server_wire_bytes=16864030
stream_payload_bytes=16339158 reinjected_bytes=45470
retransmitted_bytes=99375 packets_lost=72
redundancy_ratio=0.002782885140103303 fec_repair_bytes=0
fec_repair_packets=0 fec_windows_protected=0 fec_recovered_packets=0
fec_wasted_symbols=0 fec_erased_seen=0 abr_enabled=0 abr_decisions=0
abr_switches=0 abr_switch_magnitude=0 abr_bitrate_utility=0
path_down_bytes=[ 9368490 7393861 ] path_peak_queue_bytes=[ 261964 112562 ]
chunk_rct_seconds=[ 0.146 0.236 0.18 0.134 0.107 0.143 0.126 0.104 0.13 0.12
0.107 0.128 0.121 0.116 0.147 0.143 0.114 0.15 0.156 0.116 0.155 0.25 0.125
0.097 0.226 0.153 0.09 0.224 0.152 0.115 0.159 0.107 0.105 0.11 0.102 0.112
0.122 0.111 0.11 0.116 0.112 0.111 0.107 0.1 0.105 0.111 0.111 0.114 0.111
0.109 0.121 0.13 0.131 0.125 0.119 0.128 0.122 0.109 0.11 0.107 0.11 0.113
0.106 0.107 0.111 0.104 0.101 0.105 0.107 0.109 0.112 0.112 0.109 0.108
0.108 0.108 0.106 0.103 0.104 0.106 0.105 0.104 0.106 0.05 ]
events_fired=43498 client: packets_sent=5165 packets_received=11900
packets_lost=0 ptos=0 bytes_sent=304331 bytes_received=16762351
stream_bytes_sent=2235 retransmitted_bytes=0 reinjected_bytes=386
auth_failures=0 acks_sent=6828 failovers=0 path_resurrections=0
dead_path_probes=0 fec_repair_packets_sent=0 fec_repair_bytes_sent=0
fec_windows_protected=0 fec_recovered_packets=0 fec_wasted_symbols=0
fec_erased_seen=0 g.violations=0 g.replayed_packets=0 g.ack_frames=100
g.repair_frames=0 g.amplification_blocked=0 g.gap_collapses=0
g.phantom_bytes=0 g.close_resends=0 g.peak_open_recv_streams=84
g.peak_stream_gaps=14 path0=1/0/0/0 path1=1/0/0/0 server: packets_sent=11972
packets_received=5165 packets_lost=72 ptos=0 bytes_sent=16864030
bytes_received=304331 stream_bytes_sent=16339158 retransmitted_bytes=99375
reinjected_bytes=45470 auth_failures=0 acks_sent=100 failovers=0
path_resurrections=0 dead_path_probes=0 fec_repair_packets_sent=0
fec_repair_bytes_sent=0 fec_windows_protected=0 fec_recovered_packets=0
fec_wasted_symbols=0 fec_erased_seen=0 g.violations=0 g.replayed_packets=0
g.ack_frames=6828 g.repair_frames=0 g.amplification_blocked=0
g.gap_collapses=0 g.phantom_bytes=0 g.close_resends=0
g.peak_open_recv_streams=84 g.peak_stream_gaps=1 path0=1/0/0/0 path1=1/0/0/0
trace.recorded=68325 trace.dropped=0 s1.0=1@0 s0.0=1@10017 s1.1=0@21000
s0.1=0@51012 s1.1=1@82000 s0.1=1@112019 s1.0=0@2000000 s1.0=1@2128000
trace.digest=15187654790980006369
)");
}

TEST(BehaviourGolden, ConnectionMigrationStallsIntoMigrate) {
  auto cfg = fault_config(17, core::Scheme::kConnMigration);
  cfg.paths[0].fault_plan.blackout(sim::seconds(2), sim::seconds(3));
  EXPECT_EQ(session_fingerprint(std::move(cfg)), R"(
chunks_total=83 chunks_completed=83 first_frame_seconds=0.282
startup_delay_seconds=0.282 rebuffer_rate=0 rebuffer_seconds=0
play_seconds=15.99984 rebuffer_count=0 video_finished=1 download_finished=1
download_seconds=10.138 server_wire_bytes=16867607
stream_payload_bytes=16125878 reinjected_bytes=0 retransmitted_bytes=369183
packets_lost=112 redundancy_ratio=0 fec_repair_bytes=0 fec_repair_packets=0
fec_windows_protected=0 fec_recovered_packets=0 fec_wasted_symbols=0
fec_erased_seen=0 abr_enabled=0 abr_decisions=0 abr_switches=0
abr_switch_magnitude=0 abr_bitrate_utility=0 path_down_bytes=[ 3789924
12902143 ] path_peak_queue_bytes=[ 262112 261610 ] chunk_rct_seconds=[ 0.157
0.258 0.202 0.288 0.187 0.118 0.286 0.197 0.126 0.194 0.193 0.199 0.212 0.24
0.251 0.238 0.241 0.261 1.31 1.293 0.236 0.341 0.268 0.156 0.201 0.169 0.167
0.179 0.191 0.195 0.196 0.216 0.238 0.24 0.236 0.223 0.217 0.238 0.252 0.254
0.267 0.255 0.227 0.209 0.204 0.214 0.227 0.236 0.219 0.197 0.183 0.185
0.198 0.192 0.187 0.196 0.198 0.187 0.187 0.2 0.214 0.221 0.236 0.264 0.266
0.245 0.23 0.216 0.211 0.221 0.231 0.235 0.235 0.224 0.213 0.216 0.214 0.226
0.241 0.228 0.233 0.251 0.129 ] events_fired=47827 client: packets_sent=5970
packets_received=11793 packets_lost=0 ptos=1 bytes_sent=308636
bytes_received=16692067 stream_bytes_sent=2207 retransmitted_bytes=78
reinjected_bytes=0 auth_failures=0 acks_sent=5911 failovers=0
path_resurrections=0 dead_path_probes=0 fec_repair_packets_sent=0
fec_repair_bytes_sent=0 fec_windows_protected=0 fec_recovered_packets=0
fec_wasted_symbols=0 fec_erased_seen=0 g.violations=0 g.replayed_packets=0
g.ack_frames=87 g.repair_frames=0 g.amplification_blocked=0
g.gap_collapses=0 g.phantom_bytes=0 g.close_resends=0
g.peak_open_recv_streams=83 g.peak_stream_gaps=3 path0=3/1/1/0 path1=1/0/0/0
server: packets_sent=11918 packets_received=5900 packets_lost=112 ptos=2
bytes_sent=16867607 bytes_received=304756 stream_bytes_sent=16125878
retransmitted_bytes=369183 reinjected_bytes=0 auth_failures=0 acks_sent=87
failovers=0 path_resurrections=0 dead_path_probes=0
fec_repair_packets_sent=0 fec_repair_bytes_sent=0 fec_windows_protected=0
fec_recovered_packets=0 fec_wasted_symbols=0 fec_erased_seen=0
g.violations=0 g.replayed_packets=0 g.ack_frames=5842 g.repair_frames=0
g.amplification_blocked=5 g.gap_collapses=0 g.phantom_bytes=0
g.close_resends=0 g.peak_open_recv_streams=83 g.peak_stream_gaps=1
path0=3/1/0/1 path1=1/0/0/0 trace.recorded=65758 trace.dropped=0 s1.0=1@0
s0.0=1@10017 h0.0=1@2175434 h1.0=1@2322709 s1.1=1@2800000 s1.0=3@2800000
s0.1=0@2830015 s0.0=3@2830015 s0.1=1@2891020
trace.digest=1120784050799519428
)");
}

TEST(BehaviourGolden, MptcpLikeUnderLoss) {
  EXPECT_EQ(session_fingerprint(
                lossy_config(core::Scheme::kMptcpLike, 6, 0.02)),
            R"(
chunks_total=6 chunks_completed=6 first_frame_seconds=0.244
startup_delay_seconds=0.244 rebuffer_rate=0 rebuffer_seconds=0
play_seconds=3.99996 rebuffer_count=0 video_finished=1 download_finished=1
download_seconds=2.762 server_wire_bytes=1162636
stream_payload_bytes=1077575 reinjected_bytes=0 retransmitted_bytes=57800
packets_lost=20 redundancy_ratio=0 fec_repair_bytes=0 fec_repair_packets=0
fec_windows_protected=0 fec_recovered_packets=0 fec_wasted_symbols=0
fec_erased_seen=0 abr_enabled=0 abr_decisions=0 abr_switches=0
abr_switch_magnitude=0 abr_bitrate_utility=0 path_down_bytes=[ 546679 581234
] path_peak_queue_bytes=[ 46896 33561 ] chunk_rct_seconds=[ 0.227 0.336
0.329 0.634 1.752 1.761 ] events_fired=3087 client: packets_sent=445
packets_received=845 packets_lost=1 ptos=3 bytes_sent=25029
bytes_received=1127913 stream_bytes_sent=140 retransmitted_bytes=193
reinjected_bytes=0 auth_failures=0 acks_sent=432 failovers=1
path_resurrections=1 dead_path_probes=1 fec_repair_packets_sent=0
fec_repair_bytes_sent=0 fec_windows_protected=0 fec_recovered_packets=0
fec_wasted_symbols=0 fec_erased_seen=0 g.violations=0 g.replayed_packets=0
g.ack_frames=11 g.repair_frames=0 g.amplification_blocked=0
g.gap_collapses=0 g.phantom_bytes=0 g.close_resends=0
g.peak_open_recv_streams=6 g.peak_stream_gaps=8 path0=1/0/2/2 path1=1/0/0/0
server: packets_sent=871 packets_received=424 packets_lost=20 ptos=3
bytes_sent=1162636 bytes_received=23745 stream_bytes_sent=1077575
retransmitted_bytes=57800 reinjected_bytes=0 auth_failures=0 acks_sent=11
failovers=1 path_resurrections=1 dead_path_probes=2
fec_repair_packets_sent=0 fec_repair_bytes_sent=0 fec_windows_protected=0
fec_recovered_packets=0 fec_wasted_symbols=0 fec_erased_seen=0
g.violations=0 g.replayed_packets=0 g.ack_frames=414 g.repair_frames=0
g.amplification_blocked=0 g.gap_collapses=0 g.phantom_bytes=0
g.close_resends=0 g.peak_open_recv_streams=6 g.peak_stream_gaps=1
path0=1/0/2/2 path1=1/0/0/0 trace.recorded=4787 trace.dropped=0 s1.0=1@0
s0.0=1@15017 s1.1=0@31000 s0.1=0@76012 s1.1=1@122000 s0.1=1@167020
h0.0=1@575642 h1.0=1@691000 h0.0=2@951350 s1.0=2@997000 h1.0=2@1236232
s0.0=2@1281244 h1.0=0@2019000 s0.0=1@2064030 h0.0=0@2510026 s1.0=1@2526000
trace.digest=10457358478427972806
)");
}

TEST(BehaviourGolden, SinglePathUnderLoss) {
  EXPECT_EQ(session_fingerprint(
                lossy_config(core::Scheme::kSinglePath, 2, 0.02)),
            R"(
chunks_total=6 chunks_completed=6 first_frame_seconds=0.417
startup_delay_seconds=0.417 rebuffer_rate=0.4802570525705257
rebuffer_seconds=1.921009 play_seconds=3.99996 rebuffer_count=6
video_finished=1 download_finished=1 download_seconds=5.574
server_wire_bytes=1161964 stream_payload_bytes=1099656 reinjected_bytes=0
retransmitted_bytes=35993 packets_lost=25 redundancy_ratio=0
fec_repair_bytes=0 fec_repair_packets=0 fec_windows_protected=0
fec_recovered_packets=0 fec_wasted_symbols=0 fec_erased_seen=0 abr_enabled=0
abr_decisions=0 abr_switches=0 abr_switch_magnitude=0 abr_bitrate_utility=0
path_down_bytes=[ 1126587 0 ] path_peak_queue_bytes=[ 14232 0 ]
chunk_rct_seconds=[ 2.573 3.455 1.411 1.175 1.274 0.913 ] events_fired=3437
client: packets_sent=427 packets_received=818 packets_lost=0 ptos=1
bytes_sent=30342 bytes_received=1126587 stream_bytes_sent=140
retransmitted_bytes=24 reinjected_bytes=0 auth_failures=0 acks_sent=422
failovers=0 path_resurrections=0 dead_path_probes=0
fec_repair_packets_sent=0 fec_repair_bytes_sent=0 fec_windows_protected=0
fec_recovered_packets=0 fec_wasted_symbols=0 fec_erased_seen=0
g.violations=0 g.replayed_packets=0 g.ack_frames=7 g.repair_frames=0
g.amplification_blocked=0 g.gap_collapses=0 g.phantom_bytes=0
g.close_resends=0 g.peak_open_recv_streams=6 g.peak_stream_gaps=3
path0=1/0/0/0 server: packets_sent=843 packets_received=410 packets_lost=25
ptos=5 bytes_sent=1161964 bytes_received=29240 stream_bytes_sent=1099656
retransmitted_bytes=35993 reinjected_bytes=0 auth_failures=0 acks_sent=8
failovers=0 path_resurrections=0 dead_path_probes=0
fec_repair_packets_sent=0 fec_repair_bytes_sent=0 fec_windows_protected=0
fec_recovered_packets=0 fec_wasted_symbols=0 fec_erased_seen=0
g.violations=0 g.replayed_packets=0 g.ack_frames=405 g.repair_frames=0
g.amplification_blocked=0 g.gap_collapses=0 g.phantom_bytes=0
g.close_resends=0 g.peak_open_recv_streams=6 g.peak_stream_gaps=1
path0=1/0/0/0 trace.recorded=4670 trace.dropped=0 s1.0=1@0 s0.0=1@15017
h0.0=1@553451 h0.0=0@2362022 h1.0=1@2698000 h1.0=0@2729000
trace.digest=3333834388626169905
)");
}

// Redundant and ReinjectNoQoe queue their duplicates with
// InsertMode::kAppend, which no other case reaches.
TEST(BehaviourGolden, RedundantUnderLoss) {
  EXPECT_EQ(session_fingerprint(
                lossy_config(core::Scheme::kRedundant, 4, 0.02)),
            R"(
chunks_total=6 chunks_completed=6 first_frame_seconds=0.196
startup_delay_seconds=0.196 rebuffer_rate=0 rebuffer_seconds=0
play_seconds=3.99996 rebuffer_count=0 video_finished=1 download_finished=1
download_seconds=3.6 server_wire_bytes=1172161 stream_payload_bytes=1093285
reinjected_bytes=1273 retransmitted_bytes=47894 packets_lost=22
redundancy_ratio=0.001164380742441358 fec_repair_bytes=0
fec_repair_packets=0 fec_windows_protected=0 fec_recovered_packets=0
fec_wasted_symbols=0 fec_erased_seen=0 abr_enabled=0 abr_decisions=0
abr_switches=0 abr_switch_magnitude=0 abr_bitrate_utility=0
path_down_bytes=[ 563201 569368 ] path_peak_queue_bytes=[ 28435 19880 ]
chunk_rct_seconds=[ 0.282 0.469 0.754 2.032 2.202 1.068 ] events_fired=3390
client: packets_sent=483 packets_received=917 packets_lost=0 ptos=3
bytes_sent=27220 bytes_received=1132569 stream_bytes_sent=140
retransmitted_bytes=0 reinjected_bytes=73 auth_failures=0 acks_sent=474
failovers=1 path_resurrections=1 dead_path_probes=1
fec_repair_packets_sent=0 fec_repair_bytes_sent=0 fec_windows_protected=0
fec_recovered_packets=0 fec_wasted_symbols=0 fec_erased_seen=0
g.violations=0 g.replayed_packets=0 g.ack_frames=14 g.repair_frames=0
g.amplification_blocked=0 g.gap_collapses=0 g.phantom_bytes=0
g.close_resends=0 g.peak_open_recv_streams=6 g.peak_stream_gaps=5
path0=1/0/2/2 path1=1/0/0/0 server: packets_sent=949 packets_received=474
packets_lost=22 ptos=3 bytes_sent=1172161 bytes_received=26708
stream_bytes_sent=1093285 retransmitted_bytes=47894 reinjected_bytes=1273
auth_failures=0 acks_sent=14 failovers=1 path_resurrections=1
dead_path_probes=2 fec_repair_packets_sent=0 fec_repair_bytes_sent=0
fec_windows_protected=0 fec_recovered_packets=0 fec_wasted_symbols=0
fec_erased_seen=0 g.violations=0 g.replayed_packets=0 g.ack_frames=465
g.repair_frames=0 g.amplification_blocked=0 g.gap_collapses=0
g.phantom_bytes=0 g.close_resends=0 g.peak_open_recv_streams=6
g.peak_stream_gaps=1 path0=1/0/2/2 path1=1/0/0/0 trace.recorded=5291
trace.dropped=0 s1.0=1@0 s0.0=1@15017 s1.1=0@31000 s0.1=0@76012
s1.1=1@122000 s0.1=1@167020 h0.0=1@567107 h1.0=1@607000 h1.0=2@867000
h0.0=2@909617 s0.0=2@912012 s1.0=2@956000 h1.0=0@1651000 s0.0=1@1696012
h0.0=0@2335024 s1.0=1@2351000 trace.digest=2547420550678389579
)");
}

TEST(BehaviourGolden, ReinjectNoQoeUnderLoss) {
  EXPECT_EQ(session_fingerprint(
                lossy_config(core::Scheme::kReinjectNoQoe, 5, 0.02)),
            R"(
chunks_total=6 chunks_completed=6 first_frame_seconds=0.298
startup_delay_seconds=0.298 rebuffer_rate=0.05475554755547555
rebuffer_seconds=0.21902 play_seconds=3.99996 rebuffer_count=4
video_finished=1 download_finished=1 download_seconds=3.85
server_wire_bytes=1179603 stream_payload_bytes=1098567 reinjected_bytes=8772
retransmitted_bytes=42413 packets_lost=22
redundancy_ratio=0.007984947663638177 fec_repair_bytes=0
fec_repair_packets=0 fec_windows_protected=0 fec_recovered_packets=0
fec_wasted_symbols=0 fec_erased_seen=0 abr_enabled=0 abr_decisions=0
abr_switches=0 abr_switch_magnitude=0 abr_bitrate_utility=0
path_down_bytes=[ 618518 529158 ] path_peak_queue_bytes=[ 17040 14072 ]
chunk_rct_seconds=[ 0.286 1.018 2.111 2.022 1.151 0.779 ] events_fired=3536
client: packets_sent=489 packets_received=923 packets_lost=0 ptos=3
bytes_sent=28328 bytes_received=1147676 stream_bytes_sent=140
retransmitted_bytes=0 reinjected_bytes=73 auth_failures=0 acks_sent=481
failovers=1 path_resurrections=0 dead_path_probes=0
fec_repair_packets_sent=0 fec_repair_bytes_sent=0 fec_windows_protected=0
fec_recovered_packets=0 fec_wasted_symbols=0 fec_erased_seen=0
g.violations=0 g.replayed_packets=0 g.ack_frames=12 g.repair_frames=0
g.amplification_blocked=0 g.gap_collapses=0 g.phantom_bytes=0
g.close_resends=0 g.peak_open_recv_streams=6 g.peak_stream_gaps=4
path0=1/0/0/2 path1=1/2/1/0 server: packets_sent=953 packets_received=478
packets_lost=22 ptos=3 bytes_sent=1179603 bytes_received=27641
stream_bytes_sent=1098567 retransmitted_bytes=42413 reinjected_bytes=8772
auth_failures=0 acks_sent=12 failovers=1 path_resurrections=1
dead_path_probes=2 fec_repair_packets_sent=0 fec_repair_bytes_sent=0
fec_windows_protected=0 fec_recovered_packets=0 fec_wasted_symbols=0
fec_erased_seen=0 g.violations=0 g.replayed_packets=0 g.ack_frames=470
g.repair_frames=0 g.amplification_blocked=0 g.gap_collapses=0
g.phantom_bytes=0 g.close_resends=0 g.peak_open_recv_streams=6
g.peak_stream_gaps=1 path0=1/0/2/0 path1=2/0/0/1 trace.recorded=5418
trace.dropped=0 s1.0=1@0 s0.0=1@15017 s1.1=0@31000 s0.1=0@76012
s1.1=1@122000 s0.1=1@167020 h0.0=1@562678 h0.0=2@914614 s1.0=2@960000
h0.0=0@2378024 s1.0=1@2394000 h1.1=1@3266026 h1.1=2@3851104 s0.1=2@3866116
trace.digest=1109279360247836302
)");
}

TEST(BehaviourGolden, LossyFecPlusReinjection) {
  harness::SessionConfig cfg;
  cfg.scheme = core::Scheme::kXlink;
  cfg.seed = 3;
  cfg.time_limit = sim::seconds(30);
  cfg.video.duration = sim::seconds(4);
  cfg.video.bitrate_bps = 3'000'000;
  cfg.options.xlink_redundancy = core::XlinkRedundancy::kReinjectPlusFec;
  cfg.options.fec.window = 8;
  cfg.options.fec.min_repairs = 4;
  cfg.options.fec.max_repairs = 6;
  cfg.options.fec.loss_multiplier = 8.0;
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kWifi, trace::campus_walk_wifi(16, sim::seconds(20)),
      sim::millis(30)));
  cfg.paths.push_back(harness::make_path_spec(
      net::Wireless::kLte, trace::stable_lte(17, sim::seconds(20)),
      sim::millis(90)));
  net::PathSpec::GeLoss ge;
  ge.p_good_to_bad = 0.006;
  ge.p_bad_to_good = 0.35;
  ge.loss_bad = 0.45;
  for (auto& p : cfg.paths) p.ge_loss = ge;
  EXPECT_EQ(session_fingerprint(std::move(cfg)), R"(
chunks_total=4 chunks_completed=4 first_frame_seconds=0.364
startup_delay_seconds=0.364 rebuffer_rate=0 rebuffer_seconds=0
play_seconds=3.99996 rebuffer_count=0 video_finished=1 download_finished=1
download_seconds=2.101 server_wire_bytes=2198391
stream_payload_bytes=1665760 reinjected_bytes=835 retransmitted_bytes=13879
packets_lost=18 redundancy_ratio=0.2767181346652579 fec_repair_bytes=460111
fec_repair_packets=353 fec_windows_protected=87 fec_recovered_packets=14
fec_wasted_symbols=334 fec_erased_seen=14 abr_enabled=0 abr_decisions=0
abr_switches=0 abr_switch_magnitude=0 abr_bitrate_utility=0
path_down_bytes=[ 1208867 966948 ] path_peak_queue_bytes=[ 17342 34091 ]
chunk_rct_seconds=[ 0.802 1.486 1.174 0.584 ] events_fired=6059 client:
packets_sent=795 packets_received=1799 packets_lost=0 ptos=0
bytes_sent=45096 bytes_received=2190401 stream_bytes_sent=96
retransmitted_bytes=0 reinjected_bytes=52 auth_failures=0 acks_sent=1015
failovers=0 path_resurrections=0 dead_path_probes=0
fec_repair_packets_sent=0 fec_repair_bytes_sent=0 fec_windows_protected=0
fec_recovered_packets=14 fec_wasted_symbols=334 fec_erased_seen=14
g.violations=0 g.replayed_packets=0 g.ack_frames=9 g.repair_frames=348
g.amplification_blocked=0 g.gap_collapses=0 g.phantom_bytes=0
g.close_resends=0 g.peak_open_recv_streams=4 g.peak_stream_gaps=11
path0=1/0/0/0 path1=1/0/0/0 server: packets_sent=1805 packets_received=794
packets_lost=18 ptos=0 bytes_sent=2198391 bytes_received=45054
stream_bytes_sent=1665760 retransmitted_bytes=13879 reinjected_bytes=835
auth_failures=0 acks_sent=9 failovers=0 path_resurrections=0
dead_path_probes=0 fec_repair_packets_sent=353 fec_repair_bytes_sent=460111
fec_windows_protected=87 fec_recovered_packets=0 fec_wasted_symbols=0
fec_erased_seen=0 g.violations=0 g.replayed_packets=0 g.ack_frames=1014
g.repair_frames=0 g.amplification_blocked=0 g.gap_collapses=0
g.phantom_bytes=0 g.close_resends=0 g.peak_open_recv_streams=4
g.peak_stream_gaps=1 path0=1/0/0/0 path1=1/0/0/0 trace.recorded=10864
trace.dropped=0 s1.0=1@0 s0.0=1@15017 s1.1=0@31000 s0.1=0@76012
s1.1=1@122000 s0.1=1@167019 trace.digest=6377389998645997093
)");
}

// Scripted peer-visible path transitions over the in-memory wire: client
// standby -> available, then the server abandons path 1 with data in
// flight on it, so the client receives PATH_STATUS(abandon).
TEST(BehaviourGolden, WirePairPathStatusAndAbandon) {
  telemetry::TraceSink sink(1u << 16);
  sink.set_enabled(true);
  test::WirePair::Options o;
  o.client_config = test::multipath_config();
  o.server_config = test::multipath_config();
  o.client_config.scheduler = mpquic::make_min_rtt_scheduler();
  o.server_config.scheduler = mpquic::make_min_rtt_scheduler();
  o.client_config.trace = &sink;
  o.server_config.trace = &sink;
  test::WirePair pair(std::move(o));
  ASSERT_TRUE(pair.establish());
  pair.run_for(sim::millis(100));
  ASSERT_TRUE(pair.client->open_path().has_value());
  pair.run_for(sim::millis(100));

  pair.client->set_path_status(1, quic::PathStatusKind::kStandby);
  pair.run_for(sim::millis(100));
  pair.client->set_path_status(1, quic::PathStatusKind::kAvailable);
  pair.run_for(sim::millis(100));

  bool blackhole = false;
  pair.drop_server_to_client = [&blackhole](PathId path,
                                            const net::Datagram&) {
    return blackhole && path == 1;
  };
  const quic::StreamId id = pair.client->open_stream();
  pair.client->stream_send(id, test::bytes_of("r"), true);
  pair.run_for(sim::millis(50));
  blackhole = true;
  pair.server->stream_send(id, test::pattern_bytes(300 * 1024, 7), true);
  pair.run_for(sim::millis(120));
  pair.server->abandon_path(1);
  for (int i = 0; i < 40; ++i) {
    pair.run_for(sim::millis(50));
    pair.client->consume_stream(id, 1 << 20);
  }
  const auto* stream = pair.client->recv_stream(id);
  ASSERT_NE(stream, nullptr);
  ASSERT_TRUE(stream->fully_received());

  Fingerprint fp;
  fp.add("events_fired", pair.loop.events_fired());
  fp.add("packets_c2s", pair.packets_c2s);
  fp.add("packets_s2c", pair.packets_s2c);
  add_connection(fp, "client", *pair.client);
  add_connection(fp, "server", *pair.server);
  add_trace(fp, sink);
  EXPECT_EQ(fp.str(), R"(
events_fired=356 packets_c2s=119 packets_s2c=231 client: packets_sent=119
packets_received=231 packets_lost=0 ptos=0 bytes_sent=4232
bytes_received=315980 stream_bytes_sent=1 retransmitted_bytes=0
reinjected_bytes=0 auth_failures=0 acks_sent=114 failovers=0
path_resurrections=0 dead_path_probes=0 fec_repair_packets_sent=0
fec_repair_bytes_sent=0 fec_windows_protected=0 fec_recovered_packets=0
fec_wasted_symbols=0 fec_erased_seen=0 g.violations=0 g.replayed_packets=0
g.ack_frames=7 g.repair_frames=0 g.amplification_blocked=0 g.gap_collapses=0
g.phantom_bytes=0 g.close_resends=0 g.peak_open_recv_streams=1
g.peak_stream_gaps=3 path0=1/0/0/0 path1=3/0/2/1 server: packets_sent=242
packets_received=119 packets_lost=0 ptos=1 bytes_sent=331470
bytes_received=4232 stream_bytes_sent=307200 retransmitted_bytes=16558
reinjected_bytes=0 auth_failures=0 acks_sent=7 failovers=0
path_resurrections=0 dead_path_probes=0 fec_repair_packets_sent=0
fec_repair_bytes_sent=0 fec_windows_protected=0 fec_recovered_packets=0
fec_wasted_symbols=0 fec_erased_seen=0 g.violations=0 g.replayed_packets=0
g.ack_frames=114 g.repair_frames=0 g.amplification_blocked=0
g.gap_collapses=0 g.phantom_bytes=0 g.close_resends=0
g.peak_open_recv_streams=1 g.peak_stream_gaps=1 path0=1/0/0/0 path1=3/1/1/2
trace.recorded=1205 trace.dropped=0 s1.0=1@0 s0.0=1@10000 s1.1=0@120000
s0.1=0@130000 s1.1=1@140000 s0.1=1@150000 s1.1=2@220000 s0.1=2@230000
s1.1=1@320000 s0.1=1@330000 h0.1=1@555000 s0.1=3@590000 s1.1=3@600000
trace.digest=9066631557691303552
)");
}

}  // namespace
}  // namespace xlink
