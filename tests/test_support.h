// Shared helpers for transport tests: a pair of connections joined by a
// configurable in-memory wire (fixed delay, scripted drops) -- no link
// emulation, so tests can isolate protocol behaviour.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>

#include "quic/connection.h"
#include "sim/event_loop.h"

namespace xlink::test {

class WirePair {
 public:
  struct Options {
    sim::Duration client_to_server = sim::millis(10);
    sim::Duration server_to_client = sim::millis(10);
    quic::Connection::Config client_config;
    quic::Connection::Config server_config;
  };

  explicit WirePair(Options options) : options_(std::move(options)) {
    options_.client_config.role = quic::Role::kClient;
    options_.server_config.role = quic::Role::kServer;
    client = std::make_unique<quic::Connection>(loop, options_.client_config);
    server = std::make_unique<quic::Connection>(loop, options_.server_config);

    client->set_send_callback(
        [this](quic::PathId path, net::Datagram d) {
          if (drop_client_to_server && drop_client_to_server(path, d)) return;
          ++packets_c2s;
          loop.schedule_in(options_.client_to_server,
                           [this, path, d = std::move(d)]() mutable {
                             server->on_datagram(path, std::move(d));
                           });
        });
    server->set_send_callback(
        [this](quic::PathId path, net::Datagram d) {
          if (drop_server_to_client && drop_server_to_client(path, d)) return;
          ++packets_s2c;
          loop.schedule_in(options_.server_to_client,
                           [this, path, d = std::move(d)]() mutable {
                             client->on_datagram(path, std::move(d));
                           });
        });
  }

  /// Runs the loop for `duration` of simulated time.
  void run_for(sim::Duration duration) { loop.run_until(loop.now() + duration); }

  /// Connects and runs until established (or the deadline).
  bool establish(sim::Duration deadline = sim::seconds(2)) {
    client->connect();
    const sim::Time until = loop.now() + deadline;
    while (loop.now() < until &&
           !(client->is_established() && server->is_established())) {
      loop.run_until(loop.now() + sim::millis(5));
    }
    return client->is_established() && server->is_established();
  }

  sim::EventLoop loop;
  Options options_;
  std::unique_ptr<quic::Connection> client;
  std::unique_ptr<quic::Connection> server;
  std::function<bool(quic::PathId, const net::Datagram&)> drop_client_to_server;
  std::function<bool(quic::PathId, const net::Datagram&)> drop_server_to_client;
  std::uint64_t packets_c2s = 0;
  std::uint64_t packets_s2c = 0;
};

inline quic::Connection::Config multipath_config() {
  quic::Connection::Config cfg;
  cfg.params.enable_multipath = true;
  return cfg;
}

/// A sent-packet record of `bytes` wire bytes for a loss ledger.
inline quic::SentRecord sent_record(quic::PacketNumber pn, std::size_t bytes,
                                    sim::Time sent_time = 0) {
  quic::SentRecord rec;
  rec.pn = pn;
  rec.sent_time = sent_time;
  rec.bytes = bytes;
  return rec;
}

inline std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

inline std::vector<std::uint8_t> pattern_bytes(std::size_t n,
                                               std::uint8_t seed = 1) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<std::uint8_t>(seed + i * 131);
  return out;
}

/// Runs the pair for `duration` in 1 ms steps and checks every range of
/// server stream `id` in flight at some step (a packet stays in flight for
/// a round trip, far longer than a step): bytes [begin, end) of the stream
/// carry video-frame priority `prio` on ranges that do not straddle the
/// bounds, all other bytes carry 0, and the prioritized ranges span
/// exactly [begin, end).
inline void expect_sent_frame_priority(WirePair& pair, quic::StreamId id,
                                       std::uint64_t begin, std::uint64_t end,
                                       int prio, sim::Duration duration) {
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t hi = 0;
  for (sim::Duration t = 0; t < duration; t += sim::millis(1)) {
    pair.run_for(sim::millis(1));
    for (quic::PathId p : pair.server->path_ids()) {
      const quic::LossDetection& ledger = pair.server->path_state(p).loss;
      for (const auto& [pn, rec] : ledger.records()) {
        for (const quic::SendItem& it : rec.items) {
          if (it.stream_id != id || it.length == 0) continue;
          const std::uint64_t it_end = it.offset + it.length;
          if (it.offset < end && it_end > begin) {
            EXPECT_GE(it.offset, begin);
            EXPECT_LE(it_end, end);
            EXPECT_EQ(it.frame_priority, prio) << "range at " << it.offset;
            lo = std::min(lo, it.offset);
            hi = std::max(hi, it_end);
          } else {
            EXPECT_EQ(it.frame_priority, 0) << "range at " << it.offset;
          }
        }
      }
    }
  }
  EXPECT_EQ(lo, begin);
  EXPECT_EQ(hi, end);
}

}  // namespace xlink::test
