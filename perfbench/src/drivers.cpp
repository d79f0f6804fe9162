#include "drivers.h"

#include <cstring>
#include <vector>

#include "fec/framer.h"
#include "ledger.h"
#include "quic/crypto.h"
#include "quic/frame.h"
#include "quic/packet.h"
#include "sim/event_loop.h"
#include "sim/rng.h"
#include "video/video_model.h"

namespace perfbench {
namespace {

namespace quic = xlink::quic;

constexpr int kBatches = 7;

/// Keeps a value or buffer observable so the timed work is not elided.
template <typename T>
void escape(T* p) {
  asm volatile("" : : "g"(p) : "memory");
}

/// Median over kBatches batches of `ops` operations of body(ops), in ns
/// per operation, after one warm-up batch.
template <typename Body>
double per_op_ns(std::size_t ops, Body&& body) {
  body(ops);
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = now_ns();
    body(ops);
    const std::int64_t t1 = now_ns();
    per_op.push_back(static_cast<double>(t1 - t0) /
                     static_cast<double>(ops));
  }
  return median(std::move(per_op));
}

std::vector<std::uint8_t> random_bytes(xlink::sim::Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64());
  return v;
}

quic::PacketHeader one_rtt_header(xlink::sim::Rng& rng, quic::PacketNumber pn) {
  quic::PacketHeader h;
  h.type = quic::PacketType::kOneRtt;
  for (auto& b : h.dcid) b = static_cast<std::uint8_t>(rng.next_u64());
  h.cid_sequence = 0;
  h.packet_number = pn;
  return h;
}

/// One sealed packet and its opened payload, as the session datapath
/// produces and consumes them.
struct PacketSample {
  quic::PacketHeader header;
  std::vector<quic::Frame> frames;
  std::vector<std::uint8_t> wire;       // sealed datagram
  std::vector<std::uint8_t> plaintext;  // opened payload (frames)
  std::size_t payload = 0;              // payload bytes before the tag
};

PacketSample make_sample(const quic::PacketProtection& aead,
                         quic::PacketHeader header,
                         std::vector<quic::Frame> frames, bool& ok) {
  PacketSample s;
  s.header = header;
  s.frames = std::move(frames);
  xlink::net::PacketBuffer sealed =
      quic::seal_packet_buffer(aead, header, s.frames);
  s.wire.assign(sealed.begin(), sealed.end());
  std::vector<std::uint8_t> work = s.wire;
  auto view = quic::parse_packet_view(work);
  if (!view) {
    ok = false;
    return s;
  }
  auto plain = quic::open_packet_in_place(aead, *view);
  if (!plain) {
    ok = false;
    return s;
  }
  s.plaintext.assign(plain->begin(), plain->end());
  s.payload = s.plaintext.size();
  std::vector<quic::Frame> parsed;
  ok = ok && quic::parse_frames_into(s.plaintext, parsed) &&
       parsed.size() == s.frames.size();
  return s;
}

struct AeadTimes {
  double seal_ns = 0;
  double open_ns = 0;
};

/// seal_in_place / open_in_place over a payload of `len` bytes. Each open
/// first restores the ciphertext (one memcpy of len + tag bytes), since
/// opening decrypts in place.
AeadTimes time_aead(const quic::PacketProtection& aead,
                    xlink::sim::Rng& rng, std::size_t len, bool& ok) {
  const std::vector<std::uint8_t> aad = random_bytes(rng, 10);
  std::vector<std::uint8_t> buf = random_bytes(rng, len + quic::kAeadTagSize);
  AeadTimes t;
  quic::PacketNumber pn = 0;
  t.seal_ns = per_op_ns(4096, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      aead.seal_in_place(0, pn++, aad, buf.data(), len);
      escape(buf.data());
    }
  });
  aead.seal_in_place(0, 7, aad, buf.data(), len);
  const std::vector<std::uint8_t> sealed = buf;
  std::vector<std::uint8_t> work(sealed.size());
  t.open_ns = per_op_ns(4096, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      std::memcpy(work.data(), sealed.data(), sealed.size());
      const auto r = aead.open_in_place(0, 7, aad, work);
      if (!r || *r != len) ok = false;
      escape(work.data());
    }
  });
  return t;
}

double time_build(const quic::PacketProtection& aead, const PacketSample& s) {
  return per_op_ns(4096, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      xlink::net::PacketBuffer b =
          quic::seal_packet_buffer(aead, s.header, s.frames);
      escape(b.data());
    }
  });
}

double time_parse(const PacketSample& s, bool& ok) {
  std::vector<std::uint8_t> wire = s.wire;
  std::vector<quic::Frame> frames;
  return per_op_ns(4096, [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      auto view = quic::parse_packet_view(wire);
      frames.clear();
      if (!view || !quic::parse_frames_into(s.plaintext, frames)) ok = false;
      escape(&frames);
    }
  });
}

double time_content(std::uint64_t seed) {
  xlink::video::VideoSpec spec;
  spec.duration = xlink::sim::seconds(20);
  spec.bitrate_bps = 8'000'000;
  spec.seed = seed;
  const xlink::video::VideoModel model(spec);
  constexpr std::size_t kRange = 64 * 1024;
  std::uint64_t offset = 0;
  std::uint8_t acc = 0;
  const double per_range = per_op_ns(16, [&](std::size_t n) {
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t i = 0; i < kRange; ++i)
        acc = static_cast<std::uint8_t>(acc + model.byte_at(offset + i));
      offset = (offset + kRange) % (8 * 1024 * 1024);
      escape(&acc);
    }
  });
  return per_range / static_cast<double>(kRange);
}

double time_fec(xlink::sim::Rng& rng, bool& ok) {
  xlink::fec::FecConfig cfg;
  cfg.enabled = true;
  cfg.window = 8;
  cfg.min_repairs = 2;
  cfg.max_repairs = 2;
  xlink::fec::FecFramer framer(cfg);
  xlink::fec::RecoveryBuffer recovery(cfg);
  std::vector<quic::Frame> frames;
  std::vector<xlink::fec::RecoveryBuffer::Recovered> out;
  std::vector<std::uint8_t> wire = random_bytes(rng, 1200);
  quic::PacketNumber pn = 0;
  std::int64_t now = 0;
  // One window per op: 8 source packets, the 4th erased, 2 repairs.
  const double per_window = per_op_ns(256, [&](std::size_t n) {
    for (std::size_t w = 0; w < n; ++w) {
      const quic::PacketNumber first = pn;
      std::size_t recovered = 0;
      for (std::size_t i = 0; i < cfg.window; ++i) {
        wire[0] = static_cast<std::uint8_t>(pn);
        wire[1] = static_cast<std::uint8_t>(pn >> 8);
        frames.clear();
        framer.on_packet_sent(0, pn, wire, now, 0.05, frames);
        if (pn != first + 3) recovery.on_source(0, pn, wire, now);
        ++pn;
        for (auto& f : frames) {
          out.clear();
          recovery.on_repair(0, std::get<quic::RepairFrame>(f), now, out);
          recovered += out.size();
        }
      }
      if (recovered != 1) ok = false;
      ++now;
    }
  });
  out.clear();
  return per_window / static_cast<double>(cfg.window);
}

double time_event_loop() {
  constexpr std::size_t kEvents = 1 << 16;
  std::uint64_t fired = 0;
  return per_op_ns(kEvents, [&](std::size_t n) {
    xlink::sim::EventLoop loop;
    for (std::size_t i = 0; i < n; ++i)
      loop.schedule_in(static_cast<xlink::sim::Duration>(i % 9973),
                       [&fired] { ++fired; });
    loop.run();
    escape(&fired);
  });
}

}  // namespace

DriverTimes run_drivers(std::uint64_t seed) {
  DriverTimes t;
  xlink::sim::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const quic::PacketProtection aead(rng.next_u64());

  // A data packet: one STREAM frame filling a 1200-byte payload.
  quic::StreamFrame stream;
  stream.stream_id = 4;
  stream.offset = 1 << 20;
  stream.data = random_bytes(rng, 1190);
  const PacketSample data = make_sample(aead, one_rtt_header(rng, 1000),
                                        {quic::Frame{stream}}, t.ok);
  // The smallest packet a session sends in bulk: ack-only, ACK_MP with the
  // piggybacked QoE signal.
  quic::AckMpFrame ack;
  ack.path_id = 1;
  ack.info.ack_delay_us = 25;
  ack.info.ranges = {{1000, 1040}, {990, 998}};
  ack.qoe = quic::QoeSignal{3 << 20, 90, 8'000'000, 30};
  const PacketSample ack_only = make_sample(aead, one_rtt_header(rng, 1001),
                                            {quic::Frame{ack}}, t.ok);
  t.payload_1200 = data.payload;
  t.payload_min = ack_only.payload;

  const AeadTimes big = time_aead(aead, rng, data.payload, t.ok);
  const AeadTimes small = time_aead(aead, rng, ack_only.payload, t.ok);
  t.seal_ns_1200 = big.seal_ns;
  t.open_ns_1200 = big.open_ns;
  t.seal_ns_min = small.seal_ns;
  t.open_ns_min = small.open_ns;
  t.build_ns_1200 = std::max(0.0, time_build(aead, data) - big.seal_ns);
  t.build_ns_ack = std::max(0.0, time_build(aead, ack_only) - small.seal_ns);
  t.parse_ns_1200 = time_parse(data, t.ok);
  t.parse_ns_ack = time_parse(ack_only, t.ok);
  t.content_ns_per_byte = time_content(rng.next_u64());
  t.fec_ns_per_pkt = time_fec(rng, t.ok);
  t.event_ns = time_event_loop();
  return t;
}

}  // namespace perfbench
