// Microbenchmarks of the transport primitives (google-benchmark).
//
// These guard the per-packet costs that determine how many emulated
// sessions per second the evaluation harness can run: varint codec, frame
// serialization, packet protection, content synthesis, the FEC row
// operation, interval bookkeeping, the event loop, and a complete small
// video session per scheme.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <functional>
#include <vector>

#include "fec/gf256.h"
#include "harness/scenario.h"
#include "quic/crypto.h"
#include "quic/frame.h"
#include "quic/interval_set.h"
#include "quic/packet.h"
#include "sim/event_loop.h"
#include "trace/synthetic.h"
#include "video/video_model.h"

using namespace xlink;

namespace {

void BM_VarintRoundtrip(benchmark::State& state) {
  const std::uint64_t values[] = {7, 300, 70000, 5'000'000'000ULL};
  for (auto _ : state) {
    quic::Writer w;
    for (std::uint64_t v : values) w.varint(v);
    quic::Reader r(w.data());
    for (int i = 0; i < 4; ++i) benchmark::DoNotOptimize(r.varint());
  }
}
BENCHMARK(BM_VarintRoundtrip);

void BM_StreamFrameRoundtrip(benchmark::State& state) {
  quic::StreamFrame f;
  f.stream_id = 4;
  f.offset = 123456;
  f.data.assign(static_cast<std::size_t>(state.range(0)), 0xab);
  const quic::Frame frame{f};
  for (auto _ : state) {
    quic::Writer w;
    quic::encode_frame(frame, w);
    quic::Reader r(w.data());
    benchmark::DoNotOptimize(quic::parse_frame(r));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StreamFrameRoundtrip)->Arg(256)->Arg(1400);

void BM_AckMpRoundtrip(benchmark::State& state) {
  quic::AckMpFrame f;
  f.path_id = 1;
  for (int i = 0; i < 8; ++i)
    f.info.ranges.push_back({static_cast<quic::PacketNumber>(100 - i * 10),
                             static_cast<quic::PacketNumber>(104 - i * 10)});
  f.qoe = quic::QoeSignal{1'000'000, 120, 2'000'000, 30};
  const quic::Frame frame{f};
  for (auto _ : state) {
    quic::Writer w;
    quic::encode_frame(frame, w);
    quic::Reader r(w.data());
    benchmark::DoNotOptimize(quic::parse_frame(r));
  }
}
BENCHMARK(BM_AckMpRoundtrip);

void BM_PacketSealOpen(benchmark::State& state) {
  quic::PacketProtection aead(0x1234);
  quic::PacketHeader header;
  header.cid_sequence = 1;
  std::vector<quic::Frame> frames;
  quic::StreamFrame f;
  f.data.assign(1400, 0x55);
  frames.emplace_back(std::move(f));
  // The session path: pooled seal, in-place open, frames borrowed into a
  // reused scratch vector (what Connection::on_datagram pays per packet).
  std::vector<quic::Frame> scratch;
  quic::PacketNumber pn = 0;
  for (auto _ : state) {
    header.packet_number = pn++;
    net::PacketBuffer wire = quic::seal_packet_buffer(aead, header, frames);
    const auto pkt = quic::parse_packet_view(wire.span());
    const auto plaintext = quic::open_packet_in_place(aead, *pkt);
    scratch.clear();
    benchmark::DoNotOptimize(quic::parse_frames_into(*plaintext, scratch));
  }
  state.SetBytesProcessed(state.iterations() * 1400);
}
BENCHMARK(BM_PacketSealOpen);

void BM_ContentFill(benchmark::State& state) {
  // One 64 KiB read's worth of server body or client check.
  const video::VideoModel model(video::VideoSpec{});
  std::vector<std::uint8_t> out(64 * 1024);
  std::uint64_t offset = 3;  // unaligned, as stream offsets usually are
  for (auto _ : state) {
    model.fill(offset, out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    offset += out.size();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_ContentFill);

void BM_GfAddmul(benchmark::State& state) {
  // One packet-sized RS row operation with a general coefficient.
  const auto c = static_cast<std::uint8_t>(state.range(0));
  std::vector<std::uint8_t> dst(1200), src(1200);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<std::uint8_t>(i * 7 + 1);
  for (auto _ : state) {
    fec::gf_addmul(dst, src, c);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * 1200);
}
BENCHMARK(BM_GfAddmul)->Arg(0x8e);

void BM_IntervalSetAdd(benchmark::State& state) {
  for (auto _ : state) {
    quic::IntervalSet set;
    // Out-of-order arrival pattern: evens then odds (forces merges).
    for (std::uint64_t i = 0; i < 200; i += 2) set.add(i * 100, i * 100 + 100);
    for (std::uint64_t i = 1; i < 200; i += 2) set.add(i * 100, i * 100 + 100);
    benchmark::DoNotOptimize(set.interval_count());
  }
}
BENCHMARK(BM_IntervalSetAdd);

void BM_EventLoopChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    int fired = 0;
    for (int i = 0; i < 1000; ++i)
      loop.schedule_in(static_cast<sim::Duration>(i % 97), [&fired] {
        ++fired;
      });
    loop.run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EventLoopChurn);

// Schedule+cancel churn: the retransmission-timer pattern (almost every
// armed timer is disarmed before it fires). Exercises the slab free-list,
// generation-tag liveness check, and lazy-deletion compaction.
void BM_EventLoopScheduleCancel(benchmark::State& state) {
  sim::EventLoop loop;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      const sim::EventId id =
          loop.schedule_in(static_cast<sim::Duration>(i % 97 + 1), [] {});
      loop.cancel(id);
    }
    benchmark::DoNotOptimize(loop.pending());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopScheduleCancel);

// Steady-state timer mix: a live population of timers where each firing
// schedules a replacement and cancels a neighbour — the event loop's
// session hot path without any transport logic.
void BM_EventLoopTimerMix(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventLoop loop;
    std::vector<sim::EventId> ids(256, 0);
    std::uint64_t fired = 0;
    std::function<void(std::size_t)> arm = [&](std::size_t slot) {
      ids[slot] = loop.schedule_in(1 + slot % 61, [&, slot] {
        ++fired;
        loop.cancel(ids[(slot + 1) % ids.size()]);
        if (fired < 20000) arm(slot);
      });
    };
    for (std::size_t s = 0; s < ids.size(); ++s) arm(s);
    loop.run();
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EventLoopTimerMix)->Unit(benchmark::kMillisecond);

void BM_FullSession(benchmark::State& state) {
  const auto scheme = static_cast<core::Scheme>(state.range(0));
  for (auto _ : state) {
    harness::SessionConfig cfg;
    cfg.scheme = scheme;
    cfg.video.duration = sim::seconds(3);
    cfg.video.bitrate_bps = 2'000'000;
    cfg.seed = 3;
    cfg.paths.push_back(harness::make_path_spec(
        net::Wireless::kWifi, trace::stable_lte(1, sim::seconds(10)),
        sim::millis(30)));
    cfg.paths.push_back(harness::make_path_spec(
        net::Wireless::kLte, trace::stable_lte(2, sim::seconds(10)),
        sim::millis(80)));
    harness::Session session(std::move(cfg));
    benchmark::DoNotOptimize(session.run().download_finished);
  }
}
BENCHMARK(BM_FullSession)
    ->Arg(static_cast<int>(core::Scheme::kSinglePath))
    ->Arg(static_cast<int>(core::Scheme::kVanillaMp))
    ->Arg(static_cast<int>(core::Scheme::kXlink))
    ->Unit(benchmark::kMillisecond);

}  // namespace
