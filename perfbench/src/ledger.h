// Per-layer cost ledger: span accounting around the public seams of a
// session, plus the small statistics helpers the benchmark reports with.
//
// A span is opened when a call crosses into a layer (a datagram handed to
// Connection::on_datagram, a scheduler decision, a media-server read
// callback, ...) and closed when the call returns. Spans nest on one
// thread; a layer's self time is its span time minus the time of the spans
// opened inside it. Whatever part of Session::run() no span covers is the
// event loop and timer work ("sim.loop"), so the self times plus that
// residual account for 100% of the session's wall time.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kHttpServer,  // MediaServer read callback: content synthesis + stream_send
  kHttpClient,  // MediaClient read callbacks: consume + player feed
  kRxServer,    // Connection::on_datagram on the server endpoint
  kRxClient,    // Connection::on_datagram on the client endpoint
  kNetTx,       // EmulatedPath::send_{up,down} (link enqueue, loss, faults)
  kSched,       // server scheduler calls (select_path, maybe_reinject, ...)
  kCount,
};

constexpr std::size_t kLayerCount = static_cast<std::size_t>(Layer::kCount);

/// Metric-name prefix of a layer ("http.server", "quic.rx_client", ...).
const char* layer_name(Layer layer);

struct LayerTotals {
  std::int64_t total_ns = 0;  // inclusive span time
  std::int64_t child_ns = 0;  // time of spans opened directly inside
  std::uint64_t calls = 0;
  std::int64_t self_ns() const { return total_ns - child_ns; }
};

/// Span accumulator of one session (one thread at a time). Times are
/// passed in explicitly so the arithmetic can be tested on synthetic
/// call trees; Span below supplies steady_clock readings.
class Ledger {
 public:
  static constexpr std::size_t kMaxDepth = 32;

  void open(Layer layer, std::int64_t now_ns);
  void close(std::int64_t now_ns);

  const LayerTotals& layer(Layer l) const {
    return layers_[static_cast<std::size_t>(l)];
  }
  /// Sum of the durations of spans that closed with no enclosing span:
  /// the part of the session wall covered by any seam.
  std::int64_t top_level_ns() const { return top_level_ns_; }
  std::size_t depth() const { return depth_; }
  /// Spans that could not be recorded because the nesting was deeper than
  /// kMaxDepth (a benchmark bug; reported as a failed check).
  std::uint64_t overflows() const { return overflows_; }

  void merge(const Ledger& other);

 private:
  struct Open {
    Layer layer = Layer::kCount;
    std::int64_t start_ns = 0;
  };
  std::array<Open, kMaxDepth> stack_{};
  std::size_t depth_ = 0;
  std::size_t skipped_ = 0;  // opens beyond kMaxDepth awaiting close
  std::array<LayerTotals, kLayerCount> layers_{};
  std::int64_t top_level_ns_ = 0;
  std::uint64_t overflows_ = 0;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// RAII span on a ledger, timed with steady_clock.
class Span {
 public:
  Span(Ledger& ledger, Layer layer) : ledger_(ledger) {
    ledger_.open(layer, now_ns());
  }
  ~Span() { ledger_.close(now_ns()); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Ledger& ledger_;
};

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 for
/// an empty sample.
double quantile(std::vector<double> samples, double q);
double median(std::vector<double> samples);

/// The tail percentile a sample of n supports: the highest whole
/// percentile p such that at least `min_beyond` samples lie strictly above
/// the p-th percentile's rank, i.e. n * (100 - p) / 100 >= min_beyond.
/// Returns 50 when the sample is too small for any higher percentile.
int tail_percentile(std::size_t n, std::size_t min_beyond = 10);

}  // namespace perfbench
