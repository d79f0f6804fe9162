#include "ledger.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kHttpServer: return "http.server";
    case Layer::kHttpClient: return "http.client";
    case Layer::kRxServer: return "quic.rx_server";
    case Layer::kRxClient: return "quic.rx_client";
    case Layer::kNetTx: return "net.tx";
    case Layer::kSched: return "sched";
    case Layer::kCount: break;
  }
  return "?";
}

void Ledger::open(Layer layer, std::int64_t now_ns) {
  if (depth_ == kMaxDepth) {
    ++skipped_;
    ++overflows_;
    return;
  }
  stack_[depth_++] = Open{layer, now_ns};
}

void Ledger::close(std::int64_t now_ns) {
  if (skipped_ > 0) {
    --skipped_;
    return;
  }
  if (depth_ == 0) {
    ++overflows_;  // unbalanced close
    return;
  }
  const Open span = stack_[--depth_];
  const std::int64_t dur = now_ns - span.start_ns;
  LayerTotals& t = layers_[static_cast<std::size_t>(span.layer)];
  t.total_ns += dur;
  ++t.calls;
  if (depth_ > 0) {
    layers_[static_cast<std::size_t>(stack_[depth_ - 1].layer)].child_ns +=
        dur;
  } else {
    top_level_ns_ += dur;
  }
}

void Ledger::merge(const Ledger& other) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    layers_[i].total_ns += other.layers_[i].total_ns;
    layers_[i].child_ns += other.layers_[i].child_ns;
    layers_[i].calls += other.layers_[i].calls;
  }
  top_level_ns_ += other.top_level_ns_;
  overflows_ += other.overflows_;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

int tail_percentile(std::size_t n, std::size_t min_beyond) {
  if (n == 0) return 50;
  // Smallest whole share (in percent) of n that still holds min_beyond
  // samples: ceil(100 * min_beyond / n).
  const std::size_t share = (100 * min_beyond + n - 1) / n;
  if (share >= 50) return 50;
  return static_cast<int>(std::min<std::size_t>(99, 100 - share));
}

}  // namespace perfbench
