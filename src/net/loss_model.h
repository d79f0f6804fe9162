// Packet loss models applied at the egress of emulated links.
//
// Trace-driven links already model capacity-induced queueing and outage
// behaviour; these models add the random residual loss of wireless channels
// plus configurable deterministic outage windows used by controlled
// experiments.
#pragma once

#include <memory>
#include <vector>

#include "sim/rng.h"
#include "sim/time.h"

namespace xlink::net {

class LossModel {
 public:
  virtual ~LossModel() = default;
  /// Returns true if the packet leaving at `now` should be dropped.
  virtual bool should_drop(sim::Time now, sim::Rng& rng) = 0;
};

/// Never drops.
class NoLoss final : public LossModel {
 public:
  bool should_drop(sim::Time, sim::Rng&) override { return false; }
};

/// Independent (Bernoulli) loss with fixed probability.
class BernoulliLoss final : public LossModel {
 public:
  explicit BernoulliLoss(double p) : p_(p) {}
  bool should_drop(sim::Time, sim::Rng& rng) override { return rng.chance(p_); }

 private:
  double p_;
};

/// Two-state Gilbert-Elliott bursty loss: a good state with low loss and a
/// bad state with high loss; state transition sampled per packet.
class GilbertElliottLoss final : public LossModel {
 public:
  GilbertElliottLoss(double p_good_to_bad, double p_bad_to_good,
                     double loss_good, double loss_bad)
      : p_gb_(p_good_to_bad),
        p_bg_(p_bad_to_good),
        loss_good_(loss_good),
        loss_bad_(loss_bad) {}

  bool should_drop(sim::Time now, sim::Rng& rng) override;

 private:
  double p_gb_, p_bg_, loss_good_, loss_bad_;
  bool bad_ = false;
};

/// Drops every packet inside the configured absolute time windows; models
/// hard link outages (e.g. a Wi-Fi AP handoff) deterministically.
class OutageWindows final : public LossModel {
 public:
  struct Window {
    sim::Time begin;
    sim::Time end;
  };
  explicit OutageWindows(std::vector<Window> windows)
      : windows_(std::move(windows)) {}

  bool should_drop(sim::Time now, sim::Rng&) override;

 private:
  std::vector<Window> windows_;
};

/// Applies the union of several models (drop if any model drops).
class CompositeLoss final : public LossModel {
 public:
  explicit CompositeLoss(std::vector<std::unique_ptr<LossModel>> models)
      : models_(std::move(models)) {}

  bool should_drop(sim::Time now, sim::Rng& rng) override;

 private:
  std::vector<std::unique_ptr<LossModel>> models_;
};

}  // namespace xlink::net
