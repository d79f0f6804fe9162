// Transport scheme catalogue: one place that wires up every transport
// configuration the paper evaluates, so benches, tests, and examples agree
// on what "vanilla-MP" or "XLINK" means.
#pragma once

#include <string>

#include "core/xlink_scheduler.h"
#include "quic/connection.h"

namespace xlink::core {

enum class Scheme {
  kSinglePath,       // SP: single-path QUIC
  kConnMigration,    // CM: single-path QUIC + connection migration
  kVanillaMp,        // min-RTT multipath, no re-injection (MPQUIC default)
  kMptcpLike,        // min-RTT + original-path acks + TCP-style RTO
  kRedundant,        // full duplication (cost upper bound)
  kReinjectNoQoe,    // re-injection always on, appending mode (§5.2 strawman)
  kXlink,            // full XLINK
};

std::string to_string(Scheme scheme);

/// Tunables that differ per experiment.
struct SchemeOptions {
  quic::CcAlgorithm cc = quic::CcAlgorithm::kCubic;
  DoubleThresholdConfig control;  // XLINK double thresholds
  /// Overrides XLINK's ack path policy (Fig. 8 compares both).
  quic::AckPathPolicy xlink_ack_policy = quic::AckPathPolicy::kFastestPath;
  /// Overrides XLINK's re-injection insertion mode (Fig. 4 ablation).
  quic::InsertMode xlink_insert_mode = quic::InsertMode::kPriority;
  /// Which loss-protection mechanisms XLINK runs (FEC ablation arms).
  XlinkRedundancy xlink_redundancy = XlinkRedundancy::kReinject;
  /// FEC tunables (window size, repair budget). `enabled` and `protect`
  /// are derived from `xlink_redundancy` and the role.
  fec::FecConfig fec;
  /// Token-bucket pacing of data sends (off by default so existing arms
  /// stay byte-identical; the BBR ablation arms switch it on).
  bool pacing = false;
};

/// Builds the connection config for one side of a connection running the
/// given scheme. Multipath schemes negotiate enable_multipath; single-path
/// schemes do not offer it.
quic::Connection::Config make_scheme_config(Scheme scheme, quic::Role role,
                                            const SchemeOptions& opts = {});

/// True if the scheme uses more than one concurrent path.
bool is_multipath(Scheme scheme);

}  // namespace xlink::core
