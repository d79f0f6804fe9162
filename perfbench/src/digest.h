// Output identity: a digest of every deterministic SessionResult field and
// the canonical shard-codec text of a day's metrics.
#pragma once

#include <cstdint>
#include <string>

#include "harness/shard.h"

namespace perfbench {

/// FNV-1a over every field of the result except the telemetry registry
/// (which also counts trace-sink events when a sink is attached).
std::uint64_t digest(const xlink::harness::SessionResult& r);

/// The shard codec's text for an A/B cell result (wall time zeroed): two
/// DayMetrics are identical exactly when their texts are byte-equal.
std::string cell_text(const xlink::harness::shard::CellResult& result);

}  // namespace perfbench
