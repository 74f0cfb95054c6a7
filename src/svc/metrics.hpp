// Prometheus text exposition of the daemon's counters.
//
// One render function, fed plain stats structs so it stays trivially
// testable: the `metrics` request handler in the server collects
// SchedulerStats + per-shard CacheStats and hands them here. Output follows
// the Prometheus text format (# HELP / # TYPE headers, `name{labels} value`
// samples, LF line ends).
#pragma once

#include <string>
#include <vector>

#include "svc/scheduler.hpp"

namespace svtox::svc {

/// Renders all daemon counters as Prometheus text.
std::string render_prometheus(const SchedulerStats& scheduler,
                              const std::vector<CacheStats>& shards);

}  // namespace svtox::svc
