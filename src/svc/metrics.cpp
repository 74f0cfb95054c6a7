#include "svc/metrics.hpp"

namespace svtox::svc {

namespace {

void header(std::string& out, const std::string& name, const std::string& help,
            const char* type) {
  out += "# HELP " + name + " " + help + "\n";
  out += "# TYPE " + name + " " + type + "\n";
}

void sample(std::string& out, const std::string& name, std::uint64_t value) {
  out += name + " " + std::to_string(value) + "\n";
}

void sample(std::string& out, const std::string& name, const std::string& labels,
            std::uint64_t value) {
  out += name + "{" + labels + "} " + std::to_string(value) + "\n";
}

}  // namespace

std::string render_prometheus(const SchedulerStats& scheduler,
                              const std::vector<CacheStats>& shards) {
  std::string out;
  out.reserve(4096);

  header(out, "svtox_jobs_total", "Jobs by lifecycle event.", "counter");
  sample(out, "svtox_jobs_total", "event=\"submitted\"", scheduler.submitted);
  sample(out, "svtox_jobs_total", "event=\"completed\"", scheduler.completed);
  sample(out, "svtox_jobs_total", "event=\"failed\"", scheduler.failed);
  sample(out, "svtox_jobs_total", "event=\"cancelled\"", scheduler.cancelled);
  sample(out, "svtox_jobs_total", "event=\"executed\"", scheduler.executed);
  sample(out, "svtox_jobs_total", "event=\"retried\"", scheduler.retried);

  header(out, "svtox_queue_depth", "Jobs waiting in the priority queue.", "gauge");
  sample(out, "svtox_queue_depth", scheduler.queued);
  header(out, "svtox_jobs_running", "Jobs currently executing.", "gauge");
  sample(out, "svtox_jobs_running", scheduler.running);
  header(out, "svtox_workers", "Worker threads in the pool.", "gauge");
  sample(out, "svtox_workers", static_cast<std::uint64_t>(scheduler.workers));

  header(out, "svtox_cache_ops_total", "Solution cache operations per shard.",
         "counter");
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const std::string shard = "shard=\"" + std::to_string(s) + "\"";
    sample(out, "svtox_cache_ops_total", shard + ",op=\"hit\"", shards[s].hits);
    sample(out, "svtox_cache_ops_total", shard + ",op=\"disk_hit\"",
           shards[s].disk_hits);
    sample(out, "svtox_cache_ops_total", shard + ",op=\"miss\"", shards[s].misses);
    sample(out, "svtox_cache_ops_total", shard + ",op=\"inflight_wait\"",
           shards[s].inflight_waits);
    sample(out, "svtox_cache_ops_total", shard + ",op=\"eviction\"",
           shards[s].evictions);
    sample(out, "svtox_cache_ops_total", shard + ",op=\"corrupt\"",
           shards[s].corrupt);
  }
  header(out, "svtox_cache_entries", "Resident cache entries per shard.", "gauge");
  for (std::size_t s = 0; s < shards.size(); ++s) {
    sample(out, "svtox_cache_entries", "shard=\"" + std::to_string(s) + "\"",
           shards[s].entries);
  }
  header(out, "svtox_cache_inflight", "Keys owned by an inflight solve, per shard.",
         "gauge");
  for (std::size_t s = 0; s < shards.size(); ++s) {
    sample(out, "svtox_cache_inflight", "shard=\"" + std::to_string(s) + "\"",
           shards[s].inflight);
  }

  return out;
}

}  // namespace svtox::svc
