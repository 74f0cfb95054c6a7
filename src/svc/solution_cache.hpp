// Sharded, thread-safe, content-addressed solution cache.
//
// Keys are svc::cache_key fingerprints (library + netlist + run knobs);
// values are completed JobResults whose `solution_text` is the canonical
// core::write_solution artifact, so a hit is byte-identical to re-solving.
//
// Three mechanisms:
//  * LRU over a bounded entry count, per shard (shard = hash(key) % N, so
//    unrelated circuits never contend on one mutex).
//  * Inflight dedup: the first fetch_or_lock() miss for a key makes the
//    caller the *owner* (it must later publish() or abandon()); concurrent
//    fetches for the same key block until the owner publishes rather than
//    solving the same instance twice. If the owner abandons (job failed or
//    was cancelled), one waiter is promoted to owner and re-solves.
//  * Optional disk persistence: published entries are mirrored to
//    `<dir>/<key>.svcache` (one JSON metadata line + the solution text in
//    the existing core/solution_io format) and misses fall back to disk,
//    so repeated suite/sweep runs across process restarts are near-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>
#include <condition_variable>

#include "svc/job.hpp"

namespace svtox::svc {

struct CacheStats {
  std::uint64_t hits = 0;            ///< Served from memory.
  std::uint64_t disk_hits = 0;       ///< Served from the persistence dir.
  std::uint64_t misses = 0;          ///< Caller became owner and must solve.
  std::uint64_t inflight_waits = 0;  ///< Blocked on a concurrent solve.
  std::uint64_t evictions = 0;
  std::uint64_t corrupt = 0;         ///< Disk entries rejected (bad checksum
                                     ///< or malformed) and removed.
  std::uint64_t entries = 0;         ///< Current resident entries.
  std::uint64_t inflight = 0;        ///< Keys currently owned by a solver.
};

class SolutionCache {
 public:
  struct Options {
    std::size_t capacity = 1024;  ///< Total entries across shards.
    std::size_t shards = 8;
    std::string disk_dir;         ///< Empty = memory-only.
  };

  explicit SolutionCache(const Options& options);

  /// Returns the cached result on a hit (memory, then disk). On a miss the
  /// caller becomes the owner of `key` and nullopt is returned: it must
  /// call publish() or abandon() exactly once. Blocks while another owner
  /// is inflight on the same key.
  std::optional<JobResult> fetch_or_lock(const std::string& key);

  /// Owner fulfills the key; waiters wake with a copy. Results flagged
  /// interrupted are not canonical for their key and are treated as
  /// abandon().
  void publish(const std::string& key, const JobResult& result);

  /// Owner gives up (failure/cancel); one waiter is promoted to owner.
  void abandon(const std::string& key);

  /// Peek without inflight participation (no blocking, no ownership).
  std::optional<JobResult> peek(const std::string& key);

  /// Aggregate across shards (the historical counters).
  CacheStats stats() const;
  /// One CacheStats per shard, in shard order -- the scrape-friendly view
  /// (a hot shard shows up as one skewed row, not as diluted totals).
  std::vector<CacheStats> shard_stats() const;
  std::size_t num_shards() const { return shards_.size(); }
  const std::string& disk_dir() const { return disk_dir_; }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    // Values + LRU (front = most recent).
    std::unordered_map<std::string, JobResult> values;
    std::list<std::string> lru;
    std::unordered_map<std::string, std::list<std::string>::iterator> lru_pos;
    std::unordered_set<std::string> inflight;
    // Monotonic per-shard counters; atomic (not under mu) so publishing
    // never orders against the stats reader.
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> disk_hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> inflight_waits{0};
    std::atomic<std::uint64_t> evictions{0};
    mutable std::atomic<std::uint64_t> corrupt{0};
  };

  Shard& shard_for(const std::string& key);
  void touch_locked(Shard& shard, const std::string& key);
  void insert_locked(Shard& shard, const std::string& key, const JobResult& result);

  std::optional<JobResult> load_disk(const Shard& shard,
                                     const std::string& key) const;
  void store_disk(const std::string& key, const JobResult& result) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t per_shard_capacity_;
  std::string disk_dir_;
};

}  // namespace svtox::svc
