#include "svc/solution_cache.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace svtox::svc {

SolutionCache::SolutionCache(const Options& options)
    : per_shard_capacity_(std::max<std::size_t>(
          1, options.capacity / std::max<std::size_t>(1, options.shards))),
      disk_dir_(options.disk_dir) {
  const std::size_t shards = std::max<std::size_t>(1, options.shards);
  shards_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (!disk_dir_.empty()) {
    // Best-effort create; a failed mkdir surfaces on the first store.
    ::mkdir(disk_dir_.c_str(), 0777);
  }
}

SolutionCache::Shard& SolutionCache::shard_for(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

void SolutionCache::touch_locked(Shard& shard, const std::string& key) {
  auto pos = shard.lru_pos.find(key);
  if (pos == shard.lru_pos.end()) return;
  shard.lru.erase(pos->second);
  shard.lru.push_front(key);
  pos->second = shard.lru.begin();
}

void SolutionCache::insert_locked(Shard& shard, const std::string& key,
                                  const JobResult& result) {
  if (shard.values.count(key) != 0) {
    shard.values[key] = result;
    touch_locked(shard, key);
    return;
  }
  shard.values.emplace(key, result);
  shard.lru.push_front(key);
  shard.lru_pos[key] = shard.lru.begin();
  std::uint64_t evicted = 0;
  while (shard.values.size() > per_shard_capacity_) {
    const std::string victim = shard.lru.back();
    shard.lru.pop_back();
    shard.lru_pos.erase(victim);
    shard.values.erase(victim);
    ++evicted;
  }
  shard.evictions.fetch_add(evicted, std::memory_order_relaxed);
}

std::optional<JobResult> SolutionCache::fetch_or_lock(const std::string& key) {
  Shard& shard = shard_for(key);
  bool counted_wait = false;
  std::unique_lock<std::mutex> lock(shard.mu);
  for (;;) {
    auto it = shard.values.find(key);
    if (it != shard.values.end()) {
      touch_locked(shard, key);
      JobResult result = it->second;
      result.cache_hit = true;
      shard.hits.fetch_add(1, std::memory_order_relaxed);
      return result;
    }
    if (shard.inflight.count(key) == 0) {
      shard.inflight.insert(key);
      lock.unlock();
      // Owner path: consult the persistence dir before conceding a miss.
      if (std::optional<JobResult> from_disk = load_disk(shard, key)) {
        from_disk->cache_hit = true;
        publish(key, *from_disk);
        shard.disk_hits.fetch_add(1, std::memory_order_relaxed);
        return from_disk;
      }
      shard.misses.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    if (!counted_wait) {
      counted_wait = true;
      shard.inflight_waits.fetch_add(1, std::memory_order_relaxed);
    }
    shard.cv.wait(lock);
  }
}

void SolutionCache::publish(const std::string& key, const JobResult& result) {
  if (result.interrupted) {
    // A best-so-far incumbent is not the canonical answer for this key.
    abandon(key);
    return;
  }
  Shard& shard = shard_for(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    insert_locked(shard, key, result);
    shard.inflight.erase(key);
  }
  shard.cv.notify_all();
  if (!disk_dir_.empty() && !result.cache_hit) store_disk(key, result);
}

void SolutionCache::abandon(const std::string& key) {
  Shard& shard = shard_for(key);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.inflight.erase(key);
  }
  shard.cv.notify_all();
}

std::optional<JobResult> SolutionCache::peek(const std::string& key) {
  Shard& shard = shard_for(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.values.find(key);
  if (it == shard.values.end()) return std::nullopt;
  JobResult result = it->second;
  result.cache_hit = true;
  return result;
}

CacheStats SolutionCache::stats() const {
  CacheStats out;
  for (const CacheStats& s : shard_stats()) {
    out.hits += s.hits;
    out.disk_hits += s.disk_hits;
    out.misses += s.misses;
    out.inflight_waits += s.inflight_waits;
    out.evictions += s.evictions;
    out.corrupt += s.corrupt;
    out.entries += s.entries;
    out.inflight += s.inflight;
  }
  return out;
}

std::vector<CacheStats> SolutionCache::shard_stats() const {
  std::vector<CacheStats> out;
  out.reserve(shards_.size());
  for (const auto& s : shards_) {
    CacheStats stats;
    stats.hits = s->hits.load(std::memory_order_relaxed);
    stats.disk_hits = s->disk_hits.load(std::memory_order_relaxed);
    stats.misses = s->misses.load(std::memory_order_relaxed);
    stats.inflight_waits = s->inflight_waits.load(std::memory_order_relaxed);
    stats.evictions = s->evictions.load(std::memory_order_relaxed);
    stats.corrupt = s->corrupt.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> shard_lock(s->mu);
      stats.entries = s->values.size();
      stats.inflight = s->inflight.size();
    }
    out.push_back(stats);
  }
  return out;
}

std::optional<JobResult> SolutionCache::load_disk(const Shard& shard,
                                                  const std::string& key) const {
  if (disk_dir_.empty()) return std::nullopt;
  const std::string path = disk_dir_ + "/" + key + ".svcache";
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string meta_line;
  if (!std::getline(in, meta_line)) return std::nullopt;
  try {
    SVTOX_FAIL_POINT("cache_read");
    const Json meta = Json::parse(meta_line);
    JobResult result = job_result_from_json(meta);
    std::ostringstream text;
    text << in.rdbuf();
    result.solution_text = text.str();
    // Entries written since the checksum was added carry the text's
    // FNV-1a; verify it so a truncated or bit-rotted payload is dropped
    // instead of served as the canonical solution.
    if (const Json* stored = meta.get("text_fnv")) {
      if (stored->as_string() != hex64(fnv1a64(result.solution_text))) {
        throw Error(ErrorCode::kCorrupt, "solution text checksum mismatch");
      }
    }
    return result;
  } catch (const std::exception& e) {
    log_warn("solution cache: dropping corrupt entry " + key + ": " + e.what());
    shard.corrupt.fetch_add(1, std::memory_order_relaxed);
    std::remove(path.c_str());
    return std::nullopt;
  }
}

void SolutionCache::store_disk(const std::string& key, const JobResult& result) const {
  const std::string path = disk_dir_ + "/" + key + ".svcache";
  const std::string tmp = path + ".tmp";
  try {
    SVTOX_FAIL_POINT("cache_write");
    {
      std::ofstream out(tmp, std::ios::trunc);
      if (!out) throw Error(ErrorCode::kIo, "cannot write " + tmp);
      // Metadata line first (without the embedded text, but with its
      // checksum), then the verbatim solution_io payload.
      Json meta = job_result_to_json(result, /*include_solution=*/false);
      meta.set("text_fnv", hex64(fnv1a64(result.solution_text)));
      out << meta.dump() << '\n';
      out << result.solution_text;
      out.flush();
      if (!out) throw Error(ErrorCode::kIo, "short write on " + tmp);
    }
    // Atomic swap so a concurrent reader never sees a torn file.
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      std::remove(tmp.c_str());
      throw Error(ErrorCode::kIo, "cannot rename " + tmp);
    }
  } catch (const std::exception& e) {
    // Persistence is an optimization: a failed write costs a future
    // re-solve, never the current job.
    log_warn(std::string("solution cache: ") + e.what());
  }
}

}  // namespace svtox::svc
