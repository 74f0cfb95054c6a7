// Persistent job scheduler: a worker pool over the bounded priority
// JobQueue, executing OptimizeJobs against shared, content-addressed
// resources.
//
// What persists across jobs (the point of a service vs. one-shot CLI runs):
//  * A process-wide resource pool: characterized libraries and finalized
//    netlists are built once per content fingerprint and shared read-only
//    by every worker (library characterization dominates small-job cost).
//    Concurrent first requests for the same library dedup onto one build.
//  * Per-worker optimizer contexts: each worker keeps an LRU of
//    core::StandbyOptimizer instances keyed by (library, netlist)
//    fingerprint. The optimizer owns the per-penalty AssignmentProblems --
//    the canonicalization memos, variant menus and load-sliced NLDM tables
//    that LeafEvaluator/BoundEngine construction consumes -- plus the
//    Monte-Carlo baseline cache, so a job stream touching the same block
//    at many penalty points pays the setup once per worker.
//  * The SolutionCache: solved instances are returned byte-identical
//    without re-solving; concurrent identical submissions solve once.
//
// Each job gets a cooperative cancellation token (plumbed into
// opt::SearchOptions::cancel). Explicit cancel() requests and per-job
// deadlines (a monitor thread fires them) set the token: a running search
// returns its best-so-far incumbent flagged `interrupted`, a still-queued
// job is dropped as kCancelled. Shutdown is graceful: by default the
// backlog is drained, running jobs always complete.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "svc/job.hpp"
#include "svc/job_queue.hpp"
#include "svc/solution_cache.hpp"

namespace svtox::svc {

struct SchedulerStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;   ///< Terminal for any reason.
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t executed = 0;    ///< Actually solved (not cache-served).
  std::uint64_t retried = 0;     ///< Re-run attempts after retryable errors.
  std::size_t queued = 0;
  std::size_t running = 0;
  int workers = 0;
  CacheStats cache;
};

struct SchedulerOptions {
  int workers = 1;                 ///< 0 = all hardware threads.
  std::size_t queue_capacity = 256;
  std::size_t cache_capacity = 1024;
  std::size_t cache_shards = 8;
  std::string cache_dir;           ///< Disk persistence; empty = off.
  std::size_t contexts_per_worker = 8;  ///< Optimizer LRU per worker.
  /// Search checkpoint directory; empty = off. When set, every cacheable
  /// state-search job snapshots its search to
  /// `<checkpoint_dir>/<cache_key>.ckpt`, an interrupting shutdown (see
  /// shutdown()) leaves a resumable snapshot behind, and a resubmission of
  /// the same job resumes instead of restarting.
  std::string checkpoint_dir;
  double checkpoint_every_s = 5.0;  ///< Snapshot cadence (seconds).
};

class Scheduler {
 public:
  using Options = SchedulerOptions;

  explicit Scheduler(const Options& options = Options());
  ~Scheduler();  ///< shutdown(/*drain=*/true).

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Validates and enqueues; blocks while the queue is at capacity.
  /// Throws ContractError on an invalid spec or after shutdown began.
  JobId submit(const JobSpec& spec);

  /// Non-blocking admission: like submit() but returns nullopt instead of
  /// blocking when the queue is at capacity -- the server turns that into
  /// an explicit retryable "busy" reply rather than a hung connection.
  std::optional<JobId> try_submit(const JobSpec& spec);

  /// Cancels a queued job outright or requests cooperative cancellation of
  /// a running one; false when the job is unknown or already terminal.
  bool cancel(JobId id);

  /// Throws ContractError for unknown ids.
  JobStatus status(JobId id) const;

  /// Blocks until the job is terminal, then returns its result.
  JobResult wait(JobId id);

  SchedulerStats stats() const;
  SolutionCache& cache() { return *cache_; }

  /// Stops the pool. drain=true (the default, and what the destructor
  /// does) lets queued jobs run to completion first; drain=false cancels
  /// the backlog and only finishes the jobs already running. With
  /// interrupt_running=true, running jobs are additionally asked to stop
  /// cooperatively (checkpointing searches snapshot first) and finish as
  /// kCancelled with their best-so-far attached -- the daemon's
  /// SIGTERM/SIGINT path. Idempotent; concurrent callers block until the
  /// pool is down.
  void shutdown(bool drain = true, bool interrupt_running = false);

 private:
  struct JobRecord;
  class ResourcePool;
  class WorkerState;

  void worker_loop(int worker_index);
  void monitor_loop();
  void execute(WorkerState& state, JobRecord& record);
  std::shared_ptr<JobRecord> find(JobId id) const;
  void finish(JobRecord& record, JobResult result, JobStatus status);

  Options options_;
  std::unique_ptr<SolutionCache> cache_;
  std::unique_ptr<ResourcePool> pool_;
  std::unique_ptr<JobQueue> queue_;

  mutable std::mutex mu_;
  std::condition_variable terminal_cv_;   ///< Signalled on any job finish.
  std::condition_variable monitor_cv_;
  std::map<JobId, std::shared_ptr<JobRecord>> jobs_;
  /// Min-heap of (expiry, id) served by the monitor thread.
  std::priority_queue<std::pair<std::chrono::steady_clock::time_point, JobId>,
                      std::vector<std::pair<std::chrono::steady_clock::time_point, JobId>>,
                      std::greater<>>
      deadlines_;
  JobId next_id_ = 1;
  bool accepting_ = true;
  bool monitor_stop_ = false;

  std::mutex shutdown_mu_;  ///< Serializes shutdown(); taken before mu_.
  bool stopped_ = false;    ///< Guarded by shutdown_mu_.

  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> retried_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::size_t> running_{0};

  std::vector<std::thread> workers_;
  std::thread monitor_;
};

}  // namespace svtox::svc
