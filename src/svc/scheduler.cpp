#include "svc/scheduler.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "core/optimizer.hpp"
#include "core/solution_io.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/benchmarks.hpp"
#include "svc/fingerprint.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/log.hpp"
#include "util/threads.hpp"

namespace svtox::svc {

namespace {

core::Method method_enum(const std::string& name) {
  if (name == "average") return core::Method::kAverageRandom;
  if (name == "state") return core::Method::kStateOnly;
  if (name == "vtstate") return core::Method::kVtState;
  if (name == "heu1") return core::Method::kHeu1;
  if (name == "heu2") return core::Method::kHeu2;
  if (name == "exact") return core::Method::kExact;
  throw ContractError("unknown method '" + name + "'");
}

/// Library identity of a spec: the four build knobs.
std::string library_key(const JobSpec& spec) {
  std::string key = "lib";
  key += spec.nitrided ? ":nitrided" : ":nominal";
  if (spec.two_point) key += ":two_point";
  if (spec.uniform_stack) key += ":uniform_stack";
  if (spec.vt_only) key += ":vt_only";
  return key;
}

}  // namespace

// --------------------------------------------------------------------------
// Job record
// --------------------------------------------------------------------------

struct Scheduler::JobRecord {
  JobId id = 0;
  JobSpec spec;
  std::atomic<JobStatus> status{JobStatus::kQueued};
  /// The cooperative token seen by the search (SearchOptions::cancel).
  std::atomic<bool> cancel{false};
  std::atomic<bool> user_cancelled{false};
  std::atomic<bool> deadline_fired{false};
  /// Set by an interrupting shutdown: the job stops cooperatively and
  /// reports kCancelled with a resume hint instead of a deadline message.
  std::atomic<bool> shutdown_fired{false};
  JobResult result;  ///< Written under Scheduler::mu_ before status flips.
};

// --------------------------------------------------------------------------
// Shared resource pool (libraries, netlists) with build dedup
// --------------------------------------------------------------------------

class Scheduler::ResourcePool {
 public:
  struct LibraryEntry {
    liberty::Library library;
    std::uint64_t fp = 0;
  };
  struct CircuitEntry {
    std::shared_ptr<const LibraryEntry> library;  ///< Keeps the lib alive.
    netlist::Netlist netlist;
    std::uint64_t fp = 0;
    CircuitEntry(std::shared_ptr<const LibraryEntry> lib, netlist::Netlist nl)
        : library(std::move(lib)), netlist(std::move(nl)) {}
  };

  std::shared_ptr<const LibraryEntry> library(const JobSpec& spec) {
    return get<LibraryEntry>(libraries_, library_key(spec), [&spec] {
      liberty::LibraryOptions options;
      options.variant_options.four_point = !spec.two_point;
      options.variant_options.uniform_stack = spec.uniform_stack;
      options.variant_options.vt_only = spec.vt_only;
      const model::TechParams& tech = spec.nitrided ? model::TechParams::nitrided()
                                                    : model::TechParams::nominal();
      auto entry = std::make_shared<LibraryEntry>(
          LibraryEntry{liberty::Library::build(tech, options), 0});
      entry->fp = fingerprint_library(entry->library);
      return entry;
    });
  }

  std::shared_ptr<const CircuitEntry> circuit(
      const std::shared_ptr<const LibraryEntry>& lib, const JobSpec& spec) {
    std::string key = library_key(spec) + "|";
    if (!spec.circuit.empty()) {
      key += "circuit:" + spec.circuit;
    } else if (!spec.bench_text.empty()) {
      // Inline cones are content-addressed outright; the netlist is named
      // by the same hash, so identical cone text -- wherever it came from
      // -- shares one pool entry, one fingerprint, one cache key.
      key += "benchtext:" + hex64(Fnv().str(spec.bench_text).value());
    } else {
      // Content-address the file so an edited netlist misses the pool.
      std::ifstream in(spec.bench_path);
      if (!in) {
        // kIo: a transient filesystem hiccup is retryable (JobSpec::retries).
        throw Error(ErrorCode::kIo,
                    "cannot read bench file '" + spec.bench_path + "'");
      }
      std::ostringstream text;
      text << in.rdbuf();
      key += "bench:" + hex64(Fnv().str(text.str()).value());
    }
    return get<CircuitEntry>(circuits_, key, [&lib, &spec] {
      netlist::Netlist netlist = [&]() {
        if (!spec.circuit.empty()) {
          return netlist::make_benchmark(spec.circuit, lib->library);
        }
        if (!spec.bench_text.empty()) {
          const std::string name =
              "bt" + hex64(Fnv().str(spec.bench_text).value());
          return netlist::read_bench(spec.bench_text, name, lib->library, name);
        }
        return netlist::read_bench_file(spec.bench_path, lib->library);
      }();
      auto entry = std::make_shared<CircuitEntry>(lib, std::move(netlist));
      entry->fp = fingerprint_netlist(entry->netlist);
      return entry;
    });
  }

 private:
  template <typename E>
  struct Slot {
    std::shared_ptr<const E> value;
    std::exception_ptr error;
    bool ready = false;
  };
  template <typename E>
  using SlotMap = std::map<std::string, std::shared_ptr<Slot<E>>>;

  /// Returns the pooled entry, building it via `build` exactly once per
  /// key; concurrent first requests block on the builder instead of
  /// duplicating a (potentially expensive) characterization. A failed
  /// build propagates to every waiter and clears the slot so a later
  /// request can retry.
  template <typename E, typename Build>
  std::shared_ptr<const E> get(SlotMap<E>& slots, const std::string& key,
                               Build build) {
    std::shared_ptr<Slot<E>> slot;
    bool builder = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      auto it = slots.find(key);
      if (it == slots.end()) {
        slot = std::make_shared<Slot<E>>();
        slots.emplace(key, slot);
        builder = true;
      } else {
        slot = it->second;
      }
      if (!builder) {
        cv_.wait(lock, [&slot] { return slot->ready; });
        if (slot->error) std::rethrow_exception(slot->error);
        return slot->value;
      }
    }
    try {
      std::shared_ptr<const E> value = build();
      std::lock_guard<std::mutex> lock(mu_);
      slot->value = value;
      slot->ready = true;
      cv_.notify_all();
      return value;
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      slot->error = std::current_exception();
      slot->ready = true;
      slots.erase(key);  // allow retry by a later job
      cv_.notify_all();
      throw;
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  SlotMap<LibraryEntry> libraries_;
  SlotMap<CircuitEntry> circuits_;
};

// --------------------------------------------------------------------------
// Per-worker optimizer contexts
// --------------------------------------------------------------------------

class Scheduler::WorkerState {
 public:
  explicit WorkerState(std::size_t capacity) : capacity_(std::max<std::size_t>(1, capacity)) {}

  /// The worker's persistent optimizer for this circuit; holds the
  /// per-penalty AssignmentProblems and Monte-Carlo baselines across jobs.
  core::StandbyOptimizer& optimizer_for(
      const std::shared_ptr<const ResourcePool::CircuitEntry>& circuit) {
    const std::string key = hex64(circuit->library->fp) + hex64(circuit->fp);
    auto it = contexts_.find(key);
    if (it == contexts_.end()) {
      while (contexts_.size() >= capacity_) evict_oldest();
      Context context;
      context.circuit = circuit;
      context.optimizer = std::make_unique<core::StandbyOptimizer>(circuit->netlist);
      it = contexts_.emplace(key, std::move(context)).first;
    }
    it->second.last_use = ++tick_;
    return *it->second.optimizer;
  }

 private:
  struct Context {
    std::shared_ptr<const ResourcePool::CircuitEntry> circuit;
    std::unique_ptr<core::StandbyOptimizer> optimizer;
    std::uint64_t last_use = 0;
  };

  void evict_oldest() {
    auto oldest = contexts_.begin();
    for (auto it = contexts_.begin(); it != contexts_.end(); ++it) {
      if (it->second.last_use < oldest->second.last_use) oldest = it;
    }
    contexts_.erase(oldest);
  }

  std::size_t capacity_;
  std::uint64_t tick_ = 0;
  std::map<std::string, Context> contexts_;
};

// --------------------------------------------------------------------------
// Scheduler
// --------------------------------------------------------------------------

Scheduler::Scheduler(const Options& options) : options_(options) {
  SolutionCache::Options cache_options;
  cache_options.capacity = options.cache_capacity;
  cache_options.shards = options.cache_shards;
  cache_options.disk_dir = options.cache_dir;
  cache_ = std::make_unique<SolutionCache>(cache_options);
  if (!options.checkpoint_dir.empty()) {
    // Best-effort create; a failed mkdir surfaces as checkpoint-write
    // warnings, never as job failures.
    ::mkdir(options.checkpoint_dir.c_str(), 0777);
  }
  pool_ = std::make_unique<ResourcePool>();
  queue_ = std::make_unique<JobQueue>(options.queue_capacity);

  const int workers = resolve_thread_count(options.workers, 256);
  options_.workers = workers;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
  monitor_ = std::thread([this] { monitor_loop(); });
}

Scheduler::~Scheduler() { shutdown(/*drain=*/true); }

JobId Scheduler::submit(const JobSpec& spec) {
  validate_job_spec(spec);
  std::shared_ptr<JobRecord> record = std::make_shared<JobRecord>();
  record->spec = spec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!accepting_) throw ContractError("scheduler is shutting down");
    record->id = next_id_++;
    jobs_.emplace(record->id, record);
    if (spec.deadline_s > 0.0) {
      deadlines_.emplace(std::chrono::steady_clock::now() +
                             std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                 std::chrono::duration<double>(spec.deadline_s)),
                         record->id);
      monitor_cv_.notify_one();
    }
  }
  // Blocking push = backpressure toward submitters when the queue is full.
  if (!queue_->push(record->id, spec.priority)) {
    std::lock_guard<std::mutex> lock(mu_);
    record->result.status = JobStatus::kCancelled;
    record->result.error = "scheduler shut down before the job was queued";
    record->status.store(JobStatus::kCancelled);
    throw ContractError("scheduler is shutting down");
  }
  return record->id;
}

std::optional<JobId> Scheduler::try_submit(const JobSpec& spec) {
  validate_job_spec(spec);
  std::shared_ptr<JobRecord> record = std::make_shared<JobRecord>();
  record->spec = spec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!accepting_) throw ContractError("scheduler is shutting down");
    record->id = next_id_++;
    jobs_.emplace(record->id, record);
  }
  if (!queue_->try_push(record->id, spec.priority)) {
    // Queue full (or closing): undo the reservation. The burned id keeps
    // `submitted` counting admission attempts, which is what it reports.
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.erase(record->id);
    return std::nullopt;
  }
  if (spec.deadline_s > 0.0) {
    std::lock_guard<std::mutex> lock(mu_);
    deadlines_.emplace(std::chrono::steady_clock::now() +
                           std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                               std::chrono::duration<double>(spec.deadline_s)),
                       record->id);
    monitor_cv_.notify_one();
  }
  return record->id;
}

std::shared_ptr<Scheduler::JobRecord> Scheduler::find(JobId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

bool Scheduler::cancel(JobId id) {
  std::shared_ptr<JobRecord> record = find(id);
  if (record == nullptr) return false;
  std::unique_lock<std::mutex> lock(mu_);
  const JobStatus status = record->status.load();
  if (status == JobStatus::kQueued) {
    if (queue_->remove(id)) {
      record->result.status = JobStatus::kCancelled;
      record->result.error = "cancelled";
      record->result.label = record->spec.label;
      record->status.store(JobStatus::kCancelled);
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      completed_.fetch_add(1, std::memory_order_relaxed);
      terminal_cv_.notify_all();
      return true;
    }
    // Raced with a worker's pop: fall through to the running path.
  } else if (status != JobStatus::kRunning) {
    return false;  // already terminal
  }
  record->user_cancelled.store(true);
  record->cancel.store(true);
  return true;
}

JobStatus Scheduler::status(JobId id) const {
  std::shared_ptr<JobRecord> record = find(id);
  if (record == nullptr) throw ContractError("unknown job id");
  return record->status.load();
}

JobResult Scheduler::wait(JobId id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(id);
  if (it == jobs_.end()) throw ContractError("unknown job id");
  std::shared_ptr<JobRecord> record = it->second;
  terminal_cv_.wait(lock, [&record] {
    const JobStatus s = record->status.load();
    return s == JobStatus::kDone || s == JobStatus::kFailed ||
           s == JobStatus::kCancelled;
  });
  return record->result;
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.submitted = next_id_ - 1;
  }
  out.completed = completed_.load(std::memory_order_relaxed);
  out.failed = failed_.load(std::memory_order_relaxed);
  out.cancelled = cancelled_.load(std::memory_order_relaxed);
  out.executed = executed_.load(std::memory_order_relaxed);
  out.retried = retried_.load(std::memory_order_relaxed);
  out.queued = queue_->size();
  out.running = running_.load(std::memory_order_relaxed);
  out.workers = options_.workers;
  out.cache = cache_->stats();
  return out;
}

void Scheduler::finish(JobRecord& record, JobResult result, JobStatus status) {
  result.status = status;
  {
    std::lock_guard<std::mutex> lock(mu_);
    record.result = std::move(result);
    record.status.store(status);
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (status == JobStatus::kFailed) failed_.fetch_add(1, std::memory_order_relaxed);
  if (status == JobStatus::kCancelled) cancelled_.fetch_add(1, std::memory_order_relaxed);
  terminal_cv_.notify_all();
}

void Scheduler::worker_loop(int worker_index) {
  (void)worker_index;
  WorkerState state(options_.contexts_per_worker);
  while (std::optional<JobId> id = queue_->pop()) {
    std::shared_ptr<JobRecord> record = find(*id);
    if (record == nullptr) continue;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (record->status.load() != JobStatus::kQueued) continue;
      record->status.store(JobStatus::kRunning);
    }
    running_.fetch_add(1, std::memory_order_relaxed);
    execute(state, *record);
    running_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Scheduler::execute(WorkerState& state, JobRecord& record) {
  const JobSpec& spec = record.spec;
  JobResult result;
  result.method = spec.method;
  result.penalty_percent = spec.penalty_percent;
  result.label = spec.label;

  std::string key;
  bool cache_owner = false;
  // fetch_or_lock must run at most once per job: a second call by the same
  // owner would deadlock on its own inflight marker.
  bool cache_checked = false;
  for (int attempt = 0;; ++attempt) {
    try {
      SVTOX_FAIL_POINT("job_execute");
      std::shared_ptr<const ResourcePool::LibraryEntry> library = pool_->library(spec);
      std::shared_ptr<const ResourcePool::CircuitEntry> circuit =
          pool_->circuit(library, spec);
      result.circuit = circuit->netlist.name();
      result.gates = circuit->netlist.num_gates();

      RunKnobs knobs;
      knobs.method = spec.method;
      knobs.penalty_fraction = spec.penalty_percent / 100.0;
      knobs.time_limit_s = spec.time_limit_s;
      knobs.random_vectors = spec.random_vectors;
      knobs.seed = spec.seed;
      knobs.search_threads = spec.search_threads;
      knobs.max_leaves = spec.max_leaves;
      knobs.pinned_inputs = spec.pinned_inputs;
      knobs.boundary_timing = spec.boundary_timing;
      const std::string job_key = cache_key(library->fp, circuit->fp, knobs);

      if (spec.use_cache && !cache_checked) {
        cache_checked = true;
        key = job_key;
        std::optional<JobResult> cached = cache_->fetch_or_lock(key);
        if (cached) {
          cached->label = spec.label;  // echo the submitter's tag, not the solver's
          finish(record, std::move(*cached), JobStatus::kDone);
          return;
        }
        cache_owner = true;
      }

      core::StandbyOptimizer& optimizer = state.optimizer_for(circuit);
      core::RunConfig config;
      config.penalty_fraction = spec.penalty_percent / 100.0;
      config.time_limit_s = spec.time_limit_s;
      config.random_vectors = spec.random_vectors;
      config.seed = spec.seed;
      config.threads = spec.search_threads;
      config.cancel = &record.cancel;
      config.max_leaves = spec.max_leaves;
      const core::Method method = method_enum(spec.method);
      if (!options_.checkpoint_dir.empty() &&
          (method == core::Method::kStateOnly || method == core::Method::kVtState ||
           method == core::Method::kHeu2 || method == core::Method::kExact)) {
        // Content-addressed checkpoint file: an interrupted job's snapshot
        // is picked up by any resubmission of the same job.
        config.checkpoint_path = options_.checkpoint_dir + "/" + job_key + ".ckpt";
        config.checkpoint_every_s = options_.checkpoint_every_s;
      }
      if (!spec.pinned_inputs.empty()) {
        // Boundary-aware cone solve: length-check against the *resolved*
        // netlist (validate_job_spec cannot -- it never sees the circuit).
        if (spec.pinned_inputs.size() !=
            static_cast<std::size_t>(circuit->netlist.num_control_points())) {
          throw ContractError("pins want one char per control point (" +
                              std::to_string(circuit->netlist.num_control_points()) +
                              "), got " + std::to_string(spec.pinned_inputs.size()));
        }
        config.pinned_inputs = parse_pinned_inputs(spec.pinned_inputs);
      }
      if (!spec.boundary_timing.empty()) {
        config.boundary = parse_boundary_timing(spec.boundary_timing);
        if (config.boundary.points.size() !=
            static_cast<std::size_t>(circuit->netlist.num_control_points())) {
          throw ContractError(
              "boundary timing wants one arrival:slew pair per control point (" +
              std::to_string(circuit->netlist.num_control_points()) + "), got " +
              std::to_string(config.boundary.points.size()));
        }
      }
      const core::MethodResult run = optimizer.run(method, config);

      result.leakage_ua = run.leakage_ua;
      result.reduction_x = run.reduction_x;
      result.delay_ps = run.solution.delay_ps;
      result.states_explored = run.solution.states_explored;
      result.interrupted = run.solution.interrupted;
      result.runtime_s =
          method == core::Method::kAverageRandom ? run.runtime_s : run.solution.runtime_s;
      if (method != core::Method::kAverageRandom) {
        result.solution_text = core::write_solution(run.solution, circuit->netlist);
      }
      executed_.fetch_add(1, std::memory_order_relaxed);

      if (cache_owner) {
        // Interrupted results are not stored (publish abandons them).
        cache_->publish(key, result);
      }
      if (result.interrupted && record.user_cancelled.load()) {
        result.error = "cancelled (best-so-far solution attached)";
        finish(record, std::move(result), JobStatus::kCancelled);
      } else if (result.interrupted && record.shutdown_fired.load()) {
        result.error =
            "interrupted by shutdown (best-so-far attached; resubmit to resume)";
        finish(record, std::move(result), JobStatus::kCancelled);
      } else {
        if (result.interrupted && record.deadline_fired.load()) {
          result.error = "deadline expired (best-so-far solution attached)";
        }
        finish(record, std::move(result), JobStatus::kDone);
      }
      return;
    } catch (const Error& e) {
      if (e.retryable() && attempt < spec.retries &&
          !record.cancel.load(std::memory_order_relaxed)) {
        retried_.fetch_add(1, std::memory_order_relaxed);
        log_warn("job " + std::to_string(record.id) + " attempt " +
                 std::to_string(attempt + 1) + " failed (" + e.what() +
                 "); retrying");
        continue;
      }
      if (cache_owner) cache_->abandon(key);
      result.error = e.what();
      result.error_code = to_string(e.code());
      finish(record, std::move(result), JobStatus::kFailed);
      return;
    } catch (const std::exception& e) {
      // Non-Error exceptions (contract violations, bad_alloc, ...) are
      // never retried: they would fail identically every time.
      if (cache_owner) cache_->abandon(key);
      result.error = e.what();
      result.error_code = "internal";
      finish(record, std::move(result), JobStatus::kFailed);
      return;
    }
  }
}

void Scheduler::monitor_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (monitor_stop_) return;
    if (deadlines_.empty()) {
      monitor_cv_.wait(lock);
      continue;
    }
    const auto [when, id] = deadlines_.top();
    const auto now = std::chrono::steady_clock::now();
    if (now < when) {
      monitor_cv_.wait_until(lock, when);
      continue;
    }
    deadlines_.pop();
    auto it = jobs_.find(id);
    if (it == jobs_.end()) continue;
    JobRecord& record = *it->second;
    const JobStatus status = record.status.load();
    if (status == JobStatus::kQueued && queue_->remove(id)) {
      record.result.status = JobStatus::kCancelled;
      record.result.error = "deadline expired before the job started";
      record.result.label = record.spec.label;
      record.status.store(JobStatus::kCancelled);
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      completed_.fetch_add(1, std::memory_order_relaxed);
      terminal_cv_.notify_all();
    } else if (status == JobStatus::kQueued || status == JobStatus::kRunning) {
      record.deadline_fired.store(true);
      record.cancel.store(true);
    }
  }
}

void Scheduler::shutdown(bool drain, bool interrupt_running) {
  std::lock_guard<std::mutex> shutdown_lock(shutdown_mu_);
  if (stopped_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
  }
  if (interrupt_running) {
    // Ask running jobs to stop cooperatively. A checkpointing search
    // snapshots its frontier before returning, so these jobs resume on
    // resubmission instead of restarting.
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, record] : jobs_) {
      (void)id;
      if (record->status.load() == JobStatus::kRunning) {
        record->shutdown_fired.store(true);
        record->cancel.store(true);
      }
    }
  }
  if (!drain) {
    for (const JobId id : queue_->clear()) {
      std::shared_ptr<JobRecord> record = find(id);
      if (record == nullptr) continue;
      std::lock_guard<std::mutex> lock(mu_);
      record->result.status = JobStatus::kCancelled;
      record->result.error = "scheduler shut down";
      record->result.label = record->spec.label;
      record->status.store(JobStatus::kCancelled);
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      completed_.fetch_add(1, std::memory_order_relaxed);
      terminal_cv_.notify_all();
    }
  }
  queue_->close();
  for (std::thread& worker : workers_) worker.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    monitor_stop_ = true;
    monitor_cv_.notify_all();
  }
  if (monitor_.joinable()) monitor_.join();
  stopped_ = true;
}

}  // namespace svtox::svc
