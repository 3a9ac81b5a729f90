#pragma once

// Multi-job execution engine: N worker threads pop the JobQueue and run
// each job through app::run_structured under a *shared* thread budget.
// The total budget comes from parallel::resolve_thread_count; each
// concurrent job is capped at budget/concurrency threads, so one huge
// condensed-phase job cannot starve a campaign of small screening jobs
// — it just uses its slice while the others keep flowing.
//
// The scheduler owns the engine's only queue (per-tenant backlogs, see
// engine/queue.hpp) and its only job table: every admitted id moves
// queued -> running -> terminal JobRecord there, and fronts read it
// through status(), wait() and drain(). Admission rejects, which never
// get an id, file under id 0 in submission order.
//
// Each job is its own fault domain: any exception escaping the driver
// (injected faults included) is caught on the worker, retried up to
// `max_job_retries` times — resuming from the job's checkpoint when one
// was written — and finally reported as a failed JobRecord. One job's
// failure never kills the engine.
//
// Metrics land in an obs::Registry under the `engine.*` namespace:
// engine.jobs_submitted / jobs_rejected / jobs_completed / jobs_failed,
// engine.cache_hits / cache_misses, engine.job_retries, and the
// engine.queue_wait_seconds / engine.job_run_seconds timers. Durability
// adds engine.jobs_shed / jobs_degraded / jobs_replayed,
// engine.deadline.expired, and engine.retry.backoff_ms.
//
// Durability (docs/engine.md): with `journal_path` set every job
// transition is written ahead to a checksummed journal (`submitted` at
// acceptance, before a worker can pick the job up), so a killed
// campaign resumes — committed jobs served from their journaled
// records, in-flight jobs from their checkpoints — with bit-identical
// physics and zero duplicated SCF work. With `store_dir` set the
// ResultStore writes through to disk, so a resumed campaign's cache is
// warm. Per-job wall-clock deadlines are enforced by a watchdog thread
// that cancels overdue attempts at the next SCF-iteration cancellation
// point; the attempt is retried after a seeded jittered exponential
// backoff.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/job.hpp"
#include "engine/journal.hpp"
#include "engine/queue.hpp"
#include "engine/result_store.hpp"
#include "fault/cancel.hpp"
#include "obs/registry.hpp"

namespace mthfx::engine {

/// Seeded jittered exponential backoff: attempt k (1-based) waits
/// base_ms * 2^(k-1) capped at max_ms, scaled into
/// [delay*(1-jitter), delay] by a uniform draw that is a pure hash of
/// (seed, job_id, attempt) — so a fixed seed replays the exact delays.
struct BackoffOptions {
  double base_ms = 10.0;
  double max_ms = 1000.0;
  double jitter = 0.5;  ///< jittered fraction of the delay, in [0, 1]
  std::uint64_t seed = 0;
};

double backoff_delay_ms(const BackoffOptions& options, std::uint64_t job_id,
                        std::size_t attempt);

struct EngineOptions {
  std::size_t concurrency = 2;      ///< concurrent jobs (worker threads)
  /// Bound on the untenanted backlog (jobs submitted without a tenant);
  /// named tenants are bounded by their TenantOptions::max_queued.
  std::size_t queue_capacity = 256;
  /// Shared thread budget across all concurrent jobs; 0 resolves to
  /// hardware concurrency via parallel::resolve_thread_count.
  std::size_t total_threads = 0;
  /// Engine-level re-runs of a job whose driver threw (on top of the
  /// per-task retries inside the HFX builder).
  std::size_t max_job_retries = 1;
  bool cache = true;                ///< serve duplicates from ResultStore
  /// When non-empty, each job checkpoints to
  /// <checkpoint_dir>/job_<id>.ckpt and a retried attempt restores from
  /// it, so a re-run resumes instead of starting over.
  std::string checkpoint_dir;
  /// Write-ahead journal file (empty = off). See Journal.
  std::string journal_path;
  /// ResultStore persistence directory (empty = memory only) and its
  /// byte budget (0 = unbounded; LRU eviction above it).
  std::string store_dir;
  std::uint64_t store_max_bytes = 0;
  /// Deadline applied to jobs that don't carry their own
  /// (Job::deadline_seconds); 0 = no deadline.
  double default_deadline_seconds = 0.0;
  /// How often the watchdog scans running attempts for blown deadlines.
  double watchdog_poll_ms = 5.0;
  /// Retry backoff policy (engine-level retries only).
  BackoffOptions backoff;
  /// Load shedding: a strictly-higher-priority submission to a full
  /// backlog displaces that backlog's lowest-priority queued job instead
  /// of being rejected.
  bool shed_lowest = true;
  /// Graceful degradation: when > 0 and the queue is at least this deep
  /// at pickup, DFT jobs run on a coarsened XC grid (flagged in the
  /// record). 0 disables.
  std::size_t degrade_depth = 0;
};

class JobScheduler {
 public:
  explicit JobScheduler(EngineOptions options = {});
  ~JobScheduler();

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Admission-controlled submission into `job.tenant`'s backlog. A
  /// rejected job still produces a JobRecord (state kRejected) in the
  /// final report, as does a queued job later displaced by load
  /// shedding.
  Admission submit(Job job);

  /// Adopt a journal-replayed record: it joins the job table (flagged
  /// `replayed`), its result warms the cache, and no SCF work runs.
  void adopt(JobRecord record);

  /// Withdraw a job still waiting in its backlog. The canceled record
  /// (state kCanceled, `note` in error) is journaled as committed so a
  /// resume never resurrects it. Returns false with `*error` set when
  /// the job was already picked up, or is not pending at all.
  bool cancel(std::uint64_t id, const std::string& note, std::string* error);

  /// State of job `id` in the table; nullopt for an unknown id.
  std::optional<JobState> status(std::uint64_t id) const;

  /// Block until job `id` is terminal and return its record; nullopt
  /// when the id is unknown or `timeout_seconds` (0 = no limit) runs
  /// out first.
  std::optional<JobRecord> wait(std::uint64_t id, double timeout_seconds);

  /// Block until every admitted job is terminal.
  void wait_idle();

  /// Ids in the job table, and how many of them are terminal.
  std::size_t tracked_jobs() const;
  std::size_t terminal_jobs() const;

  /// Launch the worker threads (idempotent; submit works before or
  /// after).
  void start();

  /// Close the queue, run every admitted job to completion, join the
  /// workers, and return all records (rejections included) ordered by
  /// job id (rejected jobs, which never get an id, sort first in
  /// submission order). Calling it again returns the same records.
  std::vector<JobRecord> drain();

  const EngineOptions& options() const { return options_; }
  /// Resolved shared budget and the per-job cap derived from it.
  std::size_t total_threads() const { return total_threads_; }
  std::size_t per_job_threads() const { return per_job_threads_; }

  JobQueue& queue() { return queue_; }
  const JobQueue& queue() const { return queue_; }
  ResultStore& store() { return store_; }
  const ResultStore& store() const { return store_; }
  Journal& journal() { return journal_; }
  const Journal& journal() const { return journal_; }
  obs::Registry& registry() { return registry_; }
  const obs::Registry& registry() const { return registry_; }

 private:
  struct ActiveAttempt {
    double deadline_seconds = 0.0;
    std::chrono::steady_clock::time_point started;
    std::shared_ptr<fault::CancelToken> token;
  };

  void worker_loop(std::size_t worker_id);
  JobRecord execute(Job job, double wait_seconds, std::size_t worker_id);
  /// File a record in the job table: it replaces the job's queued or
  /// running entry (or is added) and wakes waiters.
  void publish(JobRecord record);
  void watchdog_loop();
  void stop_watchdog();

  EngineOptions options_;
  std::size_t total_threads_ = 1;
  std::size_t per_job_threads_ = 1;
  JobQueue queue_;
  ResultStore store_;
  Journal journal_;
  obs::Registry registry_;

  obs::Counter c_submitted_, c_rejected_, c_completed_, c_failed_;
  obs::Counter c_cache_hits_, c_cache_misses_, c_retries_;
  obs::Counter c_shed_, c_degraded_, c_replayed_;
  obs::Counter c_deadline_expired_, c_backoff_ms_;
  obs::Timer t_wait_, t_run_;

  // The job table (see the header comment). A multimap so id-0
  // rejects keep their submission order; every other id is unique.
  mutable std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;
  std::multimap<std::uint64_t, JobRecord> jobs_;
  std::size_t open_ = 0;  ///< entries still queued or running

  // Running attempts, scanned by the watchdog for blown deadlines.
  std::mutex active_mutex_;
  std::unordered_map<std::uint64_t, ActiveAttempt> active_;
  std::mutex watchdog_mutex_;
  std::condition_variable watchdog_cv_;
  bool stopping_ = false;
  std::thread watchdog_;

  std::vector<std::thread> workers_;
  bool started_ = false;
};

}  // namespace mthfx::engine
