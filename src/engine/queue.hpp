#pragma once

// The engine's one job queue: a bounded backlog per tenant, admission
// control at submit, weighted deficit round-robin at pickup. `submit`
// never blocks — when the arrival's backlog is full (or the queue is
// closed, or the job is unusable) the job is rejected *with a reason*,
// so a front-end can throttle, shed, or report instead of wedging the
// submitter. Workers block in `pop`.
//
// Backlogs: `Job::tenant` picks one. The untenanted backlog (tenant "",
// used by mthfx_queue and campaign files) holds up to `capacity` jobs;
// a named tenant's holds up to its TenantOptions::max_queued. With
// `shed_lowest`, a strictly-higher-priority arrival at a full backlog
// displaces that backlog's lowest-priority (then youngest) job, so one
// tenant's burst never displaces another tenant's work.
//
// Ordering: within a backlog, higher priority first, FIFO (id order)
// within a level. Across backlogs, each pickup goes to the tenant with
// pending work, under its max_in_flight cap, that is richest in
// accumulated weight credit. Jobs all cost one unit, so deficit
// round-robin reduces to weighted fairness over job counts: tenants at
// weights 2:1 are picked up 2:1 whenever both have work waiting. A
// picked job counts as in flight for its tenant until `finish`.
//
// A job is claimed for a waiting worker the moment both exist (at
// submit, finish, or pop), so a tenant's in-flight count never lags an
// idle worker.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/job.hpp"
#include "obs/stopwatch.hpp"

namespace mthfx::engine {

/// Per-tenant fair-share configuration.
struct TenantOptions {
  /// Relative DRR share; tenants at weights 2:1 are picked up 2:1 while
  /// both have work waiting. Must be > 0 (fractional weights allowed).
  double weight = 1.0;
  /// Backlog cap: pending (not yet picked up) jobs per tenant. Beyond
  /// it submissions are rejected with a structured `tenant quota:`
  /// reason (or shed a lower-priority pending job of the same tenant).
  std::size_t max_queued = 256;
  /// Cap on picked-up-but-not-finished jobs; 0 = unlimited.
  std::size_t max_in_flight = 0;
};

/// Snapshot of one tenant's accounting (see JobQueue::stats()).
struct TenantStats {
  TenantOptions options;
  std::size_t queued = 0;     ///< pending in the tenant's backlog
  std::size_t in_flight = 0;  ///< picked up, not finished
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;  ///< picked up by a worker
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t shed = 0;
  std::uint64_t canceled = 0;
};

/// Admission verdict. `reason` is empty iff `accepted`. `id` is the
/// admitted job's id. When admission displaced a lower-priority queued
/// job (load shedding), the victim rides along in `displaced` so the
/// engine can record *why* it was shed.
struct Admission {
  bool accepted = false;
  std::string reason;
  std::uint64_t id = 0;
  std::optional<Job> displaced;
};

/// A popped job plus how long it waited in the queue.
struct PoppedJob {
  Job job;
  double wait_seconds = 0.0;
};

class JobQueue {
 public:
  /// `capacity` bounds the untenanted backlog. Must be >= 1.
  /// `shed_lowest` turns on displacement at a full backlog (see above);
  /// equal-priority arrivals still reject, so FIFO within a level holds.
  explicit JobQueue(std::size_t capacity, bool shed_lowest = false);

  /// Register or reconfigure a named tenant. Throws
  /// std::invalid_argument for the empty tenant (sized by `capacity`),
  /// weight <= 0, or max_queued == 0.
  void configure(const std::string& tenant, TenantOptions options);
  /// Options for named tenants that were never `configure`d (a service
  /// connection may bind a fresh tenant id at any time). Validated as
  /// in `configure`.
  void set_tenant_defaults(TenantOptions options);

  /// Admission control into `job.tenant`'s backlog: rejects (without
  /// blocking) when the queue is closed, the job has no geometry, or
  /// the backlog is full and cannot shed. A job arriving with id 0 is
  /// assigned the next id (submission order, starting at 1); a non-zero
  /// id is honored — journal replay resubmits under original ids.
  /// `on_accept` sees the accepted job (id assigned) under the queue
  /// lock, before any worker can pick it up.
  Admission submit(Job job,
                   const std::function<void(const Job&)>& on_accept = {});

  /// Blocks until a job is claimed for this caller, or the queue is
  /// closed and drained (then returns nullopt).
  std::optional<PoppedJob> pop();

  /// Return a picked-up job's in-flight credit to `tenant` and count
  /// its outcome (kDone = completed, anything else = failed).
  void finish(const std::string& tenant, JobState outcome);

  /// Withdraw a job still pending in its backlog; nullopt when `id` is
  /// not pending (picked up, finished, or unknown).
  std::optional<Job> cancel(std::uint64_t id);

  /// No further admissions; pending jobs still drain through pop().
  void close();

  /// Continue id assignment at least at `next_id` (journal resume).
  void set_next_id(std::uint64_t next_id);

  bool closed() const;
  std::size_t capacity() const { return capacity_; }
  std::size_t depth() const;        ///< pending across all backlogs
  std::size_t high_water() const;   ///< max depth ever reached
  std::uint64_t accepted() const;   ///< total admitted
  std::uint64_t rejected() const;   ///< total refused
  std::uint64_t shed() const;       ///< pending jobs displaced when full

  /// Tenants in first-use order with their accounting snapshots.
  std::vector<std::pair<std::string, TenantStats>> stats() const;

 private:
  struct Key {
    int priority = 0;
    std::uint64_t id = 0;  ///< submission order, breaks priority ties
    bool operator<(const Key& other) const {
      if (priority != other.priority) return priority > other.priority;
      return id < other.id;
    }
  };
  struct Entry {
    Job job;
    double submit_seconds = 0.0;  ///< queue-epoch timestamp
  };
  struct Tenant {
    std::string id;
    TenantOptions options;
    std::map<Key, Entry> pending;
    double deficit = 0.0;
    TenantStats totals;  ///< `queued` filled in on read
  };

  Tenant& tenant_locked(const std::string& id);
  Tenant* pick_locked();
  void dispatch_locked();
  std::string full_reason_locked(const Tenant& t) const;

  const std::size_t capacity_;
  const bool shed_lowest_;
  TenantOptions defaults_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  obs::Stopwatch epoch_;
  std::vector<std::unique_ptr<Tenant>> tenants_;  ///< first-use order
  std::unordered_map<std::string, Tenant*> by_name_;
  std::size_t cursor_ = 0;  ///< DRR scan origin in tenants_
  std::deque<PoppedJob> claimed_;  ///< picked for waiting poppers
  std::size_t waiting_ = 0;        ///< poppers blocked in pop()
  bool closed_ = false;
  std::uint64_t next_id_ = 1;
  std::size_t depth_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t shed_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace mthfx::engine
