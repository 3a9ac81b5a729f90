#pragma once

// Mapping of HfxSchedule policies onto the threading runtime. Split out of
// the Fock builder so the scheduler-ablation bench can exercise the
// policies against synthetic task sets without touching integrals.

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "hfx/fock_builder.hpp"
#include "obs/registry.hpp"

namespace mthfx::parallel {
class ThreadPool;
struct SlotPlan;
}

namespace mthfx::hfx {

/// 0 -> hardware concurrency (delegates to parallel::resolve_thread_count
/// so HFX and ThreadPool always agree).
std::size_t resolve_thread_count(std::size_t requested);

/// Failure policy for execute_tasks. A task whose body throws is caught
/// (never a std::terminate in a pool worker), retried up to max_retries
/// additional attempts, and only counted in "sched.tasks_executed" once
/// it succeeds — so a body that commits results as its last action gets
/// exactly-once commit for free.
struct RetryOptions {
  std::size_t max_retries = 0;    ///< extra attempts after the first
  double backoff_seconds = 0.0;   ///< sleep backoff_seconds * attempt
};

/// Raised by execute_tasks (on the calling thread, after the parallel
/// region has drained) when one or more tasks exhausted their retry
/// budget. Never a hang, never a silently missing contribution.
struct TaskFailure : std::runtime_error {
  struct Failed {
    std::size_t task = 0;
    std::size_t attempts = 0;
    std::string error;
  };
  explicit TaskFailure(std::vector<Failed> failed_tasks);
  std::vector<Failed> failures;
};

/// Run body(task_index, thread_id) for every task under the policy.
/// Blocks until all tasks are complete. With a registry, records
/// "sched.tasks_executed" per thread (successful commits only), pool
/// occupancy timers, "fault.retries" / "fault.permanent_failures" on the
/// failure path, and (for work stealing) the ws.* steal counters; the
/// registry must have slots for resolve_thread_count(num_threads)
/// threads. A throwing task is retried in place, on the thread that ran
/// it, per `retry`. Exhausted budgets surface as TaskFailure.
void execute_tasks(std::size_t num_tasks, std::size_t num_threads,
                   HfxSchedule schedule,
                   const std::function<void(std::size_t, std::size_t)>& body,
                   obs::Registry* registry = nullptr,
                   const RetryOptions& retry = {});

/// Slot-granular execute_tasks for deterministic accumulation
/// (parallel/slots.hpp), on a caller-owned pool whose registry
/// attachment is replaced by `registry` for the call: the policy hands
/// out whole slots of `plan`, not tasks. A slot runs body(task, thread_id) for its tasks in index order
/// — each retried in place per `retry`, with execute_tasks' per-task
/// accounting — then commit(slot, thread_id). One thread runs a slot from
/// its first task to its commit, so the body may keep the slot's buffer
/// per thread.
void execute_slots(parallel::ThreadPool& pool, const parallel::SlotPlan& plan,
                   HfxSchedule schedule,
                   const std::function<void(std::size_t, std::size_t)>& body,
                   const std::function<void(std::size_t, std::size_t)>& commit,
                   obs::Registry* registry = nullptr,
                   const RetryOptions& retry = {});

}  // namespace mthfx::hfx
