#include "hfx/schedulers.hpp"

#include <chrono>
#include <mutex>
#include <thread>

#include "parallel/slots.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/work_stealing.hpp"

namespace mthfx::hfx {

namespace {

std::string task_failure_message(const std::vector<TaskFailure::Failed>& f) {
  std::string msg = std::to_string(f.size()) +
                    " task(s) exhausted their retry budget";
  if (!f.empty())
    msg += " (first: task " + std::to_string(f.front().task) + " after " +
           std::to_string(f.front().attempts) + " attempts: " +
           f.front().error + ")";
  return msg;
}

void backoff_sleep(double backoff_seconds, std::size_t attempt) {
  if (backoff_seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(
      backoff_seconds * static_cast<double>(attempt)));
}

/// Mutex-protected sink for permanently failed tasks; drained into a
/// TaskFailure on the calling thread once the region has quiesced.
struct FailureLog {
  void add(std::size_t task, std::size_t attempts, std::string error) {
    std::lock_guard lock(mutex);
    failures.push_back({task, attempts, std::move(error)});
  }
  std::mutex mutex;
  std::vector<TaskFailure::Failed> failures;
};

/// Runs tasks with in-place retry and the per-task accounting shared by
/// execute_tasks and execute_slots.
class TaskRunner {
 public:
  TaskRunner(const std::function<void(std::size_t, std::size_t)>& body,
             obs::Registry* registry, const RetryOptions& retry)
      : body_(body), retry_(retry) {
    if (registry) {
      tasks_executed_ = registry->counter("sched.tasks_executed");
      retries_ = registry->counter("fault.retries");
      permanent_failures_ = registry->counter("fault.permanent_failures");
    }
  }

  // Commit accounting happens *after* the body returns, so a throwing
  // attempt is never counted: one increment == one successful task.
  void run(std::size_t i, std::size_t tid) {
    for (std::size_t attempt = 1;; ++attempt) {
      std::string error;
      try {
        body_(i, tid);
        tasks_executed_.add(tid);
        return;
      } catch (const std::exception& e) {
        error = e.what();
      } catch (...) {
        error = "unknown error";
      }
      if (attempt > retry_.max_retries) {
        permanent_failures_.add(tid);
        failure_log_.add(i, attempt, std::move(error));
        return;
      }
      retries_.add(tid);
      backoff_sleep(retry_.backoff_seconds, attempt);
    }
  }

  void throw_if_failed() {
    if (!failure_log_.failures.empty())
      throw TaskFailure(std::move(failure_log_.failures));
  }

 private:
  const std::function<void(std::size_t, std::size_t)>& body_;
  const RetryOptions& retry_;
  obs::Counter tasks_executed_;
  obs::Counter retries_;
  obs::Counter permanent_failures_;
  FailureLog failure_log_;
};

/// Hands work units [0, num_units) to the pool's threads under `schedule`.
void dispatch(parallel::ThreadPool& pool, std::size_t num_units,
              HfxSchedule schedule,
              const std::function<void(std::size_t, std::size_t)>& unit,
              obs::Registry* registry) {
  switch (schedule) {
    case HfxSchedule::kDynamicBag:
      pool.parallel_for(0, num_units, unit, parallel::Schedule::kDynamic);
      break;
    case HfxSchedule::kStaticBlock:
      pool.parallel_for(0, num_units, unit, parallel::Schedule::kStatic);
      break;
    case HfxSchedule::kStaticCyclic:
      pool.parallel_for(0, num_units, unit,
                        parallel::Schedule::kStaticCyclic);
      break;
    case HfxSchedule::kWorkStealing: {
      parallel::WorkStealingScheduler ws(pool.num_threads());
      ws.seed(num_units);
      pool.parallel_region([&](std::size_t tid) {
        while (auto u = ws.next(tid)) unit(static_cast<std::size_t>(*u), tid);
      });
      if (registry) ws.record(*registry);
      break;
    }
  }
}

}  // namespace

TaskFailure::TaskFailure(std::vector<Failed> failed_tasks)
    : std::runtime_error(task_failure_message(failed_tasks)),
      failures(std::move(failed_tasks)) {}

std::size_t resolve_thread_count(std::size_t requested) {
  // Single policy shared with ThreadPool so the HFX layer can never size
  // per-thread buffers against a different count than the pool runs.
  return parallel::resolve_thread_count(requested);
}

void execute_tasks(std::size_t num_tasks, std::size_t num_threads,
                   HfxSchedule schedule,
                   const std::function<void(std::size_t, std::size_t)>& body,
                   obs::Registry* registry, const RetryOptions& retry) {
  parallel::ThreadPool pool(num_threads);
  pool.set_registry(registry);
  TaskRunner runner(body, registry, retry);
  dispatch(
      pool, num_tasks, schedule,
      [&](std::size_t i, std::size_t tid) { runner.run(i, tid); }, registry);
  runner.throw_if_failed();
}

void execute_slots(parallel::ThreadPool& pool, const parallel::SlotPlan& plan,
                   HfxSchedule schedule,
                   const std::function<void(std::size_t, std::size_t)>& body,
                   const std::function<void(std::size_t, std::size_t)>& commit,
                   obs::Registry* registry, const RetryOptions& retry) {
  pool.set_registry(registry);
  TaskRunner runner(body, registry, retry);
  dispatch(
      pool, plan.size(), schedule,
      [&](std::size_t slot, std::size_t tid) {
        for (std::size_t i = plan.begin(slot); i < plan.end(slot); ++i)
          runner.run(i, tid);
        commit(slot, tid);
      },
      registry);
  runner.throw_if_failed();
}

}  // namespace mthfx::hfx
