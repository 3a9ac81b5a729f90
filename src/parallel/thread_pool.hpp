#pragma once

// Persistent thread pool with OpenMP-style parallel loops.
//
// The HFX builder uses `parallel_for` in its dynamic "task bag" mode
// (atomic chunk counter — the scheme the paper scales to millions of BG/Q
// threads) and in a static block-cyclic mode (the baseline the paper
// compares against).

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/registry.hpp"

namespace mthfx::parallel {

/// The one thread-count policy for the whole stack: 0 requests hardware
/// concurrency (never less than 1). ThreadPool and the HFX layer both
/// resolve through this, so per-thread buffers (open slot buffers,
/// thread_busy_seconds, registry slots) can never be sized against a
/// different count than the pool actually runs.
std::size_t resolve_thread_count(std::size_t requested);

enum class Schedule {
  kDynamic,      ///< atomic chunk counter — self-balancing task bag
  kStatic,       ///< contiguous blocks, one per thread
  kStaticCyclic  ///< round-robin chunks (block-cyclic)
};

class ThreadPool {
 public:
  /// `num_threads` == 0 selects hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return workers_.size() + 1; }

  /// Attach a metrics registry (sized for >= num_threads() slots): each
  /// parallel_region then records per-thread occupancy into the
  /// "pool.thread_seconds" timer and counts "pool.regions". Pass nullptr
  /// to detach. The registry must outlive the attachment; swap only
  /// between regions.
  void set_registry(obs::Registry* registry);

  /// Run body(i, thread_id) for i in [begin, end) across the pool
  /// (the calling thread participates as thread 0). Blocks until done.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    Schedule schedule = Schedule::kDynamic,
                    std::size_t chunk = 1);

  /// Run fn(thread_id) once on every thread (SPMD region). Blocks.
  void parallel_region(const std::function<void(std::size_t)>& fn);

 private:
  struct Job {
    std::function<void(std::size_t)> per_thread;  // arg: thread id
    std::atomic<std::size_t> remaining{0};
  };

  void worker_loop(std::size_t thread_id);

  std::vector<std::thread> workers_;
  obs::Registry* registry_ = nullptr;
  obs::Timer region_timer_;
  obs::Counter region_counter_;
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::shared_ptr<Job> job_;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
};

/// Process-wide pool sized to the hardware (lazily constructed).
ThreadPool& default_pool();

}  // namespace mthfx::parallel
