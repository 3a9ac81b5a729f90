#include "parallel/slots.hpp"

#include <algorithm>
#include <utility>

#include "parallel/thread_pool.hpp"

namespace mthfx::parallel {

SlotPlan plan_slots(std::span<const double> costs, std::size_t buffer_len) {
  SlotPlan plan;
  const std::size_t n = costs.size();
  if (n == 0) return plan;
  double total = 0.0;
  for (const double c : costs) total += c;
  std::size_t nslots = std::min(n, kMaxSlots);
  const double by_buffer =
      total / static_cast<double>(std::max<std::size_t>(buffer_len, 1));
  if (by_buffer < static_cast<double>(nslots))
    nslots = std::max<std::size_t>(1, static_cast<std::size_t>(by_buffer));

  // Cut after the task where the running cost first reaches the next
  // multiple of total / nslots, and early enough that every remaining
  // slot still gets a task.
  double running = 0.0;
  for (std::size_t i = 0; i + 1 < n && plan.size() + 1 < nslots; ++i) {
    running += costs[i];
    const std::size_t cuts = plan.size();
    const double threshold = total * static_cast<double>(cuts + 1) /
                             static_cast<double>(nslots);
    if (running >= threshold || n - (i + 1) <= nslots - 1 - cuts)
      plan.bounds.push_back(i + 1);
  }
  plan.bounds.push_back(n);
  return plan;
}

SlotReducer::SlotReducer(std::size_t num_slots, std::size_t buffer_len)
    : num_slots_(num_slots), len_(buffer_len) {
  while ((std::size_t{1} << levels_) < num_slots_) ++levels_;
  parked_.resize(levels_);
  for (std::size_t level = 0; level < levels_; ++level)
    parked_[level].resize((num_slots_ + (std::size_t{1} << level) - 1) >>
                          level);
  if (num_slots_ == 0) root_ = acquire();
}

SlotReducer::Buffer SlotReducer::acquire() {
  Buffer buffer;
  {
    std::lock_guard lock(mutex_);
    if (!free_.empty()) {
      buffer = std::move(free_.back());
      free_.pop_back();
    } else {
      ++allocated_;
    }
  }
  if (!buffer) buffer = std::make_unique_for_overwrite<double[]>(len_);
  std::fill_n(buffer.get(), len_, 0.0);
  return buffer;
}

void SlotReducer::commit(std::size_t slot, Buffer partial) {
  std::size_t node = slot;
  for (std::size_t level = 0; level < levels_; ++level, node >>= 1) {
    const std::size_t sibling = node ^ 1;
    // The last node of a level may have no sibling: it moves up alone.
    if (sibling >= parked_[level].size()) continue;
    Buffer other;
    {
      std::lock_guard lock(mutex_);
      if (!parked_[level][sibling]) {
        parked_[level][node] = std::move(partial);
        return;
      }
      other = std::move(parked_[level][sibling]);
    }
    double* dst = partial.get();
    const double* src = other.get();
    for (std::size_t i = 0; i < len_; ++i) dst[i] += src[i];
    std::lock_guard lock(mutex_);
    free_.push_back(std::move(other));
  }
  root_ = std::move(partial);
}

std::vector<double> sum_slots(
    std::size_t num_slots, std::size_t buffer_len, std::size_t num_threads,
    const std::function<void(std::size_t, double*, std::size_t)>& body) {
  SlotReducer reducer(num_slots, buffer_len);
  ThreadPool pool(std::min(resolve_thread_count(num_threads),
                           std::max<std::size_t>(num_slots, 1)));
  pool.parallel_for(0, num_slots, [&](std::size_t slot, std::size_t tid) {
    SlotReducer::Buffer partial = reducer.acquire();
    body(slot, partial.get(), tid);
    reducer.commit(slot, std::move(partial));
  });
  const std::span<const double> total = reducer.total();
  return {total.begin(), total.end()};
}

}  // namespace mthfx::parallel
