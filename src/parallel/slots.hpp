#pragma once

// Deterministic slot accumulation — the one scheme by which threaded
// builds (HFX J/K, the two-electron gradient, XC integration and the XC
// gradient) sum per-task contributions into a shared result
// bit-identically for any thread count and schedule.
//
// A task list is cut into contiguous, cost-balanced *slots*. The cut
// depends only on the task costs and the accumulator length — never on
// the thread count or the schedule — so which tasks share a slot, and the
// order they are summed in, is fixed by the inputs. Threads claim whole
// slots; each slot sums its tasks in index order into a private zeroed
// buffer, and finished slot partials combine in a fixed-shape binary tree
// over slot indices. IEEE addition is commutative, so a tree node holds
// the same bits whichever child finishes first: the total is a pure
// function of the inputs.
//
// Memory stays O(threads): a tree node combines as soon as both children
// are done and the consumed buffer is recycled, so only slots in flight
// and finished subtrees still waiting for a sibling hold a buffer.

#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace mthfx::parallel {

/// Contiguous cut of a task list: slot s covers tasks
/// [bounds[s], bounds[s + 1]).
struct SlotPlan {
  std::vector<std::size_t> bounds{0};  ///< size() + 1 ascending cut points

  std::size_t size() const { return bounds.size() - 1; }
  std::size_t begin(std::size_t slot) const { return bounds[slot]; }
  std::size_t end(std::size_t slot) const { return bounds[slot + 1]; }
};

/// Most slots a plan cuts: enough for a dynamic claim order to balance a
/// few tens of threads, few enough that the tree combine stays negligible.
inline constexpr std::size_t kMaxSlots = 64;

/// Cut `costs` into contiguous, non-empty slots of near-equal total cost:
/// every slot's cost is at most total / size() plus one task's cost. The
/// slot count is min(kMaxSlots, costs.size(), total / buffer_len), at
/// least 1 for a non-empty list — a slot must carry at least one unit of
/// estimated work per element of the buffer it zeroes and combines.
SlotPlan plan_slots(std::span<const double> costs, std::size_t buffer_len);

/// The fixed-tree combine of per-slot partial sums (see the file comment).
/// acquire() and commit() are thread-safe; total() is read once every
/// slot has committed.
class SlotReducer {
 public:
  using Buffer = std::unique_ptr<double[]>;

  SlotReducer(std::size_t num_slots, std::size_t buffer_len);

  /// A zeroed buffer for one slot's partial sum (recycled when one is
  /// free).
  Buffer acquire();

  /// Hand over slot `slot`'s finished partial, exactly once per slot. It
  /// combines with every finished sibling subtree on its way up the tree
  /// and is parked where a sibling is still missing.
  void commit(std::size_t slot, Buffer partial);

  /// Sum of all slot partials (zeros when there are no slots).
  std::span<const double> total() const { return {root_.get(), len_}; }

  /// Most buffers alive at once during the reduction.
  std::size_t peak_buffers() const { return allocated_; }

 private:
  std::size_t num_slots_;
  std::size_t len_;
  std::size_t levels_ = 0;  ///< tree height: the root sits at this level
  std::mutex mutex_;
  std::vector<std::vector<Buffer>> parked_;  ///< [level][node]
  std::vector<Buffer> free_;
  std::size_t allocated_ = 0;
  Buffer root_;
};

/// The whole scheme on a private pool of `num_threads` threads (0 ->
/// hardware concurrency): body(slot, partial, thread_id) adds slot
/// `slot`'s tasks, in index order, into its zeroed `partial` of
/// `buffer_len` doubles, and the returned vector is the fixed-tree total
/// of every slot. thread_id < resolve_thread_count(num_threads) names the
/// thread running the slot, for per-thread scratch. The total does not
/// depend on num_threads.
std::vector<double> sum_slots(
    std::size_t num_slots, std::size_t buffer_len, std::size_t num_threads,
    const std::function<void(std::size_t, double*, std::size_t)>& body);

}  // namespace mthfx::parallel
