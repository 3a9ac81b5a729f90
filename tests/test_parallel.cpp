#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "parallel/slots.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/work_stealing.hpp"

namespace obs = mthfx::obs;
namespace par = mthfx::parallel;

TEST(ResolveThreadCount, ExplicitRequestIsHonored) {
  EXPECT_EQ(par::resolve_thread_count(1), 1u);
  EXPECT_EQ(par::resolve_thread_count(7), 7u);
}

TEST(ResolveThreadCount, ZeroMeansHardwareConcurrency) {
  const std::size_t resolved = par::resolve_thread_count(0);
  EXPECT_GE(resolved, 1u);
  if (std::thread::hardware_concurrency() > 0)
    EXPECT_EQ(resolved, std::thread::hardware_concurrency());
}

TEST(ResolveThreadCount, PoolCtorUsesSamePolicy) {
  par::ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), par::resolve_thread_count(0));
}

TEST(ThreadPool, SingleThreadExecutesAll) {
  par::ThreadPool pool(1);
  std::vector<int> hits(100, 0);
  pool.parallel_for(0, 100, [&](std::size_t i, std::size_t) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

class PoolSchedules
    : public ::testing::TestWithParam<std::tuple<par::Schedule, std::size_t>> {
};

TEST_P(PoolSchedules, EveryIndexExecutedExactlyOnce) {
  const auto [schedule, nthreads] = GetParam();
  par::ThreadPool pool(nthreads);
  constexpr std::size_t n = 5000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(
      0, n, [&](std::size_t i, std::size_t) { hits[i].fetch_add(1); },
      schedule, 7);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PoolSchedules,
    ::testing::Combine(::testing::Values(par::Schedule::kDynamic,
                                         par::Schedule::kStatic,
                                         par::Schedule::kStaticCyclic),
                       ::testing::Values(1u, 2u, 4u, 8u)));

TEST(ThreadPool, ThreadIdsAreInRange) {
  par::ThreadPool pool(4);
  std::atomic<bool> ok{true};
  pool.parallel_for(0, 1000, [&](std::size_t, std::size_t tid) {
    if (tid >= pool.num_threads()) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  par::ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelRegionRunsOncePerThread) {
  par::ThreadPool pool(6);
  std::vector<std::atomic<int>> counts(6);
  pool.parallel_region([&](std::size_t tid) { counts[tid].fetch_add(1); });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyInvocations) {
  par::ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 50; ++round)
    pool.parallel_for(0, 100,
                      [&](std::size_t, std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 5000u);
}

TEST(ThreadPool, ParallelRegionReusableAcrossManyInvocations) {
  par::ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(4);
  for (int round = 0; round < 50; ++round)
    pool.parallel_region([&](std::size_t tid) { counts[tid].fetch_add(1); });
  for (auto& c : counts) EXPECT_EQ(c.load(), 50);
}

TEST(ThreadPool, RegistryInstrumentsRegions) {
  par::ThreadPool pool(3);
  obs::Registry reg(3);
  pool.set_registry(&reg);
  pool.parallel_region([](std::size_t) {});
  pool.parallel_region([](std::size_t) {});
  EXPECT_EQ(reg.counter_total("pool.regions"), 2u);
  // Every thread (including the calling thread as tid 0) is timed once
  // per region.
  EXPECT_EQ(reg.timer_count("pool.thread_seconds"), 6u);
  const auto per_thread = reg.timer_per_thread("pool.thread_seconds");
  ASSERT_EQ(per_thread.size(), 3u);
  for (double s : per_thread) EXPECT_GE(s, 0.0);

  // Detaching must stop recording without crashing later regions.
  pool.set_registry(nullptr);
  pool.parallel_region([](std::size_t) {});
  EXPECT_EQ(reg.counter_total("pool.regions"), 2u);
}

TEST(WorkStealing, AllTasksExecutedOnce) {
  constexpr std::size_t nthreads = 4, ntasks = 10000;
  par::WorkStealingScheduler ws(nthreads);
  ws.seed(ntasks);
  std::vector<std::atomic<int>> hits(ntasks);
  par::ThreadPool pool(nthreads);
  pool.parallel_region([&](std::size_t tid) {
    while (auto t = ws.next(tid)) hits[*t].fetch_add(1);
  });
  for (std::size_t i = 0; i < ntasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(WorkStealing, StealsHappenUnderImbalance) {
  // All work seeded into deque 0; other threads must steal to finish.
  par::WorkStealingScheduler ws(4);
  for (int i = 0; i < 1000; ++i) {
    // seed() round-robins, so seed manually through a single-owner pattern:
  }
  ws.seed(4000);
  par::ThreadPool pool(4);
  std::atomic<std::size_t> done{0};
  pool.parallel_region([&](std::size_t tid) {
    while (auto t = ws.next(tid)) {
      // Thread 0 is made slow so others drain its share via steals.
      if (tid == 0)
        for (volatile int spin = 0; spin < 3000; ++spin) {
        }
      done.fetch_add(1);
    }
  });
  EXPECT_EQ(done.load(), 4000u);
  EXPECT_GT(ws.stats().steals_successful, 0u);
}

// Counter invariants must hold on BOTH steal paths (random victims and
// the deterministic fallback sweep): a successful steal is always also an
// attempted one, and tasks can only migrate through a successful steal.
// The regression here was the sweep path bumping tasks_migrated without
// counting its attempt.
TEST(WorkStealing, StealStatsAreConsistentUnderContention) {
  constexpr std::size_t nthreads = 4, ntasks = 8000;
  par::WorkStealingScheduler ws(nthreads);
  ws.seed(ntasks);
  par::ThreadPool pool(nthreads);
  std::atomic<std::size_t> done{0};
  pool.parallel_region([&](std::size_t tid) {
    while (auto t = ws.next(tid)) {
      // Uneven task costs force repeated stealing near the end of the
      // run, where the fallback sweep is most likely to serve steals.
      if (*t % nthreads == 0)
        for (volatile int spin = 0; spin < 500; ++spin) {
        }
      done.fetch_add(1);
    }
  });
  EXPECT_EQ(done.load(), ntasks);

  const auto total = ws.stats();
  EXPECT_LE(total.steals_successful, total.steals_attempted);
  if (total.tasks_migrated > 0) EXPECT_GT(total.steals_successful, 0u);
  EXPECT_GE(total.tasks_migrated, total.steals_successful);

  // The same invariants per thread, and the aggregate must equal the sum.
  par::StealStats sum;
  for (std::size_t t = 0; t < nthreads; ++t) {
    const auto& s = ws.stats(t);
    EXPECT_LE(s.steals_successful, s.steals_attempted) << "thread " << t;
    if (s.tasks_migrated > 0)
      EXPECT_GT(s.steals_successful, 0u) << "thread " << t;
    sum.steals_attempted += s.steals_attempted;
    sum.steals_successful += s.steals_successful;
    sum.tasks_migrated += s.tasks_migrated;
  }
  EXPECT_EQ(sum.steals_attempted, total.steals_attempted);
  EXPECT_EQ(sum.steals_successful, total.steals_successful);
  EXPECT_EQ(sum.tasks_migrated, total.tasks_migrated);
}

// The fallback sweep alone (single consumer pulling from deques it never
// owns work in) must count its attempts.
TEST(WorkStealing, FallbackSweepCountsAttempts) {
  par::WorkStealingScheduler ws(3);
  ws.seed(9);  // round-robin: every deque holds three tasks
  // Thread 2 drains everything serially; after its own three tasks every
  // further task arrives via a steal, and exhausting the system requires
  // sweep attempts that must all be counted.
  std::size_t got = 0;
  while (ws.next(2)) ++got;
  EXPECT_EQ(got, 9u);
  const auto& s = ws.stats(2);
  EXPECT_GT(s.steals_attempted, 0u);
  EXPECT_GT(s.steals_successful, 0u);
  EXPECT_EQ(s.tasks_migrated, 6u);  // three from each victim deque
  EXPECT_LE(s.steals_successful, s.steals_attempted);
}

TEST(WorkStealing, RecordExportsAggregateCounters) {
  par::WorkStealingScheduler ws(2);
  ws.seed(20);
  std::size_t got = 0;
  while (ws.next(0)) ++got;
  EXPECT_EQ(got, 20u);
  obs::Registry reg(2);
  ws.record(reg);
  const auto total = ws.stats();
  EXPECT_EQ(reg.counter_total("ws.steals_attempted"),
            total.steals_attempted);
  EXPECT_EQ(reg.counter_total("ws.steals_successful"),
            total.steals_successful);
  EXPECT_EQ(reg.counter_total("ws.tasks_migrated"), total.tasks_migrated);
}

TEST(TaskDeque, LifoOwnerFifoThief) {
  par::TaskDeque d;
  for (std::uint64_t i = 0; i < 10; ++i) d.push(i);
  EXPECT_EQ(d.pop().value(), 9u);          // owner pops newest
  const auto stolen = d.steal_half();      // thief takes oldest half
  ASSERT_FALSE(stolen.empty());
  EXPECT_EQ(stolen.front(), 0u);
  EXPECT_EQ(d.size(), 9u - stolen.size());
}

// ---------------------------------------------------------------------------
// Deterministic slot accumulation (parallel/slots.hpp).

namespace {

std::vector<double> varied_costs(std::size_t n, unsigned seed) {
  std::vector<double> costs(n);
  std::uint32_t state = seed * 2654435761u + 1u;
  for (double& c : costs) {
    state = state * 1664525u + 1013904223u;
    c = 1.0 + static_cast<double>(state >> 20);  // 1 .. 4097
  }
  return costs;
}

/// Non-representable per-task contribution to element e of the buffer.
double contribution(std::size_t task, std::size_t e) {
  return 0.1 * static_cast<double>(task + 1) / 3.0 +
         1e-3 * static_cast<double>(e) / 7.0;
}

/// Runs the slot scheme on a pool: each slot sums its tasks in index
/// order into its own buffer, then commits it.
std::vector<double> slot_sum(par::ThreadPool& pool, const par::SlotPlan& plan,
                             std::size_t len, par::Schedule schedule,
                             std::size_t* peak = nullptr) {
  par::SlotReducer reducer(plan.size(), len);
  pool.parallel_for(
      0, plan.size(),
      [&](std::size_t slot, std::size_t) {
        auto buffer = reducer.acquire();
        for (std::size_t t = plan.begin(slot); t < plan.end(slot); ++t)
          for (std::size_t e = 0; e < len; ++e)
            buffer[e] += contribution(t, e);
        reducer.commit(slot, std::move(buffer));
      },
      schedule);
  if (peak) *peak = reducer.peak_buffers();
  const auto total = reducer.total();
  return {total.begin(), total.end()};
}

}  // namespace

TEST(SlotPlan, CoversTasksContiguouslyExactlyOnce) {
  for (std::size_t n : {1u, 2u, 7u, 63u, 64u, 65u, 1000u}) {
    const auto costs = varied_costs(n, static_cast<unsigned>(n));
    const par::SlotPlan plan = par::plan_slots(costs, 1);
    ASSERT_GE(plan.size(), 1u);
    EXPECT_EQ(plan.begin(0), 0u);
    EXPECT_EQ(plan.end(plan.size() - 1), n);
    for (std::size_t s = 0; s < plan.size(); ++s)
      EXPECT_LT(plan.begin(s), plan.end(s)) << "empty slot " << s;
  }
  EXPECT_EQ(par::plan_slots({}, 10).size(), 0u);
}

TEST(SlotPlan, CountDependsOnCostsAndBufferLengthOnly) {
  const auto costs = varied_costs(1000, 3);
  double total = 0.0;
  for (double c : costs) total += c;
  // Cheap buffers: the count saturates at kMaxSlots (or the task count).
  EXPECT_EQ(par::plan_slots(costs, 1).size(), par::kMaxSlots);
  EXPECT_EQ(par::plan_slots(std::span(costs).first(10), 1).size(), 10u);
  // Expensive buffers: a slot must carry one cost unit per element.
  const auto len = static_cast<std::size_t>(total / 5.0);
  EXPECT_EQ(par::plan_slots(costs, len).size(), 5u);
  EXPECT_EQ(par::plan_slots(costs, static_cast<std::size_t>(10 * total))
                .size(),
            1u);
  // A pure function: the same inputs cut the same slots.
  EXPECT_EQ(par::plan_slots(costs, 7).bounds, par::plan_slots(costs, 7).bounds);
}

TEST(SlotPlan, SlotCostsAreBalanced) {
  for (unsigned seed : {1u, 2u, 3u}) {
    const auto costs = varied_costs(700, seed);
    double total = 0.0, biggest = 0.0;
    for (double c : costs) {
      total += c;
      biggest = std::max(biggest, c);
    }
    const par::SlotPlan plan = par::plan_slots(costs, 1);
    const double fair = total / static_cast<double>(plan.size());
    for (std::size_t s = 0; s < plan.size(); ++s) {
      double cost = 0.0;
      for (std::size_t t = plan.begin(s); t < plan.end(s); ++t)
        cost += costs[t];
      EXPECT_LE(cost, fair + biggest) << "slot " << s;
    }
  }
}

TEST(SlotReducer, TotalBitIdenticalAcrossThreadCountsAndSchedules) {
  const auto costs = varied_costs(300, 11);
  const par::SlotPlan plan = par::plan_slots(costs, 1);
  constexpr std::size_t len = 37;
  par::ThreadPool serial(1);
  const auto ref = slot_sum(serial, plan, len, par::Schedule::kDynamic);
  for (std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    par::ThreadPool pool(threads);
    for (auto schedule : {par::Schedule::kDynamic, par::Schedule::kStatic,
                          par::Schedule::kStaticCyclic}) {
      std::size_t peak = 0;
      EXPECT_EQ(slot_sum(pool, plan, len, schedule, &peak), ref)
          << "threads " << threads;
      EXPECT_LE(peak, plan.size());
    }
  }
}

TEST(SlotReducer, CommitOrderIsInvisible) {
  constexpr std::size_t nslots = 13, len = 5;
  auto run = [&](const std::vector<std::size_t>& order) {
    par::SlotReducer reducer(nslots, len);
    for (std::size_t slot : order) {
      auto buffer = reducer.acquire();
      for (std::size_t e = 0; e < len; ++e) buffer[e] = contribution(slot, e);
      reducer.commit(slot, std::move(buffer));
    }
    const auto total = reducer.total();
    return std::vector<double>(total.begin(), total.end());
  };
  std::vector<std::size_t> order(nslots);
  std::iota(order.begin(), order.end(), 0);
  const auto forward = run(order);
  std::reverse(order.begin(), order.end());
  EXPECT_EQ(run(order), forward);
  std::swap(order[2], order[9]);
  std::swap(order[0], order[5]);
  EXPECT_EQ(run(order), forward);
}

TEST(SlotReducer, InOrderCommitsKeepLogarithmicBuffers) {
  // A finished prefix collapses into one parked node per set bit of its
  // length, so in-order commits hold O(log slots) buffers, not O(slots).
  par::SlotReducer reducer(64, 8);
  for (std::size_t slot = 0; slot < 64; ++slot)
    reducer.commit(slot, reducer.acquire());
  EXPECT_LE(reducer.peak_buffers(), 7u);
  for (double v : reducer.total()) EXPECT_EQ(v, 0.0);
}

TEST(SlotReducer, ZeroSlotsGiveZeros) {
  par::SlotReducer reducer(0, 4);
  ASSERT_EQ(reducer.total().size(), 4u);
  for (double v : reducer.total()) EXPECT_EQ(v, 0.0);
}

TEST(SumSlots, TotalBitIdenticalAcrossThreadCounts) {
  const auto costs = varied_costs(200, 17);
  const par::SlotPlan plan = par::plan_slots(costs, 1);
  constexpr std::size_t len = 23;
  auto run = [&](std::size_t threads) {
    return par::sum_slots(
        plan.size(), len, threads,
        [&](std::size_t slot, double* partial, std::size_t tid) {
          EXPECT_LT(tid, par::resolve_thread_count(threads));
          for (std::size_t t = plan.begin(slot); t < plan.end(slot); ++t)
            for (std::size_t e = 0; e < len; ++e)
              partial[e] += contribution(t, e);
        });
  };
  par::ThreadPool serial(1);
  const auto ref = slot_sum(serial, plan, len, par::Schedule::kDynamic);
  for (std::size_t threads : {1u, 2u, 3u, 4u, 8u})
    EXPECT_EQ(run(threads), ref) << "threads " << threads;
  EXPECT_EQ(par::sum_slots(0, 3, 4, [](std::size_t, double*, std::size_t) {}),
            std::vector<double>(3, 0.0));
}
