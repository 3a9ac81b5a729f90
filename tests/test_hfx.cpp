#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <random>

#include "chem/basis.hpp"
#include "chem/molecule.hpp"
#include "hfx/fock_builder.hpp"
#include "hfx/schedulers.hpp"
#include "hfx/screening.hpp"
#include "hfx/shell_pairs.hpp"
#include "hfx/tasks.hpp"
#include "ints/eri.hpp"
#include "ints/schwarz.hpp"

namespace chem = mthfx::chem;
namespace hfx = mthfx::hfx;
namespace ints = mthfx::ints;
namespace la = mthfx::linalg;

namespace {

chem::Molecule water() {
  return chem::Molecule::from_xyz(
      "3\nwater\nO 0.000000 0.000000 0.117300\n"
      "H 0.000000 0.757200 -0.469200\n"
      "H 0.000000 -0.757200 -0.469200\n");
}

la::Matrix random_density(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-0.5, 0.5);
  la::Matrix p(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      const double v = dist(rng);
      p(i, j) = v;
      p(j, i) = v;
    }
  // Make it density-like: add a diagonal shift.
  for (std::size_t i = 0; i < n; ++i) p(i, i) += 1.0;
  return p;
}

// Dense O(N^4) reference J and K from the full ERI tensor.
std::pair<la::Matrix, la::Matrix> reference_jk(const chem::BasisSet& basis,
                                               const la::Matrix& p) {
  const std::size_t n = basis.num_functions();
  const auto t = ints::eri_tensor(basis);
  la::Matrix j(n, n), k(n, n);
  for (std::size_t mu = 0; mu < n; ++mu)
    for (std::size_t nu = 0; nu < n; ++nu)
      for (std::size_t lam = 0; lam < n; ++lam)
        for (std::size_t sig = 0; sig < n; ++sig) {
          j(mu, nu) += p(lam, sig) * t[((mu * n + nu) * n + lam) * n + sig];
          k(mu, nu) += p(lam, sig) * t[((mu * n + lam) * n + nu) * n + sig];
        }
  return {j, k};
}

}  // namespace

TEST(ShellPairs, KeepsAllPairsAtLooseThreshold) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const auto q = ints::schwarz_bounds(basis);
  hfx::ShellPairList pairs(basis, q, 1e-30);
  EXPECT_EQ(pairs.size(), pairs.unscreened_count());
  EXPECT_GT(pairs.max_q(), 0.0);
}

TEST(ShellPairs, TightThresholdPrunesDistantPairs) {
  chem::Molecule m;
  m.add_atom(1, {0, 0, 0});
  m.add_atom(1, {0, 0, 30.0});  // far apart: cross pair negligible
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const auto q = ints::schwarz_bounds(basis);
  hfx::ShellPairList pairs(basis, q, 1e-8);
  EXPECT_EQ(pairs.unscreened_count(), 3u);
  EXPECT_EQ(pairs.size(), 2u);  // the two diagonal pairs survive
}

TEST(Tasks, CoverEveryKetRangeExactlyOnce) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const auto q = ints::schwarz_bounds(basis);
  hfx::ShellPairList pairs(basis, q, 1e-14);
  const auto tasks = hfx::make_tasks(basis, pairs, 0.0);
  // Union of [ket_begin, ket_end) per bra must equal [0, bra+1).
  std::vector<std::vector<bool>> covered(pairs.size());
  for (std::size_t b = 0; b < pairs.size(); ++b)
    covered[b].assign(b + 1, false);
  for (const auto& t : tasks) {
    for (std::uint32_t k = t.ket_begin; k < t.ket_end; ++k) {
      ASSERT_LE(k, t.bra);
      ASSERT_FALSE(covered[t.bra][k]);
      covered[t.bra][k] = true;
    }
  }
  for (const auto& row : covered)
    for (bool c : row) EXPECT_TRUE(c);
}

TEST(Tasks, DefaultIsOneTaskPerBraRow) {
  // The batched kernel fills its 8-wide lanes from a task's quartet
  // stream, so the default task is a whole bra row: [0, bra + 1).
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "6-31g");
  const auto q = ints::schwarz_bounds(basis);
  hfx::ShellPairList pairs(basis, q, 1e-10);
  for (const double eps : {0.0, 1e-10}) {
    const auto tasks = hfx::make_tasks(basis, pairs, 0.0, eps,
                                       ints::EriKernel::kBatched);
    ASSERT_EQ(tasks.size(), pairs.size());
    for (std::size_t b = 0; b < tasks.size(); ++b) {
      EXPECT_EQ(tasks[b].bra, b);
      EXPECT_EQ(tasks[b].ket_begin, 0u);
      EXPECT_EQ(tasks[b].ket_end, b + 1);
    }
  }
  EXPECT_EQ(hfx::FockBuilder(basis).tasks().size(),
            hfx::FockBuilder(basis).pairs().size());
}

TEST(Tasks, GranularityRespondsToTargetCost) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "6-31g");
  const auto q = ints::schwarz_bounds(basis);
  hfx::ShellPairList pairs(basis, q, 1e-14);
  const auto coarse = hfx::make_tasks(basis, pairs, 1e12);
  const auto fine = hfx::make_tasks(basis, pairs, 1.0);
  EXPECT_GT(fine.size(), coarse.size());
  EXPECT_NEAR(hfx::total_cost(fine), hfx::total_cost(coarse),
              1e-6 * hfx::total_cost(fine));
}

TEST(Screening, BlockMaxDensityIsUpperBound) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const la::Matrix p = random_density(basis.num_functions(), 3);
  const la::Matrix bm = hfx::shell_block_max_density(basis, p);
  for (std::size_t sa = 0; sa < basis.num_shells(); ++sa)
    for (std::size_t sb = 0; sb < basis.num_shells(); ++sb) {
      const std::size_t oa = basis.first_function(sa);
      const std::size_t ob = basis.first_function(sb);
      for (std::size_t i = 0; i < basis.shell(sa).num_functions(); ++i)
        for (std::size_t j = 0; j < basis.shell(sb).num_functions(); ++j)
          EXPECT_LE(std::abs(p(oa + i, ob + j)), bm(sa, sb) + 1e-15);
    }
}

TEST(FockBuilder, ExchangeMatchesDenseReference) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const la::Matrix p = random_density(basis.num_functions(), 7);
  const auto [jref, kref] = reference_jk(basis, p);

  hfx::HfxOptions opts;
  opts.eps_schwarz = 1e-14;
  hfx::FockBuilder builder(basis, opts);
  const auto result = builder.exchange(p);
  EXPECT_LT(la::max_abs(result.k - kref), 1e-10);
}

TEST(FockBuilder, CoulombExchangeMatchesDenseReference) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const la::Matrix p = random_density(basis.num_functions(), 11);
  const auto [jref, kref] = reference_jk(basis, p);

  hfx::HfxOptions opts;
  opts.eps_schwarz = 1e-14;
  hfx::FockBuilder builder(basis, opts);
  const auto result = builder.coulomb_exchange(p);
  EXPECT_LT(la::max_abs(result.j - jref), 1e-10);
  EXPECT_LT(la::max_abs(result.k - kref), 1e-10);
}

TEST(FockBuilder, SplitValenceBasisMatchesDenseReference) {
  // Different shell structure (sp splits, 6 shells per heavy atom).
  chem::Molecule m;
  m.add_atom(3, {0, 0, 0});
  m.add_atom(1, {0, 0, 3.0});
  const auto basis = chem::BasisSet::build(m, "6-31g");
  const la::Matrix p = random_density(basis.num_functions(), 13);
  const auto [jref, kref] = reference_jk(basis, p);

  hfx::HfxOptions opts;
  opts.eps_schwarz = 1e-14;
  hfx::FockBuilder builder(basis, opts);
  const auto result = builder.coulomb_exchange(p);
  EXPECT_LT(la::max_abs(result.j - jref), 1e-9);
  EXPECT_LT(la::max_abs(result.k - kref), 1e-9);
}

class FockSchedules : public ::testing::TestWithParam<hfx::HfxSchedule> {};

TEST_P(FockSchedules, AllSchedulesGiveIdenticalExchange) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const la::Matrix p = random_density(basis.num_functions(), 17);

  hfx::HfxOptions base;
  base.eps_schwarz = 1e-14;
  base.schedule = hfx::HfxSchedule::kDynamicBag;
  base.num_threads = 1;
  const auto kserial = hfx::FockBuilder(basis, base).exchange(p).k;

  hfx::HfxOptions opts;
  opts.eps_schwarz = 1e-14;
  opts.schedule = GetParam();
  opts.num_threads = 4;
  const auto kpar = hfx::FockBuilder(basis, opts).exchange(p).k;
  EXPECT_LT(la::max_abs(kpar - kserial), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, FockSchedules,
                         ::testing::Values(hfx::HfxSchedule::kDynamicBag,
                                           hfx::HfxSchedule::kStaticBlock,
                                           hfx::HfxSchedule::kStaticCyclic,
                                           hfx::HfxSchedule::kWorkStealing));

TEST(FockBuilder, ScreeningErrorIsControlledByEps) {
  // The abstract's "highly controllable accuracy": tightening eps must
  // reduce the exchange error monotonically (within noise) and reach
  // near-exactness at tight settings.
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "6-31g");
  const la::Matrix p = random_density(basis.num_functions(), 23);

  hfx::HfxOptions exact_opts;
  exact_opts.eps_schwarz = 1e-16;
  exact_opts.density_screening = false;
  const auto kexact = hfx::FockBuilder(basis, exact_opts).exchange(p).k;

  double last_err = 1e9;
  for (double eps : {1e-4, 1e-8, 1e-12}) {
    hfx::HfxOptions opts;
    opts.eps_schwarz = eps;
    const auto k = hfx::FockBuilder(basis, opts).exchange(p).k;
    const double err = la::max_abs(k - kexact);
    EXPECT_LE(err, last_err * 1.5 + 1e-15);
    last_err = err;
  }
  EXPECT_LT(last_err, 1e-10);
}

TEST(FockBuilder, ScreeningReducesComputedQuartets) {
  chem::Molecule m;
  // Linear chain of well-separated H2 units: most quartets negligible.
  for (int i = 0; i < 6; ++i) {
    m.add_atom(1, {0, 0, i * 12.0});
    m.add_atom(1, {0, 0, i * 12.0 + 1.4});
  }
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const la::Matrix p = random_density(basis.num_functions(), 29);

  hfx::HfxOptions loose;
  loose.eps_schwarz = 1e-6;
  const auto stats_loose =
      hfx::FockBuilder(basis, loose).exchange(p).stats;

  hfx::HfxOptions off;
  off.eps_schwarz = 1e-30;
  off.density_screening = false;
  const auto stats_off = hfx::FockBuilder(basis, off).exchange(p).stats;

  EXPECT_LT(stats_loose.screening.quartets_computed,
            stats_off.screening.quartets_computed / 2);
  EXPECT_LT(stats_loose.num_pairs, stats_off.num_pairs);
}

TEST(FockBuilder, StatsArePopulated) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const la::Matrix p = random_density(basis.num_functions(), 31);
  hfx::HfxOptions opts;
  opts.record_task_costs = true;
  opts.num_threads = 2;
  hfx::FockBuilder builder(basis, opts);
  const auto result = builder.exchange(p);
  EXPECT_EQ(result.stats.num_tasks, builder.tasks().size());
  EXPECT_EQ(result.stats.task_costs.size(), builder.tasks().size());
  EXPECT_GT(result.stats.wall_seconds, 0.0);
  EXPECT_EQ(result.stats.thread_busy_seconds.size(), 2u);
  EXPECT_GT(result.stats.screening.quartets_computed, 0u);
}

TEST(Schedulers, ResolveThreadCount) {
  EXPECT_EQ(hfx::resolve_thread_count(5), 5u);
  EXPECT_GE(hfx::resolve_thread_count(0), 1u);
}

TEST(Schedulers, ExecuteTasksRunsAll) {
  std::vector<std::atomic<int>> hits(500);
  for (auto s :
       {hfx::HfxSchedule::kDynamicBag, hfx::HfxSchedule::kStaticBlock,
        hfx::HfxSchedule::kStaticCyclic, hfx::HfxSchedule::kWorkStealing}) {
    for (auto& h : hits) h.store(0);
    hfx::execute_tasks(500, 3, s,
                       [&](std::size_t i, std::size_t) { hits[i]++; });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

class SchedulerExactness
    : public ::testing::TestWithParam<hfx::HfxSchedule> {};

// Exactly-once execution under contention: wildly uneven task costs make
// threads race for the remaining work (and, for kWorkStealing, force both
// the random-victim and fallback steal paths). Every index must still be
// visited exactly once, and the instrumented task count must agree.
TEST_P(SchedulerExactness, EveryTaskExecutedExactlyOnceUnderContention) {
  constexpr std::size_t ntasks = 4000, nthreads = 4;
  std::vector<std::atomic<int>> hits(ntasks);
  mthfx::obs::Registry registry(nthreads);
  hfx::execute_tasks(
      ntasks, nthreads, GetParam(),
      [&](std::size_t i, std::size_t tid) {
        // 1-in-16 tasks is ~200x heavier; heavy tasks cluster in runs so
        // static partitions are imbalanced and dynamic ones contend.
        if ((i / 16) % 16 == 0)
          for (volatile int spin = 0; spin < 2000; ++spin) {
          }
        ASSERT_LT(tid, nthreads);
        hits[i].fetch_add(1, std::memory_order_relaxed);
      },
      &registry);
  for (std::size_t i = 0; i < ntasks; ++i)
    ASSERT_EQ(hits[i].load(), 1) << "task " << i;
  EXPECT_EQ(registry.counter_total("sched.tasks_executed"), ntasks);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedules, SchedulerExactness,
    ::testing::Values(hfx::HfxSchedule::kDynamicBag,
                      hfx::HfxSchedule::kStaticBlock,
                      hfx::HfxSchedule::kStaticCyclic,
                      hfx::HfxSchedule::kWorkStealing));

// Differential regression: every schedule at 1, 2, 4 and 8 threads must
// reproduce the single-threaded K matrix to 1e-12 on a fixed seeded
// molecule. Guards the task partitioners, the bag/steal protocols and
// the thread-private reduction in one sweep.
TEST(FockBuilder, AllSchedulesAndThreadCountsAgreeTightly) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const la::Matrix p = random_density(basis.num_functions(), 41);

  hfx::HfxOptions base;
  base.eps_schwarz = 1e-12;
  base.num_threads = 1;
  base.schedule = hfx::HfxSchedule::kStaticBlock;
  const auto kref = hfx::FockBuilder(basis, base).exchange(p).k;

  for (auto schedule :
       {hfx::HfxSchedule::kDynamicBag, hfx::HfxSchedule::kStaticBlock,
        hfx::HfxSchedule::kStaticCyclic, hfx::HfxSchedule::kWorkStealing}) {
    for (std::size_t threads : {1u, 2u, 4u, 8u}) {
      hfx::HfxOptions opts = base;
      opts.schedule = schedule;
      opts.num_threads = threads;
      const auto k = hfx::FockBuilder(basis, opts).exchange(p).k;
      EXPECT_LT(la::max_abs(k - kref), 1e-12)
          << "schedule " << static_cast<int>(schedule) << " threads "
          << threads;
    }
  }
}

TEST(HfxOptions, ContributionCutoffDerivesFromEpsSchwarz) {
  hfx::HfxOptions opts;
  // Default eps_schwarz = 1e-10 must reproduce the historical 1e-16
  // digestion cutoff.
  EXPECT_DOUBLE_EQ(opts.contribution_cutoff(), 1e-16);

  // The chain is monotone: tightening eps_schwarz tightens the cutoff.
  hfx::HfxOptions tight;
  tight.eps_schwarz = 1e-14;
  EXPECT_DOUBLE_EQ(tight.contribution_cutoff(), 1e-20);
  EXPECT_LT(tight.contribution_cutoff(), opts.contribution_cutoff());

  // An explicit eps_contribution overrides the derivation.
  hfx::HfxOptions manual;
  manual.eps_schwarz = 1e-4;
  manual.eps_contribution = 1e-30;
  EXPECT_DOUBLE_EQ(manual.contribution_cutoff(), 1e-30);
}

TEST(HfxOptions, ExplicitContributionCutoffReachesTheKernel) {
  // The derivation chain must actually steer the digestion kernel: an
  // absurdly large explicit cutoff throws away real contributions and
  // visibly degrades K, while the eps_schwarz-derived default stays
  // near-exact. Catches regressions where contribution_cutoff() is
  // computed but no longer plumbed into digest_quartet.
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const la::Matrix p = random_density(basis.num_functions(), 43);
  const auto [jref, kref] = reference_jk(basis, p);

  hfx::HfxOptions derived;
  derived.eps_schwarz = 1e-12;
  const double err_derived =
      la::max_abs(hfx::FockBuilder(basis, derived).exchange(p).k - kref);

  hfx::HfxOptions blunt = derived;
  blunt.eps_contribution = 1e-2;  // wipes out small but real integrals
  const double err_blunt =
      la::max_abs(hfx::FockBuilder(basis, blunt).exchange(p).k - kref);

  EXPECT_LT(err_derived, 1e-10);
  EXPECT_GT(err_blunt, 1e-6);
  EXPECT_GT(err_blunt, err_derived * 1e3);
}

TEST(FockBuilder, TighterEpsSchwarzMonotonicallyReducesExchangeError) {
  // Regression for the screening-threshold chain (Schwarz, density, and
  // the derived contribution cutoff all keyed off eps_schwarz): the
  // K-matrix error against the dense O(N^4) reference must not grow as
  // eps_schwarz tightens, and must become negligible at tight settings.
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const la::Matrix p = random_density(basis.num_functions(), 37);
  const auto [jref, kref] = reference_jk(basis, p);

  double last_err = std::numeric_limits<double>::infinity();
  for (double eps : {1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12}) {
    hfx::HfxOptions opts;
    opts.eps_schwarz = eps;
    const auto k = hfx::FockBuilder(basis, opts).exchange(p).k;
    const double err = la::max_abs(k - kref);
    // Allow a sliver of slack for error cancellation between thresholds.
    EXPECT_LE(err, last_err * 1.05 + 1e-14) << "eps " << eps;
    last_err = std::min(last_err, err);
  }
  EXPECT_LT(last_err, 1e-10);
}
