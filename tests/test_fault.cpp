// Resilience subsystem tests: fault-spec parsing, injector determinism,
// scheduler retry with exactly-once commit, FockBuilder output
// validation, the SCF recovery ladder, and checkpoint/restart.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <random>
#include <vector>

#include "chem/basis.hpp"
#include "chem/molecule.hpp"
#include "fault/atomic_file.hpp"
#include "fault/cancel.hpp"
#include "fault/checkpoint.hpp"
#include "fault/injector.hpp"
#include "hfx/fock_builder.hpp"
#include "hfx/schedulers.hpp"
#include "md/forces.hpp"
#include "md/integrator.hpp"
#include "obs/registry.hpp"
#include "scf/recovery.hpp"
#include "scf/rhf.hpp"
#include "scf/rks.hpp"
#include "scf/uhf.hpp"
#include "scf/uks.hpp"

namespace chem = mthfx::chem;
namespace fault = mthfx::fault;
namespace hfx = mthfx::hfx;
namespace la = mthfx::linalg;
namespace md = mthfx::md;
namespace obs = mthfx::obs;
namespace scf = mthfx::scf;

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
  for (std::size_t i = 0; i < n; ++i) p(i, i) += 1.0;
  return p;
}

constexpr auto kAllSchedules = {
    hfx::HfxSchedule::kDynamicBag, hfx::HfxSchedule::kStaticBlock,
    hfx::HfxSchedule::kStaticCyclic, hfx::HfxSchedule::kWorkStealing};

}  // namespace

TEST(FaultSpec, ParsesFullGrammar) {
  const auto o = fault::parse_fault_spec(
      "fail=0.01,corrupt=0.005,stall=0.001,stall_ms=2,seed=42,retries=4");
  EXPECT_DOUBLE_EQ(o.fail_rate, 0.01);
  EXPECT_DOUBLE_EQ(o.corrupt_rate, 0.005);
  EXPECT_DOUBLE_EQ(o.stall_rate, 0.001);
  EXPECT_DOUBLE_EQ(o.stall_seconds, 2e-3);
  EXPECT_EQ(o.seed, 42u);
  EXPECT_EQ(o.max_retries, 4u);
  EXPECT_TRUE(o.enabled());
}

TEST(FaultSpec, EmptySpecDisablesInjection) {
  const auto o = fault::parse_fault_spec("");
  EXPECT_FALSE(o.enabled());
}

TEST(FaultSpec, RejectsMalformedInput) {
  EXPECT_THROW(fault::parse_fault_spec("bogus=1"), std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("fail"), std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("fail=abc"), std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("fail=1.5"), std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_spec("fail=0.8,corrupt=0.8"),
               std::invalid_argument);
}

TEST(Injector, DecisionIsDeterministicAndPure) {
  fault::FaultOptions o;
  o.fail_rate = 0.1;
  o.corrupt_rate = 0.1;
  o.seed = 77;
  fault::Injector a(o), b(o);
  for (std::uint64_t site = 0; site < 2000; ++site)
    for (std::uint32_t attempt = 0; attempt < 3; ++attempt)
      ASSERT_EQ(a.decide(site, attempt), b.decide(site, attempt));
}

TEST(Injector, RetriesDrawIndependently) {
  // A site that fails on attempt 0 must not be doomed on every retry.
  fault::FaultOptions o;
  o.fail_rate = 0.25;
  fault::Injector inj(o);
  int failed_then_recovered = 0;
  for (std::uint64_t site = 0; site < 4000; ++site)
    if (inj.decide(site, 0) == fault::FaultKind::kFail &&
        inj.decide(site, 1) == fault::FaultKind::kNone)
      ++failed_then_recovered;
  EXPECT_GT(failed_then_recovered, 100);
}

TEST(Injector, RatesMatchFrequencies) {
  fault::FaultOptions o;
  o.fail_rate = 0.2;
  fault::Injector inj(o);
  int failures = 0;
  for (std::uint64_t site = 0; site < 10000; ++site)
    if (inj.decide(site, 0) == fault::FaultKind::kFail) ++failures;
  EXPECT_GT(failures, 1500);
  EXPECT_LT(failures, 2500);
}

TEST(Injector, ApplyThrowsOnFailAndCountsStats) {
  fault::FaultOptions o;
  o.fail_rate = 1.0;
  fault::Injector inj(o);
  try {
    inj.apply(123, 7);
    FAIL() << "expected InjectedFault";
  } catch (const fault::InjectedFault& e) {
    EXPECT_EQ(e.site, 123u);
    EXPECT_EQ(e.attempt, 7u);
  }
  EXPECT_EQ(inj.failures(), 1u);
  EXPECT_EQ(inj.injected(), 1u);
}

TEST(Injector, ValidateRejectsBadRates) {
  fault::FaultOptions o;
  o.fail_rate = -0.1;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o.fail_rate = 0.6;
  o.corrupt_rate = 0.6;
  EXPECT_THROW(o.validate(), std::invalid_argument);
}

class RetrySchedules : public ::testing::TestWithParam<hfx::HfxSchedule> {};

// Tasks that fail on their first attempt must be retried and commit
// exactly once; the retry counter must match the injected failures.
TEST_P(RetrySchedules, FailedTasksRetryAndCommitExactlyOnce) {
  constexpr std::size_t ntasks = 1000, nthreads = 4;
  std::vector<std::atomic<int>> commits(ntasks);
  std::vector<std::atomic<int>> attempts(ntasks);
  obs::Registry registry(nthreads);
  hfx::RetryOptions retry;
  retry.max_retries = 3;
  std::size_t expected_retries = 0;
  for (std::size_t i = 0; i < ntasks; i += 7) ++expected_retries;

  hfx::execute_tasks(
      ntasks, nthreads, GetParam(),
      [&](std::size_t i, std::size_t) {
        const int attempt = attempts[i].fetch_add(1);
        if (i % 7 == 0 && attempt == 0)
          throw std::runtime_error("injected first-attempt failure");
        commits[i].fetch_add(1, std::memory_order_relaxed);
      },
      &registry, retry);

  for (std::size_t i = 0; i < ntasks; ++i)
    ASSERT_EQ(commits[i].load(), 1) << "task " << i;
  EXPECT_EQ(registry.counter_total("sched.tasks_executed"), ntasks);
  EXPECT_EQ(registry.counter_total("fault.retries"), expected_retries);
  EXPECT_EQ(registry.counter_total("fault.permanent_failures"), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, RetrySchedules,
                         ::testing::ValuesIn(kAllSchedules));

class ExhaustedRetrySchedules
    : public ::testing::TestWithParam<hfx::HfxSchedule> {};

// A task that fails on every attempt exhausts its retry budget, raises
// a structured TaskFailure, and never commits; the rest of the bag still
// completes exactly once.
TEST_P(ExhaustedRetrySchedules, PermanentFailureRaisesTaskFailure) {
  constexpr std::size_t ntasks = 200, nthreads = 3, bad = 42;
  std::vector<std::atomic<int>> commits(ntasks);
  obs::Registry registry(nthreads);
  hfx::RetryOptions retry;
  retry.max_retries = 2;

  try {
    hfx::execute_tasks(
        ntasks, nthreads, GetParam(),
        [&](std::size_t i, std::size_t) {
          if (i == bad) throw std::runtime_error("always fails");
          commits[i].fetch_add(1, std::memory_order_relaxed);
        },
        &registry, retry);
    FAIL() << "expected TaskFailure";
  } catch (const hfx::TaskFailure& e) {
    ASSERT_EQ(e.failures.size(), 1u);
    EXPECT_EQ(e.failures[0].task, bad);
    EXPECT_EQ(e.failures[0].attempts, retry.max_retries + 1);
    EXPECT_NE(e.failures[0].error.find("always fails"), std::string::npos);
  }

  for (std::size_t i = 0; i < ntasks; ++i)
    ASSERT_EQ(commits[i].load(), i == bad ? 0 : 1) << "task " << i;
  EXPECT_EQ(registry.counter_total("sched.tasks_executed"), ntasks - 1);
  EXPECT_EQ(registry.counter_total("fault.retries"), retry.max_retries);
  EXPECT_EQ(registry.counter_total("fault.permanent_failures"), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllSchedules, ExhaustedRetrySchedules,
                         ::testing::ValuesIn(kAllSchedules));

TEST(Schedulers, WorkStealingCountersStayConsistentUnderRetries) {
  constexpr std::size_t ntasks = 2000, nthreads = 4;
  std::vector<std::atomic<int>> attempts(ntasks);
  obs::Registry registry(nthreads);
  hfx::RetryOptions retry;
  retry.max_retries = 4;
  hfx::execute_tasks(
      ntasks, nthreads, hfx::HfxSchedule::kWorkStealing,
      [&](std::size_t i, std::size_t) {
        if (i % 11 == 0 && attempts[i].fetch_add(1) < 2)
          throw std::runtime_error("fails twice");
      },
      &registry, retry);
  EXPECT_EQ(registry.counter_total("sched.tasks_executed"), ntasks);
  EXPECT_GE(registry.counter_total("ws.steals_attempted"),
            registry.counter_total("ws.steals_successful"));
}

// The acceptance invariant: with seeded fail + corrupt faults and the
// transactional/validating build, the exchange matrix matches a clean
// run and the stats record the injections and retries.
TEST(FockBuilder, FaultInjectedExchangeMatchesCleanRun) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const auto p = random_density(basis.num_functions(), 11);

  hfx::HfxOptions clean_opts;
  clean_opts.eps_schwarz = 1e-12;
  hfx::FockBuilder clean(basis, clean_opts);
  const auto ref = clean.exchange(p);

  hfx::HfxOptions opts;
  opts.eps_schwarz = 1e-12;
  opts.fault.fail_rate = 0.10;
  opts.fault.corrupt_rate = 0.05;
  opts.fault.seed = 2024;
  opts.fault.max_retries = 8;
  opts.validate_tasks = true;
  hfx::FockBuilder faulty(basis, opts);
  const auto r = faulty.exchange(p);

  EXPECT_GT(r.stats.fault.injected, 0u);
  EXPECT_GT(r.stats.fault.retries, 0u);
  EXPECT_EQ(r.stats.fault.permanent_failures, 0u);
  const auto n = basis.num_functions();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      ASSERT_NEAR(r.k(i, j), ref.k(i, j), 1e-10);
}

TEST(FockBuilder, CorruptionWithoutValidationPoisonsOutput) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const auto p = random_density(basis.num_functions(), 3);
  hfx::HfxOptions opts;
  opts.fault.corrupt_rate = 1.0;
  opts.validate_tasks = false;  // no transactional commit: NaN flows out
  hfx::FockBuilder builder(basis, opts);
  const auto r = builder.exchange(p);
  EXPECT_TRUE(std::isnan(r.k(0, 0)));
  EXPECT_GT(r.stats.fault.injected_corruptions, 0u);
}

TEST(RecoveryLadder, EscalatesOnSustainedOscillation) {
  scf::RecoveryOptions o;
  o.min_iterations = 2;
  o.patience = 2;
  o.oscillation_flips = 3;
  scf::RecoveryLadder ladder(o);
  double sign = 1.0;
  scf::RecoveryStage first = scf::RecoveryStage::kNone;
  for (std::size_t it = 0; it < 12; ++it) {
    sign = -sign;
    const auto s = ladder.observe(it, -1.0, sign * 0.5, 0.1);
    if (s != scf::RecoveryStage::kNone &&
        first == scf::RecoveryStage::kNone) {
      first = s;
      EXPECT_TRUE(ladder.consume_diis_reset());
      EXPECT_FALSE(ladder.consume_diis_reset());  // one-shot
    }
  }
  // Sustained oscillation escalates stage by stage, kDiisReset first.
  EXPECT_EQ(first, scf::RecoveryStage::kDiisReset);
  ASSERT_FALSE(ladder.events().empty());
  EXPECT_EQ(ladder.events().front().stage, scf::RecoveryStage::kDiisReset);
  EXPECT_GT(ladder.stage(), scf::RecoveryStage::kDiisReset);
}

TEST(RecoveryLadder, NonFiniteEscalatesImmediatelyThenExhausts) {
  scf::RecoveryLadder ladder;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(ladder.observe(0, nan, nan, 0.1), scf::RecoveryStage::kDiisReset);
  EXPECT_EQ(ladder.observe(1, nan, nan, 0.1), scf::RecoveryStage::kDamping);
  EXPECT_EQ(ladder.observe(2, nan, nan, 0.1),
            scf::RecoveryStage::kLevelShift);
  EXPECT_FALSE(ladder.exhausted());
  EXPECT_EQ(ladder.observe(3, nan, nan, 0.1), scf::RecoveryStage::kNone);
  EXPECT_TRUE(ladder.exhausted());
  EXPECT_TRUE(ladder.saw_non_finite());
  EXPECT_EQ(ladder.events().size(), 3u);
}

TEST(RecoveryLadder, DiisBlowUpTriggersEscalation) {
  scf::RecoveryOptions o;
  o.min_iterations = 1;
  o.diis_growth = 10.0;
  scf::RecoveryLadder ladder(o);
  EXPECT_EQ(ladder.observe(0, -1.0, -1.0, 1e-4), scf::RecoveryStage::kNone);
  EXPECT_EQ(ladder.observe(1, -1.0, -1e-3, 1e-4), scf::RecoveryStage::kNone);
  EXPECT_EQ(ladder.observe(2, -1.0, -1e-3, 1e-2),
            scf::RecoveryStage::kDiisReset);
}

TEST(RecoveryLadder, DisabledLadderNeverEscalates) {
  scf::RecoveryOptions o;
  o.enabled = false;
  scf::RecoveryLadder ladder(o);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::size_t it = 0; it < 8; ++it)
    EXPECT_EQ(ladder.observe(it, nan, nan, 0.1), scf::RecoveryStage::kNone);
  EXPECT_TRUE(ladder.events().empty());
}

// Poisoned J/K builds (corruption with no task validation) make whole
// SCF iterations go NaN; the ladder must absorb them — restoring the
// last good density and escalating — and the solve must still converge
// to the clean answer.
TEST(ScfRecovery, LadderRescuesPoisonedIterations) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");

  scf::ScfOptions clean;
  const auto ref = scf::rhf(m, basis, clean);
  ASSERT_TRUE(ref.converged);

  scf::ScfOptions opts;
  opts.hfx.fault.corrupt_rate = 0.002;
  opts.hfx.fault.seed = 7;  // poisons one early build, then stays clean
  opts.hfx.fault.max_retries = 0;  // retries can't fix silent corruption
  opts.hfx.validate_tasks = false;
  opts.max_iterations = 200;
  const auto r = scf::rhf(m, basis, opts);

  EXPECT_FALSE(r.diagnostics.finite);  // at least one iterate went NaN
  EXPECT_FALSE(r.diagnostics.recovery_events.empty());
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.energy, ref.energy, 1e-8);
}

TEST(Checkpoint, ScfRoundTripsThroughJsonText) {
  fault::ScfCheckpoint ckpt;
  ckpt.method = "rhf";
  ckpt.iteration = 7;
  ckpt.energy = -74.96316840724327;
  ckpt.density = random_density(5, 1);
  ckpt.density_prev = random_density(5, 2);
  ckpt.j = random_density(5, 3);
  ckpt.k = random_density(5, 4);
  ckpt.diis_focks = {random_density(5, 5), random_density(5, 6)};
  ckpt.diis_errors = {random_density(5, 7), random_density(5, 8)};

  const std::string text = to_json(ckpt).dump(2);
  const auto back =
      fault::scf_checkpoint_from_json(obs::Json::parse(text));
  EXPECT_EQ(back, ckpt);  // bit-exact, including every double
}

TEST(Checkpoint, MdRoundTripsThroughJsonText) {
  fault::MdCheckpoint ckpt;
  ckpt.frame_index = 12;
  ckpt.time_fs = 6.0000000000000009;
  ckpt.geometry = water();
  ckpt.velocities = {{1e-5, -2e-5, 3.3e-6},
                     {0.0, 1.7e-4, -9e-7},
                     {-1e-8, 0.0, 2e-4}};
  ckpt.initial_total_energy = -74.12345678901234;

  const std::string text = to_json(ckpt).dump();
  const auto back = fault::md_checkpoint_from_json(obs::Json::parse(text));
  EXPECT_EQ(back, ckpt);
}

TEST(Checkpoint, RejectsWrongKindAndSchema) {
  const auto md_json = to_json(fault::MdCheckpoint{});
  EXPECT_THROW(fault::scf_checkpoint_from_json(md_json),
               std::invalid_argument);
  obs::Json truncated = obs::Json::object();
  EXPECT_THROW(fault::md_checkpoint_from_json(truncated),
               std::invalid_argument);
}

TEST(Checkpoint, SaveAndLoadThroughFile) {
  fault::MdCheckpoint ckpt;
  ckpt.frame_index = 3;
  ckpt.geometry = water();
  ckpt.velocities.assign(3, {0, 0, 0});
  const std::string path = ::testing::TempDir() + "/mthfx_md.ckpt";
  fault::save_checkpoint(path, ckpt);
  const auto j = fault::load_checkpoint_json(path);
  EXPECT_EQ(fault::checkpoint_kind(j), "md");
  EXPECT_EQ(fault::md_checkpoint_from_json(j), ckpt);
  EXPECT_THROW(fault::load_checkpoint_json("/nonexistent/nope.ckpt"),
               std::runtime_error);
}

// Interrupt an RHF solve mid-flight and resume from the checkpoint: in
// deterministic mode (single thread) the resumed run must land on the
// uninterrupted energy bit-for-bit.
TEST(Checkpoint, RhfResumeReproducesUninterruptedRunExactly) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");

  scf::ScfOptions opts;
  opts.hfx.num_threads = 1;
  const auto full = scf::rhf(m, basis, opts);
  ASSERT_TRUE(full.converged);

  // "Crash" after 3 iterations, keeping the latest checkpoint.
  std::shared_ptr<fault::ScfCheckpoint> saved;
  scf::ScfOptions first;
  first.hfx.num_threads = 1;
  first.max_iterations = 3;
  first.checkpoint_sink = [&](const fault::ScfCheckpoint& c) {
    saved = std::make_shared<fault::ScfCheckpoint>(c);
  };
  const auto partial = scf::rhf(m, basis, first);
  ASSERT_FALSE(partial.converged);
  ASSERT_TRUE(saved);
  EXPECT_EQ(saved->iteration, 3u);
  EXPECT_EQ(saved->method, "rhf");

  // Round-trip the checkpoint through its JSON serialization, as a real
  // restart would.
  const auto restored = std::make_shared<fault::ScfCheckpoint>(
      fault::scf_checkpoint_from_json(obs::Json::parse(to_json(*saved).dump())));

  scf::ScfOptions second;
  second.hfx.num_threads = 1;
  second.resume = restored;
  const auto resumed = scf::rhf(m, basis, second);
  ASSERT_TRUE(resumed.converged);
  EXPECT_EQ(resumed.energy, full.energy);  // bitwise
  EXPECT_EQ(resumed.iterations, full.iterations);
}

TEST(Checkpoint, RhfRejectsWrongMethodCheckpoint) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  auto ckpt = std::make_shared<fault::ScfCheckpoint>();
  ckpt->method = "uhf";
  scf::ScfOptions opts;
  opts.resume = ckpt;
  EXPECT_THROW(scf::rhf(m, basis, opts), std::invalid_argument);
}

TEST(Checkpoint, RksResumeReproducesUninterruptedRunExactly) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");

  scf::KsOptions opts;
  opts.functional = "pbe0";
  opts.scf.hfx.num_threads = 1;
  opts.grid.radial_points = 20;
  opts.grid.angular_points = 26;
  const auto full = scf::rks(m, basis, opts);
  ASSERT_TRUE(full.scf.converged);

  std::shared_ptr<fault::ScfCheckpoint> saved;
  auto first = opts;
  first.scf.max_iterations = 3;
  first.scf.checkpoint_sink = [&](const fault::ScfCheckpoint& c) {
    saved = std::make_shared<fault::ScfCheckpoint>(c);
  };
  ASSERT_FALSE(scf::rks(m, basis, first).scf.converged);
  ASSERT_TRUE(saved);

  auto second = opts;
  second.scf.resume = std::make_shared<fault::ScfCheckpoint>(
      fault::scf_checkpoint_from_json(obs::Json::parse(to_json(*saved).dump())));
  const auto resumed = scf::rks(m, basis, second);
  ASSERT_TRUE(resumed.scf.converged);
  EXPECT_EQ(resumed.scf.energy, full.scf.energy);
}

TEST(Checkpoint, BlockedRhfResumeReproducesUninterruptedRunExactly) {
  // The purification path (sparsity blocked) resumes like the dense one,
  // incremental J/K state included.
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  scf::ScfOptions opts;
  opts.hfx.num_threads = 1;
  opts.hfx.sparsity.mode = hfx::SparsityMode::kBlocked;
  const auto full = scf::rhf(m, basis, opts);
  ASSERT_TRUE(full.converged);
  ASSERT_GT(full.iterations, 3u);

  std::shared_ptr<fault::ScfCheckpoint> saved;
  auto first = opts;
  first.max_iterations = 3;
  first.checkpoint_sink = [&](const fault::ScfCheckpoint& c) {
    saved = std::make_shared<fault::ScfCheckpoint>(c);
  };
  ASSERT_FALSE(scf::rhf(m, basis, first).converged);
  ASSERT_TRUE(saved);
  EXPECT_EQ(saved->method, "rhf");

  auto second = opts;
  second.resume = std::make_shared<fault::ScfCheckpoint>(
      fault::scf_checkpoint_from_json(obs::Json::parse(to_json(*saved).dump())));
  const auto resumed = scf::rhf(m, basis, second);
  ASSERT_TRUE(resumed.converged);
  EXPECT_EQ(resumed.energy, full.energy);
  EXPECT_EQ(resumed.iterations, full.iterations);
}

TEST(Checkpoint, UhfResumeReproducesUninterruptedRunExactly) {
  chem::Molecule li;
  li.add_atom(3, {0, 0, 0});
  const auto basis = chem::BasisSet::build(li, "sto-3g");
  scf::UhfOptions opts;
  opts.hfx.num_threads = 1;
  const auto full = scf::uhf(li, basis, 2, opts);
  ASSERT_TRUE(full.converged);
  ASSERT_GT(full.iterations, 3u);

  std::shared_ptr<fault::ScfCheckpoint> saved;
  auto first = opts;
  first.max_iterations = 3;
  first.checkpoint_sink = [&](const fault::ScfCheckpoint& c) {
    saved = std::make_shared<fault::ScfCheckpoint>(c);
  };
  ASSERT_FALSE(scf::uhf(li, basis, 2, first).converged);
  ASSERT_TRUE(saved);
  EXPECT_EQ(saved->method, "uhf");

  auto second = opts;
  second.resume = std::make_shared<fault::ScfCheckpoint>(
      fault::scf_checkpoint_from_json(obs::Json::parse(to_json(*saved).dump())));
  const auto resumed = scf::uhf(li, basis, 2, second);
  ASSERT_TRUE(resumed.converged);
  EXPECT_EQ(resumed.energy, full.energy);
  EXPECT_EQ(resumed.iterations, full.iterations);
}

TEST(Checkpoint, UksResumeReproducesUninterruptedRunExactly) {
  chem::Molecule li;
  li.add_atom(3, {0, 0, 0});
  const auto basis = chem::BasisSet::build(li, "sto-3g");
  scf::UksOptions opts;
  opts.functional = "pbe0";
  opts.scf.hfx.num_threads = 1;
  opts.grid.radial_points = 35;
  const auto full = scf::uks(li, basis, 2, opts);
  ASSERT_TRUE(full.scf.converged);
  ASSERT_GT(full.scf.iterations, 3u);

  std::shared_ptr<fault::ScfCheckpoint> saved;
  auto first = opts;
  first.scf.max_iterations = 3;
  first.scf.checkpoint_sink = [&](const fault::ScfCheckpoint& c) {
    saved = std::make_shared<fault::ScfCheckpoint>(c);
  };
  ASSERT_FALSE(scf::uks(li, basis, 2, first).scf.converged);
  ASSERT_TRUE(saved);
  EXPECT_EQ(saved->method, "uks");

  auto second = opts;
  second.scf.resume = std::make_shared<fault::ScfCheckpoint>(
      fault::scf_checkpoint_from_json(obs::Json::parse(to_json(*saved).dump())));
  const auto resumed = scf::uks(li, basis, 2, second);
  ASSERT_TRUE(resumed.scf.converged);
  EXPECT_EQ(resumed.scf.energy, full.scf.energy);
  EXPECT_EQ(resumed.scf.iterations, full.scf.iterations);
}

// MD restart: stop a harmonic-diatomic trajectory at step 5, resume to
// step 20, and require the final state to match the uninterrupted
// trajectory exactly (the integrator is deterministic).
TEST(Checkpoint, MdResumeReproducesTrajectoryExactly) {
  md::HarmonicBondPotential pot({{0, 1, 0.5, 2.0}});
  chem::Molecule m;
  m.add_atom(18, {0, 0, 0});
  m.add_atom(18, {0, 0, 2.3});

  md::MdOptions opts;
  opts.timestep_fs = 0.5;
  opts.num_steps = 20;
  const auto full = md::run_bomd(m, pot, opts);
  ASSERT_EQ(full.frames.size(), 21u);

  std::shared_ptr<fault::MdCheckpoint> saved;
  md::MdOptions first = opts;
  first.num_steps = 5;
  first.checkpoint_sink = [&](const fault::MdCheckpoint& c) {
    saved = std::make_shared<fault::MdCheckpoint>(c);
  };
  const auto partial = md::run_bomd(m, pot, first);
  ASSERT_TRUE(saved);
  EXPECT_EQ(saved->frame_index, 5u);

  md::MdOptions second = opts;  // num_steps = 20: total trajectory length
  second.resume = std::make_shared<fault::MdCheckpoint>(
      fault::md_checkpoint_from_json(obs::Json::parse(to_json(*saved).dump())));
  const auto resumed = md::run_bomd(m, pot, second);

  // Resumed run covers steps [5, 20]: 16 frames including the restart.
  ASSERT_EQ(resumed.frames.size(), 16u);
  EXPECT_EQ(resumed.frames.front().time_fs, full.frames[5].time_fs);
  EXPECT_EQ(resumed.frames.back().total, full.frames.back().total);
  EXPECT_EQ(resumed.final_geometry, full.final_geometry);
  ASSERT_EQ(resumed.final_velocities.size(), full.final_velocities.size());
  for (std::size_t i = 0; i < full.final_velocities.size(); ++i)
    EXPECT_EQ(resumed.final_velocities[i], full.final_velocities[i]);
}

TEST(Checkpoint, MdRejectsMismatchedAtomCount) {
  md::HarmonicBondPotential pot({{0, 1, 0.5, 2.0}});
  chem::Molecule m;
  m.add_atom(18, {0, 0, 0});
  m.add_atom(18, {0, 0, 2.3});
  auto ckpt = std::make_shared<fault::MdCheckpoint>();
  ckpt->geometry.add_atom(18, {0, 0, 0});  // one atom, system has two
  ckpt->velocities.assign(1, {0, 0, 0});
  md::MdOptions opts;
  opts.resume = ckpt;
  EXPECT_THROW(md::run_bomd(m, pot, opts), std::invalid_argument);
}

// End-to-end acceptance: a fault-injected RHF run (fail + corrupt, fixed
// seed) converges to the clean energy within 1e-10 Ha.
TEST(ScfFault, FaultInjectedRhfMatchesCleanEnergy) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");

  scf::ScfOptions clean;
  const auto ref = scf::rhf(m, basis, clean);
  ASSERT_TRUE(ref.converged);

  scf::ScfOptions opts;
  opts.hfx.fault.fail_rate = 0.05;
  opts.hfx.fault.corrupt_rate = 0.02;
  opts.hfx.fault.seed = 99;
  opts.hfx.fault.max_retries = 8;
  opts.hfx.validate_tasks = true;
  const auto r = scf::rhf(m, basis, opts);
  ASSERT_TRUE(r.converged);
  EXPECT_NEAR(r.energy, ref.energy, 1e-10);
}

TEST(ScfFault, FaultInjectedPbe0MatchesCleanEnergy) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");

  scf::KsOptions clean;
  clean.functional = "pbe0";
  clean.grid.radial_points = 20;
  clean.grid.angular_points = 26;
  const auto ref = scf::rks(m, basis, clean);
  ASSERT_TRUE(ref.scf.converged);

  auto opts = clean;
  opts.scf.hfx.fault.fail_rate = 0.05;
  opts.scf.hfx.fault.corrupt_rate = 0.02;
  opts.scf.hfx.fault.seed = 99;
  opts.scf.hfx.fault.max_retries = 8;
  opts.scf.hfx.validate_tasks = true;
  const auto r = scf::rks(m, basis, opts);
  ASSERT_TRUE(r.scf.converged);
  EXPECT_NEAR(r.scf.energy, ref.scf.energy, 1e-10);
}

// ---------------------------------------------------------------------
// New fault kinds (hang/slow), cooperative cancellation, and the
// atomic-write primitive the checkpoint/journal/store layers share.

TEST(FaultSpec, ParsesHangAndSlowKeys) {
  const auto o = fault::parse_fault_spec(
      "hang=0.25,hang_ms=200,slow=0.1,slow_factor=20,stall_ms=2");
  EXPECT_DOUBLE_EQ(o.hang_rate, 0.25);
  EXPECT_DOUBLE_EQ(o.hang_seconds, 0.2);
  EXPECT_DOUBLE_EQ(o.slow_rate, 0.1);
  EXPECT_DOUBLE_EQ(o.slow_factor, 20.0);
  EXPECT_DOUBLE_EQ(o.stall_seconds, 2e-3);
  EXPECT_TRUE(o.enabled());
}

TEST(FaultSpec, RejectsRateSumAboveOneWithHangAndSlow) {
  EXPECT_THROW(fault::parse_fault_spec("hang=0.6,slow=0.6"),
               std::invalid_argument);
}

TEST(Injector, HangAndSlowDecideAndCount) {
  fault::FaultOptions o;
  o.hang_rate = 1.0;
  o.hang_seconds = 1e-4;  // keep the injected sleeps negligible
  {
    fault::Injector inj(o);
    EXPECT_EQ(inj.decide(5, 0), fault::FaultKind::kHang);
    EXPECT_FALSE(inj.apply(5, 0));  // sleeps, never throws, no poison
    EXPECT_EQ(inj.hangs(), 1u);
    EXPECT_EQ(inj.injected(), 1u);
  }
  fault::FaultOptions s;
  s.slow_rate = 1.0;
  s.stall_seconds = 1e-5;
  s.slow_factor = 2.0;
  fault::Injector inj(s);
  EXPECT_EQ(inj.decide(5, 0), fault::FaultKind::kSlow);
  EXPECT_FALSE(inj.apply(5, 0));
  EXPECT_EQ(inj.slowdowns(), 1u);
}

TEST(CancelToken, FirstReasonWinsAndCheckThrows) {
  fault::CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.check();  // unarmed: no throw
  token.cancel("deadline");
  token.cancel("second caller");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), "deadline");
  try {
    token.check();
    FAIL() << "expected Cancelled";
  } catch (const fault::Cancelled& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos);
  }
}

TEST(ScfFault, CancelTokenStopsScfAtIterationBoundary) {
  const auto m = water();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  scf::ScfOptions opts;
  auto token = std::make_shared<fault::CancelToken>();
  token->cancel("unit test");
  opts.cancel = token;
  EXPECT_THROW(scf::rhf(m, basis, opts), fault::Cancelled);
}

TEST(AtomicFile, WriteIsAllOrNothing) {
  std::string tmpl = "/tmp/mthfx_atomic_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
  const std::string path = tmpl + "/state.json";
  fault::atomic_write_file(path, "first");
  fault::atomic_write_file(path, "second");
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "second");
  // No temporary litter left beside the target.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(tmpl),
                          std::filesystem::directory_iterator{}),
            1);
}

TEST(AtomicFile, FailureLeavesOriginalUntouched) {
  std::string tmpl = "/tmp/mthfx_atomic_XXXXXX";
  ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
  const std::string path = tmpl + "/state.json";
  fault::atomic_write_file(path, "keep me");
  // Writing into a missing directory must throw and not touch `path`.
  EXPECT_THROW(
      fault::atomic_write_file(tmpl + "/no_such_dir/state.json", "x"),
      std::runtime_error);
  std::ifstream in(path);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(contents, "keep me");
}
