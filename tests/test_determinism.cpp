// Bit-identical HFX and XC results across thread counts and schedules.
//
// J and K accumulate through the deterministic slot scheme
// (parallel/slots.hpp): the slot cut depends only on task costs and the
// accumulator size, and slot partials combine in a fixed tree. Every
// element must therefore be *equal* — not close — for any thread count
// under every schedule, in the dense and the blocked build alike, and so
// must the PBE0 energy and the two-electron gradient built on top. The
// XC integrator runs its grid-point batches through the same scheme, so
// E_xc, V_xc, ∫rho and the XC gradient are equal too, with the dense and
// the screened AO cache alike.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "chem/basis.hpp"
#include "dft/functionals.hpp"
#include "dft/grid.hpp"
#include "dft/spin_functionals.hpp"
#include "dft/xc_integrator.hpp"
#include "hfx/fock_builder.hpp"
#include "hfx/grad_contraction.hpp"
#include "linalg/block_sparse.hpp"
#include "linalg/matrix.hpp"
#include "scf/rks.hpp"
#include "scf/sparse_scf.hpp"
#include "scf/uks.hpp"
#include "workload/geometries.hpp"
#include "workload/replicate.hpp"

namespace chem = mthfx::chem;
namespace dft = mthfx::dft;
namespace hfx = mthfx::hfx;
namespace la = mthfx::linalg;
namespace scf = mthfx::scf;
namespace wl = mthfx::workload;

namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 3, 4, 8};
constexpr hfx::HfxSchedule kSchedules[] = {
    hfx::HfxSchedule::kDynamicBag, hfx::HfxSchedule::kStaticBlock,
    hfx::HfxSchedule::kStaticCyclic, hfx::HfxSchedule::kWorkStealing};

chem::Molecule water_dimer() { return wl::cluster_of(wl::water(), 2, 5.0); }

la::Matrix random_density(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-0.3, 0.3);
  la::Matrix p(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    p(i, i) = 1.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = dist(rng);
      p(i, j) = v;
      p(j, i) = v;
    }
  }
  return p;
}

void expect_bitwise_equal(const la::Matrix& got, const la::Matrix& ref,
                          const std::string& what) {
  ASSERT_EQ(got.rows(), ref.rows()) << what;
  ASSERT_EQ(got.cols(), ref.cols()) << what;
  for (std::size_t i = 0; i < ref.rows(); ++i)
    for (std::size_t j = 0; j < ref.cols(); ++j)
      ASSERT_EQ(got(i, j), ref(i, j)) << what << " at (" << i << "," << j
                                      << ")";
}

std::string label(hfx::HfxSchedule schedule, std::size_t threads) {
  return "schedule " + std::to_string(static_cast<int>(schedule)) +
         " threads " + std::to_string(threads);
}

}  // namespace

TEST(HfxDeterminism, DenseJkBitIdenticalAcrossThreadsAndSchedules) {
  const auto basis = chem::BasisSet::build(water_dimer(), "sto-3g");
  const la::Matrix p = random_density(basis.num_functions(), 5);
  hfx::HfxOptions base;
  base.num_threads = 1;
  const auto ref = hfx::FockBuilder(basis, base).coulomb_exchange(p);
  for (const auto schedule : kSchedules)
    for (const std::size_t threads : kThreadCounts) {
      hfx::HfxOptions opts = base;
      opts.schedule = schedule;
      opts.num_threads = threads;
      const auto got = hfx::FockBuilder(basis, opts).coulomb_exchange(p);
      expect_bitwise_equal(got.j, ref.j, "J " + label(schedule, threads));
      expect_bitwise_equal(got.k, ref.k, "K " + label(schedule, threads));
    }
}

TEST(HfxDeterminism, ExplicitGranularityIsBitIdenticalAcrossThreads) {
  // Sub-row tasks: slots cut mid-row, and the transactional commit path.
  const auto basis = chem::BasisSet::build(water_dimer(), "sto-3g");
  const la::Matrix p = random_density(basis.num_functions(), 6);
  hfx::HfxOptions base;
  base.num_threads = 1;
  base.target_task_cost = 200.0;
  base.validate_tasks = true;
  const hfx::FockBuilder serial(basis, base);
  ASSERT_GT(serial.tasks().size(), serial.pairs().size());
  const auto ref = serial.exchange(p);
  for (const auto schedule : kSchedules)
    for (const std::size_t threads : kThreadCounts) {
      hfx::HfxOptions opts = base;
      opts.schedule = schedule;
      opts.num_threads = threads;
      expect_bitwise_equal(hfx::FockBuilder(basis, opts).exchange(p).k, ref.k,
                           "K " + label(schedule, threads));
    }
}

TEST(HfxDeterminism, BlockedJkBitIdenticalAcrossThreadsAndSchedules) {
  const auto basis = chem::BasisSet::build(water_dimer(), "sto-3g");
  const la::Matrix p = random_density(basis.num_functions(), 9);
  const auto part = scf::shell_aligned_partition(basis, 12);
  const auto p_blk = la::BlockSparseMatrix::from_dense(p, part, 0.0);

  hfx::HfxOptions base;
  base.num_threads = 1;
  base.sparsity.mode = hfx::SparsityMode::kBlocked;
  const hfx::FockBuilder serial(basis, base);
  const auto ref = serial.coulomb_exchange_blocked(p_blk);

  // Same pair list, same row order, same slot cut: the blocked build
  // reproduces the dense one bit for bit.
  hfx::HfxOptions dense_opts;
  dense_opts.num_threads = 3;
  const hfx::FockBuilder dense(basis, dense_opts);
  ASSERT_EQ(dense.pairs().size(), serial.pairs().size());
  const auto dense_jk = dense.coulomb_exchange(p);
  expect_bitwise_equal(ref.j, dense_jk.j, "blocked vs dense J");
  expect_bitwise_equal(ref.k, dense_jk.k, "blocked vs dense K");

  for (const auto schedule : kSchedules)
    for (const std::size_t threads : kThreadCounts) {
      hfx::HfxOptions opts = base;
      opts.schedule = schedule;
      opts.num_threads = threads;
      const auto got =
          hfx::FockBuilder(basis, opts).coulomb_exchange_blocked(p_blk);
      expect_bitwise_equal(got.j, ref.j, "J " + label(schedule, threads));
      expect_bitwise_equal(got.k, ref.k, "K " + label(schedule, threads));
      EXPECT_EQ(got.stats.thread_busy_seconds.size(), threads);
    }
}

TEST(HfxDeterminism, Pbe0EnergyBitIdenticalAcrossThreadsAndSchedules) {
  const auto mol = wl::water();
  const auto basis = chem::BasisSet::build(mol, "sto-3g");
  scf::KsOptions base;
  base.functional = "pbe0";
  base.grid.radial_points = 20;
  base.grid.angular_points = 26;
  base.scf.hfx.num_threads = 1;
  const auto ref = scf::rks(mol, basis, base);
  ASSERT_TRUE(ref.scf.converged);
  for (const auto schedule : kSchedules)
    for (const std::size_t threads : kThreadCounts) {
      scf::KsOptions opts = base;
      opts.scf.hfx.schedule = schedule;
      opts.scf.hfx.num_threads = threads;
      const auto got = scf::rks(mol, basis, opts);
      EXPECT_EQ(got.scf.energy, ref.scf.energy) << label(schedule, threads);
      EXPECT_EQ(got.scf.iterations, ref.scf.iterations)
          << label(schedule, threads);
    }
}

TEST(HfxDeterminism, TwoElectronGradientBitIdenticalAcrossThreads) {
  const auto basis = chem::BasisSet::build(water_dimer(), "sto-3g");
  const la::Matrix p = random_density(basis.num_functions(), 13);
  hfx::GradContractionOptions base;
  base.ax = 0.25;
  base.num_threads = 1;
  const auto ref = hfx::two_electron_gradient(basis, p, base);
  for (const std::size_t threads : kThreadCounts) {
    hfx::GradContractionOptions opts = base;
    opts.num_threads = threads;
    const auto got = hfx::two_electron_gradient(basis, p, opts);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t a = 0; a < ref.size(); ++a)
      EXPECT_EQ(got[a], ref[a]) << "atom " << a << " threads " << threads;
  }
}

namespace {

dft::GridOptions coarse_grid() {
  dft::GridOptions g;
  g.radial_points = 20;
  g.angular_points = 26;
  return g;
}

}  // namespace

TEST(XcDeterminism, IntegrateBitIdenticalAcrossThreads) {
  const auto mol = water_dimer();
  const auto basis = chem::BasisSet::build(mol, "sto-3g");
  const dft::MolecularGrid grid(mol, coarse_grid());
  const la::Matrix p = random_density(basis.num_functions(), 21);
  const auto functional = dft::make_functional("pbe0");
  for (const bool screened : {false, true}) {
    const auto ref =
        dft::XcIntegrator(basis, grid, screened, 1).integrate(functional, p);
    for (const std::size_t threads : kThreadCounts) {
      const std::string what = std::string(screened ? "screened" : "dense") +
                               " threads " + std::to_string(threads);
      const dft::XcIntegrator xc(basis, grid, screened, threads);
      const auto got = xc.integrate(functional, p);
      EXPECT_EQ(got.energy, ref.energy) << what;
      EXPECT_EQ(got.integrated_density, ref.integrated_density) << what;
      expect_bitwise_equal(got.v, ref.v, "V_xc " + what);
      EXPECT_EQ(xc.integrate_density(p),
                dft::XcIntegrator(basis, grid, screened, 1)
                    .integrate_density(p))
          << what;
    }
  }
}

TEST(XcDeterminism, IntegrateSpinBitIdenticalAcrossThreads) {
  const auto mol = water_dimer();
  const auto basis = chem::BasisSet::build(mol, "sto-3g");
  const dft::MolecularGrid grid(mol, coarse_grid());
  const la::Matrix pa = random_density(basis.num_functions(), 22);
  const la::Matrix pb = random_density(basis.num_functions(), 23);
  const auto functional = dft::make_spin_functional("pbe0");
  for (const bool screened : {false, true}) {
    const auto ref = dft::XcIntegrator(basis, grid, screened, 1)
                         .integrate_spin(functional, pa, pb);
    for (const std::size_t threads : kThreadCounts) {
      const std::string what = std::string(screened ? "screened" : "dense") +
                               " threads " + std::to_string(threads);
      const auto got = dft::XcIntegrator(basis, grid, screened, threads)
                           .integrate_spin(functional, pa, pb);
      EXPECT_EQ(got.energy, ref.energy) << what;
      EXPECT_EQ(got.integrated_density, ref.integrated_density) << what;
      expect_bitwise_equal(got.v_alpha, ref.v_alpha, "V_alpha " + what);
      expect_bitwise_equal(got.v_beta, ref.v_beta, "V_beta " + what);
    }
  }
}

TEST(XcDeterminism, GradientBitIdenticalAcrossThreads) {
  const auto mol = water_dimer();
  const auto basis = chem::BasisSet::build(mol, "sto-3g");
  const dft::MolecularGrid grid(mol, coarse_grid());
  const la::Matrix p = random_density(basis.num_functions(), 24);
  const auto functional = dft::make_functional("pbe");
  const auto ref = dft::xc_gradient(basis, grid, functional, p, mol, 1);
  for (const bool screened : {false, true})
    for (const std::size_t threads : kThreadCounts) {
      const auto got = dft::XcIntegrator(basis, grid, screened, threads)
                           .gradient(functional, p, mol);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t a = 0; a < ref.size(); ++a)
        EXPECT_EQ(got[a], ref[a]) << "atom " << a << " threads " << threads
                                  << (screened ? " screened" : " dense");
    }
}

TEST(XcDeterminism, UksPbe0LithiumDoubletBitIdenticalAcrossThreads) {
  chem::Molecule li;
  li.add_atom(3, {0, 0, 0});
  const auto basis = chem::BasisSet::build(li, "sto-3g");
  scf::UksOptions base;
  base.functional = "pbe0";
  base.grid.radial_points = 35;
  base.scf.hfx.num_threads = 1;
  const auto ref = scf::uks(li, basis, 2, base);
  ASSERT_TRUE(ref.scf.converged);
  for (const std::size_t threads : kThreadCounts) {
    scf::UksOptions opts = base;
    opts.scf.hfx.num_threads = threads;
    const auto got = scf::uks(li, basis, 2, opts);
    EXPECT_EQ(got.scf.energy, ref.scf.energy) << "threads " << threads;
    EXPECT_EQ(got.xc_energy, ref.xc_energy) << "threads " << threads;
    EXPECT_EQ(got.scf.iterations, ref.scf.iterations) << "threads " << threads;
  }
}
