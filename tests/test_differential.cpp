// Differential tests: the production screened/threaded HFX paths versus
// the slow-but-obviously-correct oracles in src/testing, across every
// schedule policy and several thread counts, on seeded generated inputs.
// This is the layer that turns "the fast path looks right on water"
// into "the fast path agrees with brute force on anything we can draw".

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chem/basis.hpp"
#include "chem/molecule.hpp"
#include "dft/functionals.hpp"
#include "dft/grid.hpp"
#include "dft/spin_functionals.hpp"
#include "dft/xc_integrator.hpp"
#include "hfx/fock_builder.hpp"
#include "ints/eri.hpp"
#include "ints/eri_batch.hpp"
#include "linalg/matrix.hpp"
#include "scf/rhf.hpp"
#include "support/property_gtest.hpp"
#include "testing/generators.hpp"
#include "testing/invariants.hpp"
#include "testing/oracles.hpp"
#include "testing/property.hpp"
#include "workload/geometries.hpp"
#include "workload/replicate.hpp"

namespace chem = mthfx::chem;
namespace dft = mthfx::dft;
namespace hfx = mthfx::hfx;
namespace la = mthfx::linalg;
namespace mt = mthfx::testing;
namespace scf = mthfx::scf;

namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

const char* schedule_name(hfx::HfxSchedule s) {
  switch (s) {
    case hfx::HfxSchedule::kDynamicBag: return "dynamic-bag";
    case hfx::HfxSchedule::kStaticBlock: return "static-block";
    case hfx::HfxSchedule::kStaticCyclic: return "static-cyclic";
    case hfx::HfxSchedule::kWorkStealing: return "work-stealing";
  }
  return "?";
}

}  // namespace

// The production tensor builder (pair-data reuse) against the naive
// one-pass oracle, element by element.
TEST(Differential, EriTensorMatchesNaiveOnePass) {
  MTHFX_PROPERTY(
      "Differential.EriTensorMatchesNaiveOnePass",
      [](mt::Rng& rng, std::size_t) -> std::string {
        const auto mol = mt::random_molecule(rng);
        const auto name = mt::random_basis_name(rng, mol);
        const auto basis = chem::BasisSet::build(mol, name);
        const auto fast = mthfx::ints::eri_tensor(basis);
        const auto naive = mt::naive_eri_tensor(basis);
        if (fast.size() != naive.size())
          return "tensor size mismatch";
        for (std::size_t i = 0; i < fast.size(); ++i)
          if (std::abs(fast[i] - naive[i]) > 1e-12)
            return "tensor element " + std::to_string(i) + " differs: " +
                   fmt(fast[i]) + " vs naive " + fmt(naive[i]);
        return "";
      });
}

// The explicit-orbit-deduplication J/K against the dense contraction —
// two independent derivations of the same matrices from one tensor.
TEST(Differential, OrbitOracleMatchesDenseContraction) {
  MTHFX_PROPERTY(
      "Differential.OrbitOracleMatchesDenseContraction",
      [](mt::Rng& rng, std::size_t) -> std::string {
        const auto mol = mt::random_molecule(rng);
        const auto name = mt::random_basis_name(rng, mol);
        const auto basis = chem::BasisSet::build(mol, name);
        const auto p = mt::random_symmetric_density(rng, basis.num_functions());
        const auto tensor = mt::naive_eri_tensor(basis);
        const auto dense = mt::contract_jk(basis, tensor, p);
        const auto orbit = mt::orbit_jk_reference(basis, tensor, p);
        const double jdiff = la::max_abs(dense.j - orbit.j);
        const double kdiff = la::max_abs(dense.k - orbit.k);
        if (jdiff > 1e-11 || kdiff > 1e-11)
          return "orbit oracle disagrees with dense contraction: |dJ| " +
                 fmt(jdiff) + " |dK| " + fmt(kdiff);
        return "";
      });
}

// The paper's central claim, as a property: the screened, threaded,
// task-parallel build agrees with unscreened brute force within the
// eps_schwarz-derived bound — for every schedule policy.
TEST(Differential, ScreenedBuildMatchesBruteForceAcrossSchedules) {
  MTHFX_PROPERTY(
      "Differential.ScreenedBuildMatchesBruteForceAcrossSchedules",
      [](mt::Rng& rng, std::size_t) -> std::string {
        const auto mol = mt::random_molecule(rng);
        const auto name = mt::random_basis_name(rng, mol);
        const auto basis = chem::BasisSet::build(mol, name);
        const auto p = mt::random_symmetric_density(rng, basis.num_functions());
        const auto ref = mt::dense_jk_reference(basis, p);
        const double pmax = la::max_abs(p);

        hfx::HfxOptions opts = mt::random_hfx_options(rng);
        for (const auto schedule : mt::all_schedules()) {
          opts.schedule = schedule;
          hfx::FockBuilder builder(basis, opts);
          const auto jk = builder.coulomb_exchange(p);
          const double kerr = la::max_abs(jk.k - ref.k);
          const double jerr = la::max_abs(jk.j - ref.j);
          const double bound =
              mt::screening_error_bound(jk.stats, opts, pmax);
          if (kerr > bound || jerr > bound)
            return std::string("schedule ") + schedule_name(schedule) +
                   " (threads " + std::to_string(opts.num_threads) +
                   ", eps " + fmt(opts.eps_schwarz) + "): |dK| " + fmt(kerr) +
                   " |dJ| " + fmt(jerr) + " exceeds bound " + fmt(bound);
        }
        return "";
      });
}

// Thread count must be invisible in the result (to reduction-order
// rounding) for every schedule, on generated inputs.
TEST(Differential, ThreadCountIsInvisibleAcrossSchedules) {
  MTHFX_PROPERTY(
      "Differential.ThreadCountIsInvisibleAcrossSchedules",
      [](mt::Rng& rng, std::size_t) -> std::string {
        const auto mol = mt::random_molecule(rng);
        const auto name = mt::random_basis_name(rng, mol);
        const auto basis = chem::BasisSet::build(mol, name);
        const auto p = mt::random_symmetric_density(rng, basis.num_functions());

        hfx::HfxOptions serial;
        serial.eps_schwarz = 1e-12;
        serial.num_threads = 1;
        const auto k0 = hfx::FockBuilder(basis, serial).exchange(p).k;

        // One random schedule and thread count per case; the sweep over
        // all combinations lives in test_hfx's fixed-seed regression.
        hfx::HfxOptions par = serial;
        par.schedule = mt::all_schedules()[rng.index(4)];
        par.num_threads = static_cast<std::size_t>(1) << (1 + rng.index(3));
        const auto kp = hfx::FockBuilder(basis, par).exchange(p).k;
        const double diff = la::max_abs(kp - k0);
        if (diff > 1e-12)
          return std::string("schedule ") + schedule_name(par.schedule) +
                 " at " + std::to_string(par.num_threads) +
                 " threads drifted from serial by " + fmt(diff);
        return "";
      });
}

// The sparse compacted-E-list kernel against the retained dense
// reference kernel, quartet by quartet, on a basis with s, p and d
// shells (6-31g* puts Cartesian d on O). The sparse kernel preserves
// the dense kernel's association order, so agreement is bitwise; we
// assert the acceptance bound of 1e-12.
TEST(Differential, SparseKernelMatchesDenseReferenceOnMixedShells) {
  MTHFX_PROPERTY_N(
      "Differential.SparseKernelMatchesDenseReferenceOnMixedShells", 6,
      [](mt::Rng& rng, std::size_t) -> std::string {
        namespace ints = mthfx::ints;
        const auto mol = mt::jittered(rng, mthfx::workload::water(), 0.08);
        const auto basis = chem::BasisSet::build(mol, "6-31g*");

        std::vector<ints::ShellPairHermite> sparse;
        std::vector<ints::ShellPairHermite> dense;
        for (std::size_t sa = 0; sa < basis.num_shells(); ++sa)
          for (std::size_t sb = 0; sb <= sa; ++sb) {
            sparse.emplace_back(basis.shell(sa), basis.shell(sb));
            dense.emplace_back(basis.shell(sa), basis.shell(sb),
                               ints::EriKernel::kDenseReference);
          }

        ints::EriBlock bs;
        ints::EriBlock bd;
        for (std::size_t bra = 0; bra < sparse.size(); ++bra)
          for (std::size_t ket = 0; ket <= bra; ++ket) {
            ints::eri_shell_quartet(sparse[bra], sparse[ket], bs);
            ints::eri_shell_quartet_dense_reference(dense[bra], dense[ket],
                                                    bd);
            for (std::size_t i = 0; i < bs.values.size(); ++i)
              if (std::abs(bs.values[i] - bd.values[i]) > 1e-12)
                return "quartet (" + std::to_string(bra) + "," +
                       std::to_string(ket) + ") element " +
                       std::to_string(i) + ": sparse " + fmt(bs.values[i]) +
                       " vs dense " + fmt(bd.values[i]);
          }
        return "";
      });
}

// Full builder on a d-shell basis, every schedule, at tight screening:
// the sparse kernel + ket-side intermediates + early-exit ket loop must
// reproduce the dense J/K oracle to 1e-12.
TEST(Differential, MixedShellBuildMatchesOracleAcrossSchedules) {
  MTHFX_PROPERTY_N(
      "Differential.MixedShellBuildMatchesOracleAcrossSchedules", 6,
      [](mt::Rng& rng, std::size_t) -> std::string {
        const auto mol = mt::jittered(rng, mthfx::workload::water(), 0.08);
        const auto basis = chem::BasisSet::build(mol, "6-31g*");
        const auto p = mt::random_symmetric_density(rng, basis.num_functions());
        const auto ref = mt::dense_jk_reference(basis, p);

        hfx::HfxOptions opts;
        opts.eps_schwarz = 1e-12;
        opts.num_threads = 1 + rng.index(8);
        for (const auto schedule : mt::all_schedules()) {
          opts.schedule = schedule;
          hfx::FockBuilder builder(basis, opts);
          const auto jk = builder.coulomb_exchange(p);
          const double kerr = la::max_abs(jk.k - ref.k);
          const double jerr = la::max_abs(jk.j - ref.j);
          if (kerr > 1e-12 || jerr > 1e-12)
            return std::string("schedule ") + schedule_name(schedule) +
                   " (threads " + std::to_string(opts.num_threads) +
                   "): |dK| " + fmt(kerr) + " |dJ| " + fmt(jerr);
        }
        return "";
      });
}

// Pinned regression for the early-exit Schwarz break: the bulk tail
// accounting must keep both conservation laws intact —
//   considered = schwarz + density + computed, and
//   considered = sum over tasks of (ket_end - ket_begin)
// — at a screening threshold loose enough that tasks actually break
// mid-range, with and without density screening, on every schedule.
TEST(Differential, EarlyExitScreeningStatsStayConserved) {
  // Water is too compact for quartet-level Schwarz failures at any
  // threshold its pair list survives; propylene carbonate has enough
  // spatial spread that ket ranges genuinely break mid-task.
  const auto mol = mthfx::workload::propylene_carbonate();
  const auto basis = chem::BasisSet::build(mol, "sto-3g");
  la::Matrix p(basis.num_functions(), basis.num_functions());
  for (std::size_t i = 0; i < p.rows(); ++i)
    for (std::size_t j = 0; j < p.cols(); ++j)
      p(i, j) = (i == j) ? 1.0 : 0.02 / (1.0 + static_cast<double>(i + j));

  for (const bool density : {false, true}) {
    for (const auto schedule : mt::all_schedules()) {
      hfx::HfxOptions opts;
      opts.eps_schwarz = 1e-6;  // loose: forces mid-range breaks
      opts.density_screening = density;
      opts.schedule = schedule;
      opts.num_threads = 4;
      hfx::FockBuilder builder(basis, opts);
      const auto r = builder.coulomb_exchange(p);
      const auto& s = r.stats.screening;

      std::uint64_t span = 0;
      for (const auto& task : builder.tasks())
        span += task.ket_end - task.ket_begin;

      EXPECT_GT(s.quartets_schwarz_screened, 0u)
          << "threshold not loose enough to exercise the break";
      EXPECT_EQ(s.quartets_considered,
                s.quartets_schwarz_screened + s.quartets_density_screened +
                    s.quartets_computed)
          << "schedule " << schedule_name(schedule) << " density " << density;
      EXPECT_EQ(s.quartets_considered, span)
          << "schedule " << schedule_name(schedule) << " density " << density;
      if (!density) EXPECT_EQ(s.quartets_density_screened, 0u);
    }
  }
}

// End-to-end differential: the converged SCF energy must not depend on
// the schedule policy. Fewer default iterations — each case is two full
// SCF solves.
TEST(Differential, ScfEnergyScheduleIndependent) {
  MTHFX_PROPERTY_N(
      "Differential.ScfEnergyScheduleIndependent", 10,
      [](mt::Rng& rng, std::size_t) -> std::string {
        auto mol = mt::jittered(rng, mthfx::workload::water(), 0.05);
        const auto basis = chem::BasisSet::build(mol, "sto-3g");

        scf::ScfOptions base;
        base.energy_tolerance = 1e-10;
        base.diis_tolerance = 1e-8;
        base.hfx.eps_schwarz = 1e-12;
        base.hfx.num_threads = 1;
        base.hfx.schedule = hfx::HfxSchedule::kStaticBlock;
        const auto ref = scf::rhf(mol, basis, base);

        scf::ScfOptions alt = base;
        alt.hfx.schedule = mt::all_schedules()[rng.index(4)];
        alt.hfx.num_threads = 1 + rng.index(8);
        const auto got = scf::rhf(mol, basis, alt);
        if (!ref.converged || !got.converged)
          return "SCF did not converge under one of the schedules";
        if (std::abs(ref.energy - got.energy) > 1e-9)
          return std::string("schedule ") + schedule_name(alt.hfx.schedule) +
                 " changed the SCF energy by " +
                 fmt(std::abs(ref.energy - got.energy));
        return "";
      });
}

// The batched SIMD kernel against both retained oracles — the scalar
// sparse kernel and the dense reference — quartet by quartet, on random
// stream slices. Slice lengths are drawn to cover single-quartet
// streams, sub-width batches and ragged tails (the stream length mod 8
// varies with the draw), and the stream is shuffled so batches mix
// structural classes in different lane orders each case.
TEST(Differential, BatchedKernelMatchesScalarAndDenseOnMixedShells) {
  MTHFX_PROPERTY_N(
      "Differential.BatchedKernelMatchesScalarAndDenseOnMixedShells", 6,
      [](mt::Rng& rng, std::size_t) -> std::string {
        namespace ints = mthfx::ints;
        const auto mol = mt::jittered(rng, mthfx::workload::water(), 0.08);
        const auto basis = chem::BasisSet::build(mol, "6-31g*");

        std::vector<ints::ShellPairHermite> batched;
        std::vector<ints::ShellPairHermite> dense;
        const std::size_t ns = basis.num_shells();
        batched.reserve(ns * (ns + 1) / 2);
        dense.reserve(ns * (ns + 1) / 2);
        for (std::size_t sa = 0; sa < ns; ++sa)
          for (std::size_t sb = 0; sb <= sa; ++sb) {
            batched.emplace_back(basis.shell(sa), basis.shell(sb),
                                 ints::EriKernel::kBatched);
            dense.emplace_back(basis.shell(sa), basis.shell(sb),
                               ints::EriKernel::kDenseReference);
          }

        // Shuffled full quartet stream: quartet (bra, ket) with
        // ket <= bra, encoded as bra * npairs + ket (a bare pair's
        // template comma would split the property macro's arguments).
        const std::size_t npairs = batched.size();
        std::vector<std::size_t> quartets;
        for (std::size_t bra = 0; bra < npairs; ++bra)
          for (std::size_t ket = 0; ket <= bra; ++ket)
            quartets.push_back(bra * npairs + ket);
        for (std::size_t i = quartets.size(); i > 1; --i)
          std::swap(quartets[i - 1], quartets[rng.index(i)]);

        // Random slice lengths, always including 1 and a ragged tail.
        std::vector<std::size_t> lens;
        lens.push_back(1);
        lens.push_back(1 + rng.index(8));
        lens.push_back(8 + 1 + rng.index(16));
        lens.push_back(quartets.size());
        for (const std::size_t len : lens) {
          std::vector<ints::QuartetRef> stream;
          for (std::size_t q = 0; q < len; ++q)
            stream.push_back({&batched[quartets[q] / npairs],
                              &batched[quartets[q] % npairs]});
          std::vector<ints::EriBlock> out(len);
          ints::eri_shell_quartet_batched({stream.data(), len}, out.data());

          ints::EriBlock ref_sparse;
          ints::EriBlock ref_dense;
          for (std::size_t q = 0; q < len; ++q) {
            ints::eri_shell_quartet(*stream[q].bra, *stream[q].ket,
                                    ref_sparse);
            ints::eri_shell_quartet_dense_reference(
                dense[quartets[q] / npairs], dense[quartets[q] % npairs],
                ref_dense);
            for (std::size_t i = 0; i < ref_sparse.values.size(); ++i) {
              const double b = out[q].values[i];
              if (std::abs(b - ref_sparse.values[i]) > 1e-12 ||
                  std::abs(b - ref_dense.values[i]) > 1e-12)
                return "len " + std::to_string(len) + " quartet " +
                       std::to_string(q) + " element " + std::to_string(i) +
                       ": batched " + fmt(b) + " vs sparse " +
                       fmt(ref_sparse.values[i]) + " vs dense " +
                       fmt(ref_dense.values[i]);
            }
          }
        }
        return "";
      });
}

// Builder-level kernel cross-check: the same build with each of the
// three quartet kernels must produce the same K to the kernels'
// agreement budget — across a random schedule and thread count, so the
// batched stream formation composes with every task partitioning.
TEST(Differential, BuildAgreesAcrossEriKernels) {
  MTHFX_PROPERTY_N(
      "Differential.BuildAgreesAcrossEriKernels", 6,
      [](mt::Rng& rng, std::size_t) -> std::string {
        namespace ints = mthfx::ints;
        const auto mol = mt::jittered(rng, mthfx::workload::water(), 0.08);
        const auto basis = chem::BasisSet::build(mol, "6-31g*");
        const auto p = mt::random_symmetric_density(rng, basis.num_functions());

        hfx::HfxOptions opts;
        opts.eps_schwarz = 1e-12;
        opts.schedule = mt::all_schedules()[rng.index(4)];
        opts.num_threads = 1 + rng.index(8);

        opts.eri_kernel = ints::EriKernel::kSparse;
        const auto k_sparse = hfx::FockBuilder(basis, opts).exchange(p).k;
        opts.eri_kernel = ints::EriKernel::kBatched;
        const auto k_batched = hfx::FockBuilder(basis, opts).exchange(p).k;
        opts.eri_kernel = ints::EriKernel::kDenseReference;
        const auto k_dense = hfx::FockBuilder(basis, opts).exchange(p).k;

        const double db = la::max_abs(k_batched - k_sparse);
        const double dd = la::max_abs(k_dense - k_sparse);
        if (db > 1e-12 || dd > 1e-12)
          return std::string("schedule ") + schedule_name(opts.schedule) +
                 " (threads " + std::to_string(opts.num_threads) +
                 "): |K_batched - K_sparse| " + fmt(db) +
                 ", |K_dense - K_sparse| " + fmt(dd);
        return "";
      });
}

namespace {

/// Positive semidefinite density C C^T with k random columns: rho >= 0
/// everywhere, like an SCF density, but with no structure to hide behind.
la::Matrix psd_density(std::size_t n, std::size_t k, std::uint64_t seed) {
  mt::Rng rng(seed);
  la::Matrix c(n, k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t o = 0; o < k; ++o) c(i, o) = rng.uniform(-0.4, 0.4);
  return la::matmul(c, la::transpose(c));
}

/// max |a - b| / max |b|; a NaN anywhere counts as an infinite
/// difference.
double relative_diff(const la::Matrix& a, const la::Matrix& b) {
  double diff = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    const double x = a.data()[i], y = b.data()[i];
    if (std::isnan(x) || std::isnan(y)) return INFINITY;
    diff = std::max(diff, std::abs(x - y));
    scale = std::max(scale, std::abs(y));
  }
  return scale > 0.0 ? diff / scale : diff;
}

double relative_diff(double a, double b) {
  return std::abs(a - b) / std::max(std::abs(b), 1e-300);
}

/// The batched, threaded integrator against the per-point reference on
/// one system, for lda, pbe and pbe0, closed and open shell: E, V and
/// ∫rho agree to 1e-12 relative.
void expect_xc_matches_reference(const chem::Molecule& mol,
                                 const std::string& basis_name,
                                 const dft::GridOptions& grid_options,
                                 bool screen_basis) {
  const auto basis = chem::BasisSet::build(mol, basis_name);
  const std::size_t n = basis.num_functions();
  const dft::MolecularGrid grid(mol, grid_options);
  const dft::XcIntegrator xc(basis, grid, screen_basis, /*num_threads=*/3);
  if (screen_basis) {
    EXPECT_LT(xc.cached_fraction(), 1.0);
  }
  const la::Matrix p = psd_density(n, 6, 11);
  const la::Matrix pa = psd_density(n, 4, 12);
  const la::Matrix pb = psd_density(n, 3, 13);
  constexpr double kTol = 1e-12;
  for (const char* name : {"lda", "pbe", "pbe0"}) {
    SCOPED_TRACE(name);
    const auto f = dft::make_functional(name);
    const auto got = xc.integrate(f, p);
    const auto ref = mt::reference_xc(xc, f, p);
    EXPECT_LE(relative_diff(got.energy, ref.energy), kTol);
    EXPECT_LE(relative_diff(got.integrated_density, ref.integrated_density),
              kTol);
    EXPECT_LE(relative_diff(got.v, ref.v), kTol);

    const auto fs = dft::make_spin_functional(name);
    const auto got_s = xc.integrate_spin(fs, pa, pb);
    const auto ref_s = mt::reference_xc_spin(xc, fs, pa, pb);
    EXPECT_LE(relative_diff(got_s.energy, ref_s.energy), kTol);
    EXPECT_LE(
        relative_diff(got_s.integrated_density, ref_s.integrated_density),
        kTol);
    EXPECT_LE(relative_diff(got_s.v_alpha, ref_s.v_alpha), kTol);
    EXPECT_LE(relative_diff(got_s.v_beta, ref_s.v_beta), kTol);
  }
}

}  // namespace

// Dense AO table: every batch's panels are contiguous rows of the cache.
TEST(Differential, BatchedXcMatchesPerPointReferenceDense) {
  expect_xc_matches_reference(mthfx::workload::water(), "6-31g*", {},
                              /*screen_basis=*/false);
}

// Screened AO table: each batch gathers the union of its points' local
// AOs, so the panels carry zeros the per-point loops never see.
TEST(Differential, BatchedXcMatchesPerPointReferenceScreened) {
  dft::GridOptions grid_options;
  grid_options.radial_points = 20;
  grid_options.angular_points = 26;
  const auto box =
      mthfx::workload::box_of(mthfx::workload::propylene_carbonate(), 2, 1.0,
                              5);
  expect_xc_matches_reference(box, "sto-3g", grid_options,
                              /*screen_basis=*/true);
}
