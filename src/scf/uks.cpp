#include "scf/uks.hpp"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "dft/spin_functionals.hpp"
#include "dft/xc_integrator.hpp"
#include "ints/one_electron.hpp"
#include "linalg/diis.hpp"
#include "linalg/eigen.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"

namespace mthfx::scf {

using linalg::Matrix;

namespace {

struct SpinState {
  Matrix c;
  linalg::Vector eps;
  Matrix p;
};

SpinState solve_channel(const Matrix& f, const Matrix& x, std::size_t nocc) {
  const Matrix fprime =
      linalg::matmul(linalg::matmul(linalg::transpose(x), f), x);
  const auto eig = linalg::eigh(fprime);
  SpinState out;
  out.c = linalg::matmul(x, eig.vectors);
  out.eps = eig.values;
  const std::size_t n = out.c.rows();
  out.p = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double v = 0.0;
      for (std::size_t o = 0; o < nocc; ++o) v += out.c(i, o) * out.c(j, o);
      out.p(i, j) = v;
    }
  return out;
}

}  // namespace

UksResult uks(const chem::Molecule& mol, const chem::BasisSet& basis,
              int multiplicity, const UksOptions& options) {
  const obs::Trace::Scope scf_span(obs::global_trace(), "scf.uks");
  const int nelec = mol.num_electrons();
  const int nopen = multiplicity - 1;
  if (nopen < 0 || (nelec - nopen) % 2 != 0 || nelec < nopen)
    throw std::invalid_argument(
        "uks: electron count inconsistent with multiplicity");
  const auto nb = static_cast<std::size_t>((nelec - nopen) / 2);
  const auto na = nb + static_cast<std::size_t>(nopen);

  const dft::SpinFunctional functional =
      dft::make_spin_functional(options.functional);
  const double ax = functional.exact_exchange;
  const bool semilocal = options.functional != "hf";

  const Matrix s = ints::overlap(basis);
  const Matrix x = linalg::inverse_sqrt(s);
  const Matrix h = ints::core_hamiltonian(basis, mol);
  const double enuc = mol.nuclear_repulsion();

  hfx::FockBuilder builder(basis, options.scf.hfx);

  std::unique_ptr<dft::MolecularGrid> grid;
  std::unique_ptr<dft::XcIntegrator> xc;
  if (semilocal) {
    grid = std::make_unique<dft::MolecularGrid>(mol, options.grid);
    // Basis-evaluation screening rides the same sparsity switch as
    // the culled pair list: on for systems routed to the blocked path.
    xc = std::make_unique<dft::XcIntegrator>(
        basis, *grid,
        options.scf.hfx.sparsity.blocked(basis.num_functions()),
        options.scf.hfx.num_threads);
  }

  SpinState a = solve_channel(h, x, na);
  SpinState b = solve_channel(h, x, nb);

  linalg::Diis diis_a, diis_b;
  RecoveryLadder ladder(options.scf.recovery);
  UksResult result;
  result.scf.nuclear_repulsion = enuc;
  double e_prev = 0.0;
  std::size_t start_iter = 0;

  if (options.scf.resume) {
    const fault::ScfCheckpoint& ckpt = *options.scf.resume;
    if (ckpt.method != "uks")
      throw std::invalid_argument("uks: checkpoint is for method '" +
                                  ckpt.method + "'");
    start_iter = ckpt.iteration;
    a.p = ckpt.density;
    b.p = ckpt.density_beta;
    e_prev = ckpt.energy;
    diis_a.restore_history(ckpt.diis_focks, ckpt.diis_errors);
    diis_b.restore_history(ckpt.diis_focks_beta, ckpt.diis_errors_beta);
  }

  Matrix last_good_pa = a.p, last_good_pb = b.p;
  double last_ek = 0.0, last_exc = 0.0, last_ndens = 0.0;
  std::size_t completed = start_iter;

  for (std::size_t iter = start_iter; iter < options.scf.max_iterations;
       ++iter) {
    if (options.scf.cancel) options.scf.cancel->check();
    const obs::Trace::Scope iter_span(obs::global_trace(), "scf.iteration");
    const obs::Stopwatch iter_watch;
    const auto jk_a = builder.coulomb_exchange(a.p);
    const auto jk_b = builder.coulomb_exchange(b.p);
    const Matrix j_total = jk_a.j + jk_b.j;

    dft::XcSpinResult xres;
    const obs::Stopwatch xc_watch;
    if (semilocal) xres = xc->integrate_spin(functional, a.p, b.p);
    const double xc_seconds = xc_watch.seconds();

    Matrix fa = h + j_total;
    Matrix fb = h + j_total;
    if (ax != 0.0) {
      fa -= ax * jk_a.k;
      fb -= ax * jk_b.k;
    }
    if (semilocal) {
      fa += xres.v_alpha;
      fb += xres.v_beta;
    }

    const Matrix pt = a.p + b.p;
    const double e_core = linalg::trace_product(pt, h);
    const double e_j = 0.5 * linalg::trace_product(pt, j_total);
    const double e_k = -0.5 * ax * (linalg::trace_product(a.p, jk_a.k) +
                                    linalg::trace_product(b.p, jk_b.k));
    const double energy = e_core + e_j + e_k + xres.energy + enuc;

    auto err_for = [&](const Matrix& f, const Matrix& p) {
      const Matrix fps = linalg::matmul(linalg::matmul(f, p), s);
      return linalg::matmul(
          linalg::matmul(linalg::transpose(x), fps - linalg::transpose(fps)),
          x);
    };
    const Matrix ea = err_for(fa, a.p);
    const Matrix eb = err_for(fb, b.p);
    const double diis_err = std::max(linalg::max_abs(ea), linalg::max_abs(eb));
    const double delta_e = energy - e_prev;
    const bool finite = std::isfinite(energy) && std::isfinite(diis_err);

    ladder.observe(iter, energy, delta_e, diis_err);
    if (ladder.consume_diis_reset()) {
      diis_a.reset();
      diis_b.reset();
    }
    if (options.scf.use_diis && finite) {
      fa = diis_a.extrapolate(fa, ea);
      fb = diis_b.extrapolate(fb, eb);
    }

    ScfIterationLog log_entry;
    log_entry.energy = energy;
    log_entry.delta_e = delta_e;
    log_entry.diis_error = diis_err;
    log_entry.quartets_computed = jk_a.stats.screening.quartets_computed +
                                  jk_b.stats.screening.quartets_computed;
    log_entry.jk_seconds =
        jk_a.stats.wall_seconds + jk_b.stats.wall_seconds;
    log_entry.xc_seconds = xc_seconds;
    log_entry.seconds = iter_watch.seconds();
    log_entry.recovery_stage = static_cast<std::uint32_t>(ladder.stage());
    result.scf.log.push_back(log_entry);
    completed = iter + 1;

    if (!finite) {
      result.scf.diagnostics.finite = false;
      if (ladder.exhausted()) {
        result.scf.diagnostics.failure_reason =
            "non-finite energy with recovery ladder exhausted";
        break;
      }
      a.p = last_good_pa;
      b.p = last_good_pb;
      continue;
    }
    last_good_pa = a.p;
    last_good_pb = b.p;
    last_ek = e_k;
    last_exc = xres.energy;
    last_ndens = xres.integrated_density;

    const bool e_ok = iter > 0 && std::abs(energy - e_prev) <
                                      options.scf.energy_tolerance;
    const bool d_ok = diis_err < options.scf.diis_tolerance;
    e_prev = energy;

    if (e_ok && d_ok) {
      result.scf.converged = true;
      result.scf.energy = energy;
      result.scf.iterations = iter + 1;
      result.scf.density_alpha = a.p;
      result.scf.density_beta = b.p;
      result.scf.coefficients_alpha = a.c;
      result.scf.coefficients_beta = b.c;
      result.scf.orbital_energies_alpha = a.eps;
      result.scf.orbital_energies_beta = b.eps;
      result.xc_energy = xres.energy;
      result.exact_exchange_energy = e_k;
      result.integrated_density = xres.integrated_density;
      result.scf.diagnostics.final_stage = ladder.stage();
      result.scf.diagnostics.recovery_events = ladder.events();
      return result;
    }

    const double shift =
        std::max(options.scf.level_shift, ladder.level_shift());
    if (shift > 0.0) {
      const Matrix spa = linalg::matmul(linalg::matmul(s, a.p), s);
      const Matrix spb = linalg::matmul(linalg::matmul(s, b.p), s);
      fa += shift * (s - spa);
      fb += shift * (s - spb);
    }
    const Matrix pa_old = a.p;
    const Matrix pb_old = b.p;
    a = solve_channel(fa, x, na);
    b = solve_channel(fb, x, nb);
    const double configured_damping =
        options.scf.density_damping > 0.0 &&
                diis_err > options.scf.damping_until
            ? options.scf.density_damping
            : 0.0;
    const double d = std::max(configured_damping, ladder.damping());
    if (d > 0.0) {
      a.p = (1.0 - d) * a.p + d * pa_old;
      b.p = (1.0 - d) * b.p + d * pb_old;
    }

    if (options.scf.checkpoint_sink && options.scf.checkpoint_every > 0 &&
        (iter + 1) % options.scf.checkpoint_every == 0) {
      fault::ScfCheckpoint ckpt;
      ckpt.method = "uks";
      ckpt.iteration = iter + 1;
      ckpt.energy = e_prev;
      ckpt.density = a.p;
      ckpt.density_beta = b.p;
      const auto copy = [](const auto& history) {
        return std::vector<Matrix>(history.begin(), history.end());
      };
      ckpt.diis_focks = copy(diis_a.fock_history());
      ckpt.diis_errors = copy(diis_a.error_history());
      ckpt.diis_focks_beta = copy(diis_b.fock_history());
      ckpt.diis_errors_beta = copy(diis_b.error_history());
      options.scf.checkpoint_sink(ckpt);
    }
  }

  result.scf.converged = false;
  result.scf.energy = e_prev;
  result.scf.iterations = completed;
  result.scf.density_alpha = a.p;
  result.scf.density_beta = b.p;
  result.scf.coefficients_alpha = a.c;
  result.scf.coefficients_beta = b.c;
  result.scf.orbital_energies_alpha = a.eps;
  result.scf.orbital_energies_beta = b.eps;
  result.xc_energy = last_exc;
  result.exact_exchange_energy = last_ek;
  result.integrated_density = last_ndens;
  result.scf.diagnostics.final_stage = ladder.stage();
  result.scf.diagnostics.recovery_events = ladder.events();
  return result;
}

}  // namespace mthfx::scf
