#include "scf/rks.hpp"

#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "dft/xc_integrator.hpp"
#include "ints/one_electron.hpp"
#include "linalg/diis.hpp"
#include "linalg/eigen.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"
#include "scf/guess.hpp"

namespace mthfx::scf {

using linalg::Matrix;

KsResult rks(const chem::Molecule& mol, const chem::BasisSet& basis,
             const KsOptions& options) {
  const obs::Trace::Scope scf_span(obs::global_trace(), "scf.rks");
  const int nelec = mol.num_electrons();
  if (nelec % 2 != 0)
    throw std::invalid_argument("rks: closed-shell SCF needs even electrons");
  const auto nocc = static_cast<std::size_t>(nelec / 2);

  const dft::Functional functional = dft::make_functional(options.functional);
  const double ax = functional.exact_exchange;
  const bool semilocal = options.functional != "hf";

  const Matrix s = ints::overlap(basis);
  const Matrix x = linalg::inverse_sqrt(s);
  const Matrix h = ints::core_hamiltonian(basis, mol);
  const double enuc = mol.nuclear_repulsion();

  std::optional<hfx::FockBuilder> own_builder;
  if (options.scf.shared_builder &&
      &options.scf.shared_builder->basis() != &basis)
    throw std::invalid_argument(
        "rks: shared_builder is bound to a different basis object");
  if (!options.scf.shared_builder) own_builder.emplace(basis, options.scf.hfx);
  const hfx::FockBuilder& builder =
      options.scf.shared_builder ? *options.scf.shared_builder : *own_builder;

  // The grid is only needed for functionals with a semilocal part.
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

  Matrix p = initial_scf_density(basis, mol, x, options.scf, "rks");
  linalg::Diis diis;
  RecoveryLadder ladder(options.scf.recovery);

  KsResult result;
  result.scf.nuclear_repulsion = enuc;
  double e_prev = 0.0;
  std::size_t start_iter = 0;

  if (options.scf.resume) {
    const fault::ScfCheckpoint& ckpt = *options.scf.resume;
    if (ckpt.method != "rks")
      throw std::invalid_argument("rks: checkpoint is for method '" +
                                  ckpt.method + "'");
    start_iter = ckpt.iteration;
    p = ckpt.density;
    e_prev = ckpt.energy;
    diis.restore_history(ckpt.diis_focks, ckpt.diis_errors);
  }

  Matrix last_good_p = p;
  double last_e1 = 0.0, last_ej = 0.0, last_ek = 0.0;
  double last_exc = 0.0, last_ndens = 0.0;
  std::size_t completed = start_iter;

  for (std::size_t iter = start_iter; iter < options.scf.max_iterations;
       ++iter) {
    if (options.scf.cancel) options.scf.cancel->check();
    const obs::Trace::Scope iter_span(obs::global_trace(), "scf.iteration");
    const obs::Stopwatch iter_watch;
    const auto jk = builder.coulomb_exchange(p);

    dft::XcResult xres;
    const obs::Stopwatch xc_watch;
    if (semilocal) xres = xc->integrate(functional, p);
    const double xc_seconds = xc_watch.seconds();

    Matrix f = h + jk.j;
    if (ax != 0.0) f -= (0.5 * ax) * jk.k;
    if (semilocal) f += xres.v;

    const double e1 = linalg::trace_product(p, h);
    const double ej = 0.5 * linalg::trace_product(p, jk.j);
    const double ek = -0.25 * ax * linalg::trace_product(p, jk.k);
    const double energy = e1 + ej + ek + xres.energy + enuc;

    const Matrix fps = linalg::matmul(linalg::matmul(f, p), s);
    const Matrix err = linalg::matmul(
        linalg::matmul(linalg::transpose(x), fps - linalg::transpose(fps)), x);
    const double diis_err_norm = linalg::max_abs(err);
    const double delta_e = energy - e_prev;
    const bool finite =
        std::isfinite(energy) && std::isfinite(diis_err_norm);

    ladder.observe(iter, energy, delta_e, diis_err_norm);
    if (ladder.consume_diis_reset()) diis.reset();
    if (options.scf.use_diis && finite) f = diis.extrapolate(f, err);

    ScfIterationLog log_entry;
    log_entry.energy = energy;
    log_entry.delta_e = delta_e;
    log_entry.diis_error = diis_err_norm;
    log_entry.quartets_computed = jk.stats.screening.quartets_computed;
    log_entry.jk_seconds = jk.stats.wall_seconds;
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
      p = last_good_p;
      continue;
    }
    last_good_p = p;
    last_e1 = e1;
    last_ej = ej;
    last_ek = ek;
    last_exc = xres.energy;
    last_ndens = xres.integrated_density;

    const bool e_ok =
        iter > 0 && std::abs(energy - e_prev) < options.scf.energy_tolerance;
    const bool d_ok = diis_err_norm < options.scf.diis_tolerance;
    e_prev = energy;

    if (e_ok && d_ok) {
      result.scf.converged = true;
      result.scf.energy = energy;
      result.scf.one_electron_energy = e1;
      result.scf.coulomb_energy = ej;
      result.scf.exchange_energy = ek;
      result.scf.iterations = iter + 1;
      result.scf.density = p;
      result.scf.diagnostics.final_stage = ladder.stage();
      result.scf.diagnostics.recovery_events = ladder.events();
      result.xc_energy = xres.energy;
      result.exact_exchange_energy = ek;
      result.integrated_density = xres.integrated_density;
      const auto sol = solve_orbitals(f, x, nocc);
      result.scf.coefficients = sol.coefficients;
      result.scf.orbital_energies = sol.orbital_energies;
      return result;
    }

    const double shift = ladder.level_shift();
    if (shift > 0.0) {
      const Matrix sps = linalg::matmul(linalg::matmul(s, p), s);
      f += shift * (s - sps);
    }
    const auto sol = solve_orbitals(f, x, nocc);
    const double damping = ladder.damping();
    p = damping > 0.0 ? (1.0 - damping) * sol.density + damping * p
                      : sol.density;
    result.scf.coefficients = sol.coefficients;
    result.scf.orbital_energies = sol.orbital_energies;

    if (options.scf.checkpoint_sink && options.scf.checkpoint_every > 0 &&
        (iter + 1) % options.scf.checkpoint_every == 0) {
      fault::ScfCheckpoint ckpt;
      ckpt.method = "rks";
      ckpt.iteration = iter + 1;
      ckpt.energy = e_prev;
      ckpt.density = p;
      ckpt.diis_focks = std::vector<Matrix>(diis.fock_history().begin(),
                                            diis.fock_history().end());
      ckpt.diis_errors = std::vector<Matrix>(diis.error_history().begin(),
                                             diis.error_history().end());
      options.scf.checkpoint_sink(ckpt);
    }
  }

  result.scf.converged = false;
  result.scf.energy = e_prev;
  result.scf.one_electron_energy = last_e1;
  result.scf.coulomb_energy = last_ej;
  result.scf.exchange_energy = last_ek;
  result.scf.iterations = completed;
  result.scf.density = p;
  result.scf.diagnostics.final_stage = ladder.stage();
  result.scf.diagnostics.recovery_events = ladder.events();
  result.xc_energy = last_exc;
  result.exact_exchange_energy = last_ek;
  result.integrated_density = last_ndens;
  return result;
}

}  // namespace mthfx::scf
