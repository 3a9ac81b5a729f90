#include "scf/rhf.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "ints/one_electron.hpp"
#include "linalg/diis.hpp"
#include "linalg/eigen.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"
#include "scf/guess.hpp"
#include "scf/sparse_scf.hpp"

namespace mthfx::scf {

using linalg::Matrix;

obs::Json scf_log_to_json(const std::vector<ScfIterationLog>& log) {
  obs::Json rows = obs::Json::array();
  for (std::size_t i = 0; i < log.size(); ++i) {
    const ScfIterationLog& e = log[i];
    obs::Json row = obs::Json::object();
    row["iteration"] = i + 1;
    row["energy"] = e.energy;
    row["delta_e"] = e.delta_e;
    row["diis_error"] = e.diis_error;
    row["quartets_computed"] = e.quartets_computed;
    row["seconds"] = e.seconds;
    row["jk_seconds"] = e.jk_seconds;
    row["xc_seconds"] = e.xc_seconds;
    row["recovery_stage"] =
        to_string(static_cast<RecoveryStage>(e.recovery_stage));
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {

// DIIS error e = X^T (F P S - S P F) X — zero at self-consistency.
Matrix diis_error(const Matrix& f, const Matrix& p, const Matrix& s,
                  const Matrix& x) {
  const Matrix fps = linalg::matmul(linalg::matmul(f, p), s);
  const Matrix spf = linalg::transpose(fps);
  return linalg::matmul(linalg::matmul(linalg::transpose(x), fps - spf), x);
}

std::vector<Matrix> history_copy(const std::deque<Matrix>& history) {
  return {history.begin(), history.end()};
}

}  // namespace

Matrix initial_scf_density(const chem::BasisSet& basis,
                           const chem::Molecule& mol, const Matrix& x,
                           const ScfOptions& options, const char* driver) {
  if (!options.initial_density) return core_guess_density(basis, mol, x);
  const Matrix& p0 = *options.initial_density;
  if (p0.rows() != basis.num_functions() || p0.cols() != basis.num_functions())
    throw std::invalid_argument(std::string(driver) +
                                ": initial_density dimension mismatch");
  return p0;
}

ScfResult rhf(const chem::Molecule& mol, const chem::BasisSet& basis,
              const ScfOptions& options) {
  // Large-basis route: distance-culled pairs, blocked J/K, purification
  // instead of diagonalization (scf/sparse_scf.hpp). Small systems never
  // enter it under the default kAuto threshold.
  if (options.hfx.sparsity.blocked(basis.num_functions()))
    return sparse_rhf(mol, basis, options);
  const obs::Trace::Scope scf_span(obs::global_trace(), "scf.rhf");
  const int nelec = mol.num_electrons();
  if (nelec % 2 != 0)
    throw std::invalid_argument("rhf: closed-shell SCF needs even electrons");
  const auto nocc = static_cast<std::size_t>(nelec / 2);

  const Matrix s = ints::overlap(basis);
  const Matrix x = linalg::inverse_sqrt(s);
  const Matrix h = ints::core_hamiltonian(basis, mol);
  const double enuc = mol.nuclear_repulsion();

  std::optional<hfx::FockBuilder> own_builder;
  if (options.shared_builder &&
      &options.shared_builder->basis() != &basis)
    throw std::invalid_argument(
        "rhf: shared_builder is bound to a different basis object");
  if (!options.shared_builder) own_builder.emplace(basis, options.hfx);
  const hfx::FockBuilder& builder =
      options.shared_builder ? *options.shared_builder : *own_builder;

  Matrix p = initial_scf_density(basis, mol, x, options, "rhf");
  Matrix p_prev;     // density of the last *built* J/K
  Matrix j, k;       // running Coulomb/exchange matrices
  // Endgame switch for incremental Fock: once the solve is near
  // convergence, accumulated screening error from the DP builds floors
  // |dE| around the eps_schwarz noise scale, so the strict energy test
  // can only be trusted across consecutive *full* builds. When the
  // near-convergence window below is entered this turns sticky-true and
  // every remaining build is a full one; convergence is then declared
  // from noise-free deltas (and the reported energy comes from a full
  // build rather than a drifted incremental sum).
  bool force_full = false;
  linalg::Diis diis;
  RecoveryLadder ladder(options.recovery);

  ScfResult result;
  result.nuclear_repulsion = enuc;
  double e_prev = 0.0;
  std::size_t start_iter = 0;

  if (options.resume) {
    const fault::ScfCheckpoint& ckpt = *options.resume;
    if (ckpt.method != "rhf")
      throw std::invalid_argument("rhf: checkpoint is for method '" +
                                  ckpt.method + "'");
    start_iter = ckpt.iteration;
    p = ckpt.density;
    p_prev = ckpt.density_prev;
    j = ckpt.j;
    k = ckpt.k;
    e_prev = ckpt.energy;
    force_full = ckpt.force_full_builds;
    diis.restore_history(ckpt.diis_focks, ckpt.diis_errors);
  }

  Matrix last_good_p = p;  // restart point after a non-finite iterate
  double last_e1 = 0.0, last_ej = 0.0, last_ek = 0.0;
  std::size_t completed = start_iter;

  for (std::size_t iter = start_iter; iter < options.max_iterations; ++iter) {
    if (options.cancel) options.cancel->check();
    const obs::Trace::Scope iter_span(obs::global_trace(), "scf.iteration");
    const obs::Stopwatch iter_watch;
    ScfIterationLog log_entry;

    const bool full_build = !options.incremental_fock || p_prev.empty() ||
                            force_full ||
                            (iter % options.full_rebuild_every == 0);
    if (full_build) {
      auto jk = builder.coulomb_exchange(p);
      j = std::move(jk.j);
      k = std::move(jk.k);
      log_entry.quartets_computed = jk.stats.screening.quartets_computed;
      log_entry.jk_seconds = jk.stats.wall_seconds;
    } else {
      const Matrix dp = p - p_prev;
      auto jk = builder.coulomb_exchange(dp);
      j += jk.j;
      k += jk.k;
      log_entry.quartets_computed = jk.stats.screening.quartets_computed;
      log_entry.jk_seconds = jk.stats.wall_seconds;
    }
    p_prev = p;

    Matrix f = h + j - 0.5 * k;

    // Energy from the matrices of this iteration's density.
    const double e1 = linalg::trace_product(p, h);
    const double ej = 0.5 * linalg::trace_product(p, j);
    const double ek = -0.25 * linalg::trace_product(p, k);
    const double energy = e1 + ej + ek + enuc;

    const Matrix err = diis_error(f, p, s, x);
    const double diis_err_norm = linalg::max_abs(err);
    const double delta_e = energy - e_prev;
    const bool finite =
        std::isfinite(energy) && std::isfinite(diis_err_norm);

    ladder.observe(iter, energy, delta_e, diis_err_norm);
    if (ladder.consume_diis_reset()) diis.reset();
    // A non-finite pair would poison the DIIS history; keep it out.
    if (options.use_diis && finite) f = diis.extrapolate(f, err);

    log_entry.energy = energy;
    log_entry.delta_e = delta_e;
    log_entry.diis_error = diis_err_norm;
    log_entry.recovery_stage =
        static_cast<std::uint32_t>(ladder.stage());
    log_entry.seconds = iter_watch.seconds();
    result.log.push_back(log_entry);
    completed = iter + 1;

    if (!finite) {
      result.diagnostics.finite = false;
      if (ladder.exhausted()) {
        result.diagnostics.failure_reason =
            "non-finite energy with recovery ladder exhausted";
        break;
      }
      // Restart from the last healthy density with the newly escalated
      // mitigation engaged; drop incremental state (J/K are tainted).
      p = last_good_p;
      p_prev = Matrix();
      continue;
    }
    last_good_p = p;
    last_e1 = e1;
    last_ej = ej;
    last_ek = ek;

    const bool e_converged =
        iter > 0 && std::abs(energy - e_prev) < options.energy_tolerance;
    const bool d_converged = diis_err_norm < options.diis_tolerance;
    e_prev = energy;

    // Once the DIIS error is inside its tolerance the solve is in the
    // endgame: from here on, build J/K in full so the energy test below
    // compares values free of accumulated DP screening drift. Without
    // this the verdict is decided by where the screening-noise random
    // walk happens to land relative to energy_tolerance — a coin flip
    // for noise ~eps_schwarz — and a "converged" energy inherits the
    // drift of every incremental build since the last rebuild.
    if (!force_full && options.incremental_fock && d_converged)
      force_full = true;

    if (e_converged && d_converged && full_build) {
      result.converged = true;
      result.energy = energy;
      result.one_electron_energy = e1;
      result.coulomb_energy = ej;
      result.exchange_energy = ek;
      result.iterations = iter + 1;
      result.density = p;
      result.diagnostics.final_stage = ladder.stage();
      result.diagnostics.recovery_events = ladder.events();
      // Final orbitals from the unextrapolated converged Fock.
      const auto sol = solve_orbitals(h + j - 0.5 * k, x, nocc);
      result.coefficients = sol.coefficients;
      result.orbital_energies = sol.orbital_energies;
      return result;
    }

    // Recovery mitigations shape the step to the next density: a level
    // shift pushes virtuals up before the orbital solve, damping mixes
    // the previous density into the new one.
    const double shift = ladder.level_shift();
    if (shift > 0.0) {
      const Matrix sps = linalg::matmul(linalg::matmul(s, p), s);
      f += shift * (s - sps);
    }
    const auto sol = solve_orbitals(f, x, nocc);
    const double damping = ladder.damping();
    p = damping > 0.0 ? (1.0 - damping) * sol.density + damping * p
                      : sol.density;
    result.coefficients = sol.coefficients;
    result.orbital_energies = sol.orbital_energies;

    if (options.checkpoint_sink && options.checkpoint_every > 0 &&
        (iter + 1) % options.checkpoint_every == 0) {
      fault::ScfCheckpoint ckpt;
      ckpt.method = "rhf";
      ckpt.iteration = iter + 1;
      ckpt.energy = e_prev;
      ckpt.density = p;
      ckpt.density_prev = p_prev;
      ckpt.j = j;
      ckpt.k = k;
      ckpt.force_full_builds = force_full;
      ckpt.diis_focks = history_copy(diis.fock_history());
      ckpt.diis_errors = history_copy(diis.error_history());
      options.checkpoint_sink(ckpt);
    }
  }

  result.converged = false;
  result.energy = e_prev;
  result.one_electron_energy = last_e1;
  result.coulomb_energy = last_ej;
  result.exchange_energy = last_ek;
  result.iterations = completed;
  result.density = p;
  result.diagnostics.final_stage = ladder.stage();
  result.diagnostics.recovery_events = ladder.events();
  return result;
}

double homo_lumo_gap(const ScfResult& result, const chem::Molecule& mol) {
  const auto nocc = static_cast<std::size_t>(mol.num_electrons() / 2);
  if (nocc == 0 || nocc >= result.orbital_energies.size()) return 0.0;
  return result.orbital_energies[nocc] - result.orbital_energies[nocc - 1];
}

}  // namespace mthfx::scf
