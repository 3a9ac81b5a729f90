#include "scf/solve.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "hfx/cell_list.hpp"
#include "ints/one_electron.hpp"
#include "linalg/diis.hpp"
#include "linalg/eigen.hpp"
#include "linalg/purify.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"

namespace mthfx::scf::detail {

using linalg::BlockPartition;
using linalg::BlockSparseMatrix;
using linalg::Matrix;

namespace {

// What differs between the two density steps: the AO matrices, the J/K
// build, the DIIS error and the Fock -> density map.
class Step {
 public:
  virtual ~Step() = default;
  virtual hfx::JkResult build(const hfx::FockBuilder& builder,
                              const Matrix& density) = 0;
  virtual Matrix error(const Matrix& f, const Matrix& p) = 0;
  virtual OrbitalSolution solve(const Matrix& f, const Channel& channel) = 0;
  virtual bool has_orbitals() const = 0;

  Matrix s, h;  ///< AO overlap and core Hamiltonian
};

class Diagonalize final : public Step {
 public:
  Diagonalize(const chem::BasisSet& basis, const chem::Molecule& mol) {
    s = ints::overlap(basis);
    x_ = linalg::inverse_sqrt(s);
    h = ints::core_hamiltonian(basis, mol);
  }
  hfx::JkResult build(const hfx::FockBuilder& builder,
                      const Matrix& density) override {
    return builder.coulomb_exchange(density);
  }
  // X^T (F P S - S P F) X — zero at self-consistency.
  Matrix error(const Matrix& f, const Matrix& p) override {
    const Matrix fps = linalg::matmul(linalg::matmul(f, p), s);
    return linalg::matmul(
        linalg::matmul(linalg::transpose(x_), fps - linalg::transpose(fps)),
        x_);
  }
  OrbitalSolution solve(const Matrix& f, const Channel& channel) override {
    return solve_orbitals(f, x_, channel.nocc, channel.occupancy);
  }
  bool has_orbitals() const override { return true; }

 private:
  Matrix x_;
};

// Gaussian-product gate for the T/V assembly: with μ_min the smallest
// product exponent of the pair, every primitive contribution carries
// exp(-μ R²) ≤ exp(-kOneElectronLogCut) ≈ 4e-18; even amplified by
// contraction/polynomial growth (~1e3) and the nuclear sum Σ_A Z_A/R
// (~1e4 at a thousand atoms) the dropped V elements sit below ~1e-11.
// Note this is a *distance* gate, not an overlap-magnitude gate: blocks
// like same-center s|p have exactly zero overlap by parity yet O(1)
// nuclear attraction, so |S| says nothing about |V|.
constexpr double kOneElectronLogCut = 40.0;

// The eigensolver-free step for large electrolyte boxes:
//  - S and H assembled over cell-list candidate pairs only, never the
//    dense O(ns²) sweep;
//  - J/K from FockBuilder's density-linked blocked build;
//  - S^{-1/2} by Newton–Schulz and the density by TC2 purification, both
//    on block-sparse matrices whose retained fraction falls with box size.
class Purify final : public Step {
 public:
  Purify(const chem::BasisSet& basis, const chem::Molecule& mol,
         const hfx::FockBuilder& builder, const hfx::SparsityOptions& sparsity,
         double setup_seconds, SparseScfInfo& info)
      : drop_tol_(sparsity.drop_tol),
        partition_(shell_aligned_partition(basis, sparsity.block_nbf)),
        info_(info) {
    info_.nbf = basis.num_functions();
    info_.num_pairs = builder.pairs().size();
    info_.setup_seconds = setup_seconds;
    const obs::Stopwatch oe_watch;
    one_electron_culled(basis, mol);
    info_.one_electron_seconds = oe_watch.seconds();

    s_blk_ = BlockSparseMatrix::from_dense(s, partition_, drop_tol_);
    auto ns = linalg::inverse_sqrt_ns(s_blk_, drop_tol_);
    if (!ns.converged)
      throw std::runtime_error(
          "sparse_rhf: Newton-Schulz S^{-1/2} did not converge (residual " +
          std::to_string(ns.residual) + ")");
    x_blk_ = std::move(ns.inverse_sqrt);
    info_.ns_iterations = ns.iterations;
    info_.ns_residual = ns.residual;
  }

  hfx::JkResult build(const hfx::FockBuilder& builder,
                      const Matrix& density) override {
    auto jk = builder.coulomb_exchange_blocked(blocked(density));
    info_.jk_seconds_total += jk.stats.wall_seconds;
    return jk;
  }

  // F P S - S P F through blocked multiplies; the dense commutator would
  // be three O(nao³) matmuls.
  Matrix error(const Matrix& f, const Matrix& p) override {
    const BlockSparseMatrix f_blk = blocked(f);
    info_.fock_nnz = f_blk.nnz_fraction();
    const Matrix fps =
        linalg::multiply(linalg::multiply(f_blk, blocked(p), drop_tol_),
                         s_blk_, drop_tol_)
            .to_dense();
    return fps - linalg::transpose(fps);
  }

  // Orthonormal-basis density of X F X by TC2, back-transformed:
  // P = occupancy · X P' X.
  OrbitalSolution solve(const Matrix& f, const Channel& channel) override {
    const BlockSparseMatrix f_ortho = linalg::multiply(
        linalg::multiply(x_blk_, blocked(f), drop_tol_), x_blk_, drop_tol_);
    linalg::PurifyStats stats;
    const BlockSparseMatrix p_ortho =
        linalg::tc2_density(f_ortho, channel.nocc, drop_tol_, &stats);
    if (!stats.converged)
      throw std::runtime_error("sparse_rhf: TC2 purification did not converge");
    info_.last_tc2_iterations = stats.iterations;
    BlockSparseMatrix p_ao = linalg::multiply(
        linalg::multiply(x_blk_, p_ortho, drop_tol_), x_blk_, drop_tol_);
    p_ao.scale(channel.occupancy);
    info_.density_nnz = p_ao.nnz_fraction();
    OrbitalSolution out;
    out.density = p_ao.to_dense();
    return out;
  }
  bool has_orbitals() const override { return false; }

 private:
  BlockSparseMatrix blocked(const Matrix& m) const {
    return BlockSparseMatrix::from_dense(m, partition_, drop_tol_);
  }

  // S and H = T + V over cell-list candidate pairs only. The pairs never
  // proposed are beyond summed extent radii, where every primitive
  // product underflows the ERI kernel's own cutoff — the same argument
  // the culled ERI pair list rests on.
  void one_electron_culled(const chem::BasisSet& basis,
                           const chem::Molecule& mol) {
    const std::size_t nao = basis.num_functions();
    s = Matrix(nao, nao);
    h = Matrix(nao, nao);
    const hfx::CellList cells(basis, hfx::shell_extent_radii(basis));

    const auto scatter = [&](Matrix& m, const Matrix& block, std::size_t sa,
                             std::size_t sb) {
      const std::size_t oa = basis.first_function(sa);
      const std::size_t ob = basis.first_function(sb);
      for (std::size_t i = 0; i < block.rows(); ++i)
        for (std::size_t j = 0; j < block.cols(); ++j) {
          m(oa + i, ob + j) = block(i, j);
          m(ob + j, oa + i) = block(i, j);
        }
    };

    // Smallest primitive exponent per shell; μ = αβ/(α+β) is monotone in
    // both arguments, so the loosest product exponent of a pair is
    // min_a min_b / (min_a + min_b).
    std::vector<double> min_exp(basis.num_shells());
    for (std::size_t sh = 0; sh < basis.num_shells(); ++sh) {
      double mn = basis.shell(sh).exponents()[0];
      for (const double e : basis.shell(sh).exponents()) mn = std::min(mn, e);
      min_exp[sh] = mn;
    }

    std::vector<std::uint32_t> cand;
    info_.pair_candidates = 0;
    for (std::size_t sa = 0; sa < basis.num_shells(); ++sa) {
      cand.clear();
      cells.candidates(sa, &cand);
      info_.pair_candidates += cand.size();
      for (const std::uint32_t sb : cand) {
        scatter(s, ints::overlap_block(basis.shell(sa), basis.shell(sb)), sa,
                sb);
        const double r = chem::distance(basis.shell(sa).center(),
                                        basis.shell(sb).center());
        const double mu_min =
            min_exp[sa] * min_exp[sb] / (min_exp[sa] + min_exp[sb]);
        if (mu_min * r * r > kOneElectronLogCut) continue;
        Matrix hblock = ints::kinetic_block(basis.shell(sa), basis.shell(sb));
        hblock += ints::nuclear_block(basis.shell(sa), basis.shell(sb), mol);
        scatter(h, hblock, sa, sb);
      }
    }
  }

  double drop_tol_;
  BlockPartition partition_;
  SparseScfInfo& info_;
  BlockSparseMatrix s_blk_, x_blk_;
};

Matrix channel_sum(const std::vector<Matrix>& m) {
  Matrix total = m[0];
  for (std::size_t c = 1; c < m.size(); ++c) total += m[c];
  return total;
}

std::vector<Matrix> history_copy(const std::deque<Matrix>& history) {
  return {history.begin(), history.end()};
}

// Rotate the HOMO toward the LUMO by π/8 and rebuild the density, so the
// SCF can break spin symmetry (stretched closed-shell bonds).
void mix_homo_lumo(OrbitalSolution& orb, const Channel& channel) {
  const std::size_t homo = channel.nocc - 1, lumo = channel.nocc;
  const double c = std::cos(0.25 * M_PI / 2.0);
  const double sn = std::sin(0.25 * M_PI / 2.0);
  Matrix& coef = orb.coefficients;
  for (std::size_t i = 0; i < coef.rows(); ++i) {
    const double vh = coef(i, homo), vl = coef(i, lumo);
    coef(i, homo) = c * vh + sn * vl;
    coef(i, lumo) = -sn * vh + c * vl;
  }
  orb.density = occupied_density(coef, channel.nocc, channel.occupancy);
}

// Energy components of one iteration.
struct Energies {
  double one_electron = 0.0, coulomb = 0.0, exchange = 0.0;
  double xc = 0.0, integrated_density = 0.0;
};

}  // namespace

Solution solve(const chem::Molecule& mol, const chem::BasisSet& basis,
               const SolveParams& params) {
  const ScfOptions& opt = params.scf;
  const std::string method = params.method;
  const std::vector<Channel>& channels = params.channels;
  const std::size_t nch = channels.size();
  const obs::Trace::Scope scf_span(obs::global_trace(), "scf." + method);

  const obs::Stopwatch setup_watch;
  std::optional<hfx::FockBuilder> own_builder;
  if (opt.shared_builder && &opt.shared_builder->basis() != &basis)
    throw std::invalid_argument(
        method + ": shared_builder is bound to a different basis object");
  if (!opt.shared_builder) own_builder.emplace(basis, opt.hfx);
  const hfx::FockBuilder& builder =
      opt.shared_builder ? *opt.shared_builder : *own_builder;

  SparseScfInfo local_info;
  std::unique_ptr<Step> step;
  if (params.step == DensityStep::kPurify)
    step = std::make_unique<Purify>(
        basis, mol, builder, opt.hfx.sparsity, setup_watch.seconds(),
        params.sparse_info ? *params.sparse_info : local_info);
  else
    step = std::make_unique<Diagonalize>(basis, mol);
  const Matrix& s = step->s;
  const Matrix& h = step->h;
  const double enuc = mol.nuclear_repulsion();
  // The grid is only needed for functionals with a semilocal part.
  // Basis-evaluation screening rides the same sparsity switch as the
  // culled pair list: on for systems routed to the blocked path.
  std::optional<dft::MolecularGrid> grid;
  std::optional<dft::XcIntegrator> xc;
  if (params.xc) {
    grid.emplace(mol, params.grid);
    xc.emplace(basis, *grid,
               opt.hfx.sparsity.blocked(basis.num_functions()),
               opt.hfx.num_threads);
  }
  // c·a_x: a closed-shell channel's K enters at half weight.
  const double k_scale = (nch == 1 ? 0.5 : 1.0) * params.exact_exchange;

  std::vector<Matrix> p(nch), p_prev(nch), j(nch), k(nch);
  std::vector<OrbitalSolution> orbitals(nch);
  std::vector<linalg::Diis> diis(nch);
  // Endgame switch for incremental Fock: once the solve is near
  // convergence, accumulated screening error from the ΔP builds floors
  // |dE| around the eps_schwarz noise scale, so the strict energy test
  // can only be trusted across consecutive *full* builds. It turns
  // sticky-true when the DIIS error enters its tolerance; every later
  // build is then a full one, convergence is declared from noise-free
  // deltas, and the reported energy comes from a full build rather than
  // a drifted incremental sum.
  bool force_full = false;
  double e_prev = 0.0;
  std::size_t start_iter = 0;

  if (opt.resume) {
    const fault::ScfCheckpoint& ckpt = *opt.resume;
    if (ckpt.method != method)
      throw std::invalid_argument(method + ": checkpoint is for method '" +
                                  ckpt.method + "'");
    start_iter = ckpt.iteration;
    e_prev = ckpt.energy;
    force_full = ckpt.force_full_builds;
    p[0] = ckpt.density;
    p_prev[0] = ckpt.density_prev;
    j[0] = ckpt.j;
    k[0] = ckpt.k;
    diis[0].restore_history(ckpt.diis_focks, ckpt.diis_errors);
    if (nch == 2) {
      p[1] = ckpt.density_beta;
      diis[1].restore_history(ckpt.diis_focks_beta, ckpt.diis_errors_beta);
    }
  } else if (opt.initial_density) {
    const Matrix& p0 = *opt.initial_density;
    if (p0.rows() != basis.num_functions() ||
        p0.cols() != basis.num_functions())
      throw std::invalid_argument(method +
                                  ": initial_density dimension mismatch");
    p[0] = p0;
  } else {
    // Core guess: the density step applied to the core Hamiltonian.
    for (std::size_t c = 0; c < nch; ++c) {
      orbitals[c] = step->solve(h, channels[c]);
      if (c == 0 && params.break_symmetry &&
          channels[0].nocc < basis.num_functions())
        mix_homo_lumo(orbitals[0], channels[0]);
      p[c] = orbitals[c].density;
    }
  }

  Solution out;
  ScfResult& result = out.scf;
  result.nuclear_repulsion = enuc;
  RecoveryLadder ladder(opt.recovery);
  std::vector<Matrix> last_good_p = p;  // restart point after a non-finite iterate
  Energies last;
  std::size_t completed = start_iter;

  for (std::size_t iter = start_iter; iter < opt.max_iterations; ++iter) {
    if (opt.cancel) opt.cancel->check();
    const obs::Trace::Scope iter_span(obs::global_trace(), "scf.iteration");
    const obs::Stopwatch iter_watch;
    ScfIterationLog log_entry;

    const bool full_build = !opt.incremental_fock || p_prev[0].empty() ||
                            force_full ||
                            (iter % opt.full_rebuild_every == 0);
    for (std::size_t c = 0; c < nch; ++c) {
      auto jk = full_build ? step->build(builder, p[c])
                           : step->build(builder, p[c] - p_prev[c]);
      if (full_build) {
        j[c] = std::move(jk.j);
        k[c] = std::move(jk.k);
      } else {
        j[c] += jk.j;
        k[c] += jk.k;
      }
      log_entry.quartets_computed += jk.stats.screening.quartets_computed;
      log_entry.jk_seconds += jk.stats.wall_seconds;
    }
    if (opt.incremental_fock) p_prev = p;

    XcTerm xc_term;
    if (xc) {
      const obs::Stopwatch xc_watch;
      xc_term = params.xc(*xc, p);
      log_entry.xc_seconds = xc_watch.seconds();
    }
    const Matrix p_total = channel_sum(p);
    const Matrix j_total = channel_sum(j);
    const auto fock = [&](std::size_t c) {
      Matrix f = h + j_total;
      if (k_scale != 0.0) f -= k_scale * k[c];
      if (xc) f += xc_term.v[c];
      return f;
    };
    std::vector<Matrix> f(nch);
    for (std::size_t c = 0; c < nch; ++c) f[c] = fock(c);

    // Energy from the matrices of this iteration's density.
    Energies e;
    e.one_electron = linalg::trace_product(p_total, h);
    e.coulomb = 0.5 * linalg::trace_product(p_total, j_total);
    double pk = linalg::trace_product(p[0], k[0]);
    for (std::size_t c = 1; c < nch; ++c)
      pk += linalg::trace_product(p[c], k[c]);
    e.exchange = -0.5 * k_scale * pk;
    e.xc = xc_term.energy;
    e.integrated_density = xc_term.integrated_density;
    const double energy = e.one_electron + e.coulomb + e.exchange + e.xc + enuc;

    std::vector<Matrix> err(nch);
    double diis_err_norm = 0.0;
    for (std::size_t c = 0; c < nch; ++c) {
      err[c] = step->error(f[c], p[c]);
      const double norm = linalg::max_abs(err[c]);
      diis_err_norm = c == 0 ? norm : std::max(diis_err_norm, norm);
    }
    const double delta_e = energy - e_prev;
    const bool finite = std::isfinite(energy) && std::isfinite(diis_err_norm);

    ladder.observe(iter, energy, delta_e, diis_err_norm);
    if (ladder.consume_diis_reset())
      for (linalg::Diis& d : diis) d.reset();
    // A non-finite pair would poison the DIIS history; keep it out.
    if (opt.use_diis && finite)
      for (std::size_t c = 0; c < nch; ++c)
        f[c] = diis[c].extrapolate(f[c], err[c]);

    log_entry.energy = energy;
    log_entry.delta_e = delta_e;
    log_entry.diis_error = diis_err_norm;
    log_entry.recovery_stage = static_cast<std::uint32_t>(ladder.stage());
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
      for (Matrix& m : p_prev) m = Matrix();
      continue;
    }
    last_good_p = p;
    last = e;

    const bool e_converged =
        iter > 0 && std::abs(energy - e_prev) < opt.energy_tolerance;
    const bool d_converged = diis_err_norm < opt.diis_tolerance;
    e_prev = energy;

    // Once the DIIS error is inside its tolerance the solve is in the
    // endgame: from here on, build J/K in full so the energy test below
    // compares values free of accumulated ΔP screening drift.
    if (!force_full && opt.incremental_fock && d_converged) force_full = true;

    if (e_converged && d_converged && full_build) {
      result.converged = true;
      if (step->has_orbitals())
        for (std::size_t c = 0; c < nch; ++c)
          orbitals[c] = step->solve(fock(c), channels[c]);
      break;
    }

    // Mitigations shape the step to the next density: a level shift
    // pushes virtuals up before the density step, damping mixes the
    // previous density into the new one.
    const double shift = std::max(params.level_shift, ladder.level_shift());
    const double configured_damping =
        params.density_damping > 0.0 && diis_err_norm > params.damping_until
            ? params.density_damping
            : 0.0;
    const double damping = std::max(configured_damping, ladder.damping());
    for (std::size_t c = 0; c < nch; ++c) {
      if (shift > 0.0) {
        const Matrix sps = linalg::matmul(linalg::matmul(s, p[c]), s);
        f[c] += shift * (s - sps);
      }
      orbitals[c] = step->solve(f[c], channels[c]);
      p[c] = damping > 0.0
                 ? (1.0 - damping) * orbitals[c].density + damping * p[c]
                 : orbitals[c].density;
    }

    if (opt.checkpoint_sink && opt.checkpoint_every > 0 &&
        (iter + 1) % opt.checkpoint_every == 0) {
      fault::ScfCheckpoint ckpt;
      ckpt.method = method;
      ckpt.iteration = iter + 1;
      ckpt.energy = e_prev;
      ckpt.density = p[0];
      if (opt.incremental_fock) {
        ckpt.density_prev = p_prev[0];
        ckpt.j = j[0];
        ckpt.k = k[0];
        ckpt.force_full_builds = force_full;
      }
      ckpt.diis_focks = history_copy(diis[0].fock_history());
      ckpt.diis_errors = history_copy(diis[0].error_history());
      if (nch == 2) {
        ckpt.density_beta = p[1];
        ckpt.diis_focks_beta = history_copy(diis[1].fock_history());
        ckpt.diis_errors_beta = history_copy(diis[1].error_history());
      }
      opt.checkpoint_sink(ckpt);
    }
  }

  result.energy = e_prev;
  result.one_electron_energy = last.one_electron;
  result.coulomb_energy = last.coulomb;
  result.exchange_energy = last.exchange;
  result.iterations = completed;
  result.diagnostics.final_stage = ladder.stage();
  result.diagnostics.recovery_events = ladder.events();
  out.xc_energy = last.xc;
  out.integrated_density = last.integrated_density;
  for (std::size_t c = 0; c < nch; ++c)
    orbitals[c].density = std::move(p[c]);
  out.channels = std::move(orbitals);
  out.overlap = s;
  return out;
}

SolveParams closed_shell(const char* method, const chem::Molecule& mol,
                         const ScfOptions& options) {
  const int nelec = mol.num_electrons();
  if (nelec % 2 != 0)
    throw std::invalid_argument(std::string(method) +
                                ": closed-shell SCF needs even electrons");
  SolveParams params;
  params.method = method;
  params.channels = {{static_cast<std::size_t>(nelec / 2), 2.0}};
  params.scf = options;
  return params;
}

ScfResult to_scf_result(Solution&& solution) {
  ScfResult result = std::move(solution.scf);
  OrbitalSolution& orb = solution.channels[0];
  result.density = std::move(orb.density);
  result.coefficients = std::move(orb.coefficients);
  result.orbital_energies = std::move(orb.orbital_energies);
  return result;
}

SolveParams open_shell(const char* method, const chem::Molecule& mol,
                       int multiplicity, const UhfOptions& options) {
  const int nelec = mol.num_electrons();
  const int nopen = multiplicity - 1;
  if (nopen < 0 || (nelec - nopen) % 2 != 0 || nelec < nopen)
    throw std::invalid_argument(
        std::string(method) +
        ": electron count inconsistent with multiplicity");
  const auto nb = static_cast<std::size_t>((nelec - nopen) / 2);
  const auto na = nb + static_cast<std::size_t>(nopen);

  SolveParams params;
  params.method = method;
  params.channels = {{na, 1.0}, {nb, 1.0}};
  ScfOptions& scf = params.scf;
  scf.max_iterations = options.max_iterations;
  scf.energy_tolerance = options.energy_tolerance;
  scf.diis_tolerance = options.diis_tolerance;
  scf.use_diis = options.use_diis;
  scf.incremental_fock = false;
  scf.hfx = options.hfx;
  scf.recovery = options.recovery;
  scf.resume = options.resume;
  scf.checkpoint_sink = options.checkpoint_sink;
  scf.checkpoint_every = options.checkpoint_every;
  scf.cancel = options.cancel;
  params.level_shift = options.level_shift;
  params.density_damping = options.density_damping;
  params.damping_until = options.damping_until;
  params.break_symmetry = options.break_symmetry;
  return params;
}

UhfResult to_uhf_result(const SolveParams& params, Solution&& solution) {
  UhfResult result;
  result.converged = solution.scf.converged;
  result.energy = solution.scf.energy;
  result.nuclear_repulsion = solution.scf.nuclear_repulsion;
  result.iterations = solution.scf.iterations;
  result.log = std::move(solution.scf.log);
  result.diagnostics = std::move(solution.scf.diagnostics);
  OrbitalSolution& a = solution.channels[0];
  OrbitalSolution& b = solution.channels[1];
  // <S^2> = Sz(Sz+1) + N_b - sum_{i in a, j in b} |(C_a^T S C_b)_ij|^2.
  const std::size_t na = params.channels[0].nocc, nb = params.channels[1].nocc;
  if (!a.coefficients.empty() && !b.coefficients.empty()) {
    const double sz =
        0.5 * (static_cast<double>(na) - static_cast<double>(nb));
    const Matrix sab = linalg::matmul(
        linalg::matmul(linalg::transpose(a.coefficients), solution.overlap),
        b.coefficients);
    double overlap2 = 0.0;
    for (std::size_t i = 0; i < na; ++i)
      for (std::size_t jb = 0; jb < nb; ++jb) overlap2 += sab(i, jb) * sab(i, jb);
    result.s_squared = sz * (sz + 1.0) + static_cast<double>(nb) - overlap2;
  }
  result.density_alpha = std::move(a.density);
  result.density_beta = std::move(b.density);
  result.coefficients_alpha = std::move(a.coefficients);
  result.coefficients_beta = std::move(b.coefficients);
  result.orbital_energies_alpha = std::move(a.orbital_energies);
  result.orbital_energies_beta = std::move(b.orbital_energies);
  return result;
}

}  // namespace mthfx::scf::detail
