#pragma once

// The one SCF iteration loop behind rhf, rks, uhf, uks and sparse_rhf.
// Internal to src/scf: the public entry points map their options onto
// SolveParams and the Solution back onto their result structs.
//
// Per spin channel s (one closed-shell channel, or alpha and beta):
//
//   F_s = h + J[P_total] - c·a_x·K[P_s] (+ V_xc,s),  c = 1/2 or 1
//
// and the next density comes from F_s by one of two density steps —
// dense diagonalization, or (large sparse systems) TC2 purification on
// block-sparse matrices with no eigensolver. The loop alone owns cancel
// polling, the scf.<method> / scf.iteration spans, DIIS per channel, the
// recovery ladder with damping and level shift, incremental J/K with its
// full-build endgame, the convergence test, checkpoint write/resume and
// the per-iteration log.

#include <cstddef>
#include <functional>
#include <vector>

#include "chem/basis.hpp"
#include "chem/molecule.hpp"
#include "dft/grid.hpp"
#include "dft/xc_integrator.hpp"
#include "linalg/matrix.hpp"
#include "scf/guess.hpp"
#include "scf/rhf.hpp"
#include "scf/sparse_scf.hpp"
#include "scf/uhf.hpp"

namespace mthfx::scf::detail {

/// One spin channel: `nocc` occupied orbitals holding `occupancy`
/// electrons each (2 closed-shell, 1 per unrestricted channel).
struct Channel {
  std::size_t nocc = 0;
  double occupancy = 2.0;
};

/// How a Fock matrix becomes the next density.
enum class DensityStep {
  kDiagonalize,  ///< dense X = S^-1/2 and an eigensolver; yields orbitals
  kPurify,       ///< culled S/H, Newton–Schulz X, TC2; no orbitals
};

/// Exchange-correlation part of one iteration.
struct XcTerm {
  double energy = 0.0;
  std::vector<linalg::Matrix> v;  ///< one potential matrix per channel
  double integrated_density = 0.0;
};
/// Wraps XcIntegrator::integrate (one channel) or integrate_spin (two).
using XcFn = std::function<XcTerm(const dft::XcIntegrator& xc,
                                  const std::vector<linalg::Matrix>& p)>;

struct SolveParams {
  const char* method = "rhf";  ///< span scf.<method>, checkpoint method
  std::vector<Channel> channels;
  double exact_exchange = 1.0;  ///< a_x
  XcFn xc;                ///< empty for Hartree–Fock
  dft::GridOptions grid;  ///< XC grid, built inside the solve when xc is set
  DensityStep step = DensityStep::kDiagonalize;
  /// Iteration controls, HFX, recovery, checkpoint/resume, cancel, warm
  /// start (one channel only) and shared builder.
  ScfOptions scf;
  /// Configured mitigations; the recovery ladder's value wins when larger.
  double level_shift = 0.0;
  double density_damping = 0.0;  ///< applied while DIIS error > damping_until
  double damping_until = 0.0;
  bool break_symmetry = false;  ///< rotate channel 0's guess HOMO to LUMO
  SparseScfInfo* sparse_info = nullptr;  ///< filled by kPurify
};

struct Solution {
  ScfResult scf;  ///< scalars, log, diagnostics; per-channel data below
  /// Final density and orbitals per channel. Converged orbitals are the
  /// canonical orbitals of the unextrapolated Fock matrix of the returned
  /// density; kPurify leaves the orbitals empty.
  std::vector<OrbitalSolution> channels;
  linalg::Matrix overlap;
  double xc_energy = 0.0;
  double integrated_density = 0.0;
};

Solution solve(const chem::Molecule& mol, const chem::BasisSet& basis,
               const SolveParams& params);

/// One closed-shell channel for `method`; throws std::invalid_argument
/// for an odd electron count.
SolveParams closed_shell(const char* method, const chem::Molecule& mol,
                         const ScfOptions& options);
ScfResult to_scf_result(Solution&& solution);

/// Alpha and beta channels for 2S+1 = `multiplicity`; throws
/// std::invalid_argument when it does not fit the electron count.
SolveParams open_shell(const char* method, const chem::Molecule& mol,
                       int multiplicity, const UhfOptions& options);
UhfResult to_uhf_result(const SolveParams& params, Solution&& solution);

}  // namespace mthfx::scf::detail
