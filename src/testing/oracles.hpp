#pragma once

// Slow-but-obviously-correct reference implementations ("oracles") the
// production screened/threaded paths are differentially tested against.
// Nothing here screens, threads, or exploits permutational symmetry —
// each oracle is a direct transcription of the defining equations, which
// is exactly what makes disagreement with the fast path meaningful.

#include <cstddef>
#include <vector>

#include "chem/basis.hpp"
#include "dft/xc_integrator.hpp"
#include "linalg/matrix.hpp"

namespace mthfx::testing {

struct DenseJk {
  linalg::Matrix j;
  linalg::Matrix k;
};

/// Naive one-pass ERI tensor: every one of the ns^4 shell quartets is
/// evaluated independently through the shell-level API (no pair-data
/// reuse, no canonical-quartet shortcut). Index ((mu*n+nu)*n+lam)*n+sig,
/// chemists' notation.
std::vector<double> naive_eri_tensor(const chem::BasisSet& basis);

/// Unscreened O(N^4) J/K contraction of a full ERI tensor:
///   J_mn = sum_ls P_ls (mn|ls),   K_mn = sum_ls P_ls (ml|ns).
/// `tensor` must be an nao^4 chemists'-notation tensor for `basis`.
DenseJk contract_jk(const chem::BasisSet& basis,
                    const std::vector<double>& tensor,
                    const linalg::Matrix& density);

/// Convenience: naive tensor + dense contraction in one call.
DenseJk dense_jk_reference(const chem::BasisSet& basis,
                           const linalg::Matrix& density);

/// Serial canonical-quartet J/K with *explicit* orbit deduplication: for
/// each canonical AO quartet the 8 index permutations are enumerated,
/// duplicates removed with a set, and the plain per-permutation update
/// applied. Cross-checks the coincidence-flag logic in digest_quartet
/// without sharing any of it. `tensor` as in contract_jk.
DenseJk orbit_jk_reference(const chem::BasisSet& basis,
                           const std::vector<double>& tensor,
                           const linalg::Matrix& density);

/// Serial in-order reduction of per-thread partial matrices — the
/// reference for any tree/parallel reduction of accumulators.
linalg::Matrix serial_reduce(const std::vector<linalg::Matrix>& parts);

/// Independent Coulomb energy 0.5 * sum_{mnls} P_mn P_ls (mn|ls) straight
/// from the tensor (no J matrix formed) — scalar anchor for trace
/// identities.
double coulomb_energy_from_tensor(const chem::BasisSet& basis,
                                  const std::vector<double>& tensor,
                                  const linalg::Matrix& density);

/// Independent exchange contraction 0.5 * sum_{mnls} P_mn P_ls (ml|ns)
/// from the tensor (no K matrix formed). Equals 0.5 * tr(P K).
double exchange_energy_from_tensor(const chem::BasisSet& basis,
                                   const std::vector<double>& tensor,
                                   const linalg::Matrix& density);

/// Per-point XC reference: the integrator's original kernel, one grid
/// point at a time with O(nloc^2) loops over `xc`'s cached AO table,
/// writing both triangles of V at every point, serial. The batched,
/// threaded XcIntegrator::integrate must agree to rounding.
dft::XcResult reference_xc(const dft::XcIntegrator& xc,
                           const dft::Functional& functional,
                           const linalg::Matrix& density);

/// Per-point reference for XcIntegrator::integrate_spin, as reference_xc.
dft::XcSpinResult reference_xc_spin(const dft::XcIntegrator& xc,
                                   const dft::SpinFunctional& functional,
                                   const linalg::Matrix& density_alpha,
                                   const linalg::Matrix& density_beta);

}  // namespace mthfx::testing
