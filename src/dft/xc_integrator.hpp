#pragma once

// Numerical exchange–correlation integration over the Becke grid:
// E_xc = ∫ e_xc(rho, sigma) and the matching Kohn–Sham potential matrix
// V_xc[mu][nu] = ∫ [v_rho phi_mu phi_nu + 2 v_sigma (grad rho)·grad(phi_mu
// phi_nu)] with (v_rho, v_sigma) from central differences of e_xc.
//
// Grid points are cut into fixed batches of 128 consecutive points; the
// batches are the tasks of the deterministic slot scheme
// (parallel/slots.hpp), so E_xc, V_xc, ∫rho and the XC gradient are
// bit-identical for every thread count. Inside a batch the kernel works
// on batch x local-AO panels: PX = Phi P gives rho and grad rho by row
// dots, and W += T^T Phi collects the potential, with V = W + W^T formed
// once after the reduction.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "chem/basis.hpp"
#include "dft/functionals.hpp"
#include "dft/grid.hpp"
#include "dft/spin_functionals.hpp"
#include "linalg/matrix.hpp"

namespace mthfx::dft {

struct XcResult {
  double energy = 0.0;
  linalg::Matrix v;              ///< nao x nao potential matrix
  double integrated_density = 0; ///< grid quality check: should equal N
};

struct XcSpinResult {
  double energy = 0.0;
  linalg::Matrix v_alpha;        ///< alpha Kohn-Sham potential matrix
  linalg::Matrix v_beta;
  double integrated_density = 0;
};

class XcIntegrator {
 public:
  /// Cached AO values and gradients per grid point, CSR by point: point
  /// g owns entries [row_off[g], row_off[g+1]) of cols (AO indices,
  /// ascending) and of the four value arrays. In dense mode every point
  /// lists every AO, so a batch's rows are one contiguous np x nao block.
  struct AoTable {
    std::vector<std::size_t> row_off;
    std::vector<std::uint32_t> cols;
    std::vector<double> ao, ax, ay, az;
  };

  /// With screen_basis = false every AO is cached and evaluated at every
  /// grid point. With screen_basis = true only shells whose extent radius
  /// (hfx/cell_list.hpp) covers a point are cached, and a batch works on
  /// the union of its points' local AOs instead of all nao — the XC-side
  /// analogue of the distance-culled pair list. Dropped AO values sit
  /// below the shell-extent tail (~1e-14), well under the quadrature
  /// error. `num_threads` threads run the batches (0 selects hardware
  /// concurrency); the results do not depend on it.
  XcIntegrator(const chem::BasisSet& basis, const MolecularGrid& grid,
               bool screen_basis = false, std::size_t num_threads = 1);

  /// Fraction of the dense np x nao AO table actually cached (1.0 in
  /// dense mode); observability for the screened path.
  double cached_fraction() const;

  /// Evaluate E_xc and V_xc for the closed-shell density matrix P.
  XcResult integrate(const Functional& functional,
                     const linalg::Matrix& density) const;

  /// Spin-polarized evaluation from alpha/beta densities (no factor 2).
  XcSpinResult integrate_spin(const SpinFunctional& functional,
                              const linalg::Matrix& density_alpha,
                              const linalg::Matrix& density_beta) const;

  /// ∫ rho for a density matrix over the points integrate() counts
  /// (electron-count check).
  double integrate_density(const linalg::Matrix& density) const;

  /// xc_gradient on this integrator's basis, grid and thread count.
  std::vector<chem::Vec3> gradient(const Functional& functional,
                                   const linalg::Matrix& density,
                                   const chem::Molecule& mol) const;

  const chem::BasisSet& basis() const { return basis_; }
  const MolecularGrid& grid() const { return grid_; }
  const AoTable& ao_table() const { return table_; }

 private:
  /// The slot driver shared by integrate and integrate_spin: runs every
  /// batch for the given channel densities and returns the reduced
  /// buffer [W per channel (nao^2 each) | E_xc | ∫rho]. The per-point
  /// functional step is pointwise(w, rho, grad, a, b) -> e_xc: from the
  /// channel densities and density gradients at a point of weight w it
  /// returns the energy density and sets each channel's potential
  /// coefficients a (times phi) and b (dotted into grad phi), weight
  /// included.
  template <typename Pointwise>
  std::vector<double> accumulate(
      std::span<const linalg::Matrix* const> densities, bool needs_gradient,
      const Pointwise& pointwise) const;

  const chem::BasisSet& basis_;
  const MolecularGrid& grid_;
  bool screened_ = false;
  std::size_t num_threads_ = 1;
  AoTable table_;
};

/// dE_xc/dR per atom at fixed density matrix P. Covers the basis-center
/// (orbital) terms — with AO Hessians feeding the d(sigma)/dR part for
/// GGAs — and the Becke partition-weight derivatives. Grid points ride on
/// their parent atoms; the moving-point terms are folded in through
/// translational invariance, so the total gradient sums to zero over
/// atoms up to quadrature error. AO values, gradients and Hessians are
/// evaluated per batch (no cached table), and the batches run on
/// `num_threads` threads through the slot scheme; the result does not
/// depend on the thread count.
std::vector<chem::Vec3> xc_gradient(const chem::BasisSet& basis,
                                    const MolecularGrid& grid,
                                    const Functional& functional,
                                    const linalg::Matrix& density,
                                    const chem::Molecule& mol,
                                    std::size_t num_threads = 1);

}  // namespace mthfx::dft
