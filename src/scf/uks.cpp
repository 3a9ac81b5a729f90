#include "scf/uks.hpp"

#include "dft/spin_functionals.hpp"
#include "scf/solve.hpp"

namespace mthfx::scf {

UksResult uks(const chem::Molecule& mol, const chem::BasisSet& basis,
              int multiplicity, const UksOptions& options) {
  const dft::SpinFunctional functional =
      dft::make_spin_functional(options.functional);
  detail::SolveParams params =
      detail::open_shell("uks", mol, multiplicity, options.scf);
  params.exact_exchange = functional.exact_exchange;
  params.grid = options.grid;
  if (options.functional != "hf")
    params.xc = [&functional](const dft::XcIntegrator& xc,
                              const std::vector<linalg::Matrix>& p) {
      dft::XcSpinResult r = xc.integrate_spin(functional, p[0], p[1]);
      return detail::XcTerm{r.energy,
                            {std::move(r.v_alpha), std::move(r.v_beta)},
                            r.integrated_density};
    };

  detail::Solution solution = detail::solve(mol, basis, params);
  UksResult result;
  result.xc_energy = solution.xc_energy;
  result.integrated_density = solution.integrated_density;
  result.exact_exchange_energy = solution.scf.exchange_energy;
  result.scf = detail::to_uhf_result(params, std::move(solution));
  return result;
}

}  // namespace mthfx::scf
