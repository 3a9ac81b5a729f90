#include "scf/rks.hpp"

#include "scf/solve.hpp"

namespace mthfx::scf {

KsResult rks(const chem::Molecule& mol, const chem::BasisSet& basis,
             const KsOptions& options) {
  const dft::Functional functional = dft::make_functional(options.functional);
  detail::SolveParams params = detail::closed_shell("rks", mol, options.scf);
  params.scf.incremental_fock = false;  // full J/K builds every iteration
  params.exact_exchange = functional.exact_exchange;
  params.grid = options.grid;
  if (options.functional != "hf")
    params.xc = [&functional](const dft::XcIntegrator& xc,
                              const std::vector<linalg::Matrix>& p) {
      dft::XcResult r = xc.integrate(functional, p[0]);
      return detail::XcTerm{r.energy, {std::move(r.v)}, r.integrated_density};
    };

  detail::Solution solution = detail::solve(mol, basis, params);
  KsResult result;
  result.xc_energy = solution.xc_energy;
  result.integrated_density = solution.integrated_density;
  result.scf = detail::to_scf_result(std::move(solution));
  result.exact_exchange_energy = result.scf.exchange_energy;
  return result;
}

}  // namespace mthfx::scf
