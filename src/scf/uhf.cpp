#include "scf/uhf.hpp"

#include "scf/solve.hpp"

namespace mthfx::scf {

UhfResult uhf(const chem::Molecule& mol, const chem::BasisSet& basis,
              int multiplicity, const UhfOptions& options) {
  const detail::SolveParams params =
      detail::open_shell("uhf", mol, multiplicity, options);
  return detail::to_uhf_result(params, detail::solve(mol, basis, params));
}

}  // namespace mthfx::scf
