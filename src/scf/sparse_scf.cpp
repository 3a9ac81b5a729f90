#include "scf/sparse_scf.hpp"

#include "scf/solve.hpp"

namespace mthfx::scf {

linalg::BlockPartition shell_aligned_partition(const chem::BasisSet& basis,
                                               std::size_t target_nbf) {
  if (target_nbf == 0) target_nbf = 1;
  std::vector<std::size_t> offsets{0};
  std::size_t filled = 0;
  for (std::size_t s = 0; s < basis.num_shells(); ++s) {
    filled += basis.shell(s).num_functions();
    if (filled >= target_nbf) {
      offsets.push_back(offsets.back() + filled);
      filled = 0;
    }
  }
  if (filled > 0) offsets.push_back(offsets.back() + filled);
  if (offsets.size() == 1) offsets.push_back(basis.num_functions());
  return linalg::BlockPartition(std::move(offsets));
}

ScfResult sparse_rhf(const chem::Molecule& mol, const chem::BasisSet& basis,
                     const ScfOptions& options, SparseScfInfo* info) {
  detail::SolveParams params = detail::closed_shell("rhf", mol, options);
  params.step = detail::DensityStep::kPurify;
  params.sparse_info = info;
  return detail::to_scf_result(detail::solve(mol, basis, params));
}

}  // namespace mthfx::scf
