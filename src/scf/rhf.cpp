#include "scf/rhf.hpp"

#include "scf/solve.hpp"
#include "scf/sparse_scf.hpp"

namespace mthfx::scf {

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

ScfResult rhf(const chem::Molecule& mol, const chem::BasisSet& basis,
              const ScfOptions& options) {
  // Large-basis route: distance-culled pairs, blocked J/K, purification
  // instead of diagonalization (scf/sparse_scf.hpp). Small systems never
  // enter it under the default kAuto threshold.
  if (options.hfx.sparsity.blocked(basis.num_functions()))
    return sparse_rhf(mol, basis, options);
  return detail::to_scf_result(
      detail::solve(mol, basis, detail::closed_shell("rhf", mol, options)));
}

double homo_lumo_gap(const ScfResult& result, const chem::Molecule& mol) {
  const auto nocc = static_cast<std::size_t>(mol.num_electrons() / 2);
  if (nocc == 0 || nocc >= result.orbital_energies.size()) return 0.0;
  return result.orbital_energies[nocc] - result.orbital_energies[nocc - 1];
}

}  // namespace mthfx::scf
