#include "hfx/grad_contraction.hpp"

#include <algorithm>
#include <cmath>

#include "hfx/schedulers.hpp"
#include "hfx/screening.hpp"
#include "hfx/tasks.hpp"
#include "ints/deriv.hpp"
#include "ints/schwarz.hpp"
#include "parallel/slots.hpp"
#include "parallel/thread_pool.hpp"

namespace mthfx::hfx {

using chem::Vec3;
using linalg::Matrix;

std::vector<Vec3> two_electron_gradient(const chem::BasisSet& basis,
                                        const ShellPairList& pairs,
                                        const Matrix& density,
                                        const GradContractionOptions& options) {
  const std::size_t natoms =
      basis.num_shells() == 0
          ? 0
          : 1 + std::max_element(basis.shells().begin(), basis.shells().end(),
                                 [](const chem::Shell& a, const chem::Shell& b) {
                                   return a.atom_index() < b.atom_index();
                                 })->atom_index();
  std::vector<Vec3> grad(natoms, Vec3{0, 0, 0});
  if (pairs.size() == 0) return grad;

  const double ax = options.ax;
  const double eps_grad = options.eps_schwarz * options.safety;
  const Matrix block_max = shell_block_max_density(basis, density);
  double global_pmax = 0.0;
  for (const double v : block_max.flat())
    global_pmax = std::max(global_pmax, v);
  // Upper bound on |Gamma| for the bra-sorted early exit.
  const double gamma_cap = (1.0 + ax) * global_pmax * global_pmax;

  // Bra rows accumulate through the deterministic slot scheme
  // (parallel/slots.hpp): rows are cut into slots by the dense cost
  // model, so the gradient is bit-identical for any thread count.
  parallel::ThreadPool pool(options.num_threads);
  const std::vector<QuartetTask> rows = make_tasks(basis, pairs);
  std::vector<double> costs(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) costs[i] = rows[i].est_cost;
  const parallel::SlotPlan plan = parallel::plan_slots(costs, 3 * natoms);
  parallel::SlotReducer reducer(plan.size(), 3 * natoms);
  std::vector<parallel::SlotReducer::Buffer> open(pool.num_threads());

  auto run_bra = [&](std::size_t ib, std::size_t tid) {
    if (!open[tid]) open[tid] = reducer.acquire();
    double* acc = open[tid].get();
    const ShellPair& bra = pairs[ib];
    const chem::Shell& a = basis.shell(bra.sa);
    const chem::Shell& b = basis.shell(bra.sb);
    const std::size_t oa = basis.first_function(bra.sa);
    const std::size_t ob = basis.first_function(bra.sb);

    // Kets walk the descending-q prefix of the pair list up to the bra,
    // so each unordered pair-of-pairs is visited exactly once and the
    // first ket failing the bare Schwarz product ends the loop.
    for (std::size_t ik = 0; ik <= ib; ++ik) {
      const ShellPair& ket = pairs[ik];
      const double qq = bra.q * ket.q;
      if (qq * gamma_cap < eps_grad) break;

      // Density-weighted bound over every block Gamma touches.
      const double gmax =
          block_max(bra.sa, bra.sb) * block_max(ket.sa, ket.sb) +
          0.5 * ax *
              (block_max(bra.sa, ket.sa) * block_max(bra.sb, ket.sb) +
               block_max(bra.sa, ket.sb) * block_max(bra.sb, ket.sa));
      if (qq * gmax < eps_grad) continue;

      const chem::Shell& c = basis.shell(ket.sa);
      const chem::Shell& dsh = basis.shell(ket.sb);
      const std::size_t oc = basis.first_function(ket.sa);
      const std::size_t od = basis.first_function(ket.sb);

      // Shell-level orbit size of this canonical quartet: the symmetric
      // Gamma absorbs the function-level permutations, so the unique-
      // quartet sum just scales by the count of distinct shell images.
      const double deg = (bra.sa == bra.sb ? 1.0 : 2.0) *
                         (ket.sa == ket.sb ? 1.0 : 2.0) *
                         (ib == ik ? 1.0 : 2.0);

      const ints::EriGradBlocks dblk = ints::eri_gradient_blocks(a, b, c, dsh);
      const std::size_t centers[4] = {a.atom_index(), b.atom_index(),
                                      c.atom_index(), dsh.atom_index()};

      std::size_t idx = 0;
      for (std::size_t i = 0; i < a.num_functions(); ++i)
        for (std::size_t j = 0; j < b.num_functions(); ++j)
          for (std::size_t k = 0; k < c.num_functions(); ++k)
            for (std::size_t l = 0; l < dsh.num_functions(); ++l, ++idx) {
              const double gamma =
                  density(oa + i, ob + j) * density(oc + k, od + l) -
                  0.25 * ax *
                      (density(oa + i, oc + k) * density(ob + j, od + l) +
                       density(oa + i, od + l) * density(ob + j, oc + k));
              if (gamma == 0.0) continue;
              const double pref = 0.5 * deg * gamma;
              for (std::size_t ctr = 0; ctr < 3; ++ctr)
                for (std::size_t d = 0; d < 3; ++d) {
                  const double contrib = pref * dblk.g[ctr][d][idx];
                  acc[3 * centers[ctr] + d] += contrib;
                  // D center by translational invariance.
                  acc[3 * centers[3] + d] -= contrib;
                }
            }
    }
  };

  execute_slots(pool, plan, HfxSchedule::kDynamicBag, run_bra,
                [&](std::size_t slot, std::size_t tid) {
                  reducer.commit(slot, std::move(open[tid]));
                });
  const std::span<const double> total = reducer.total();
  for (std::size_t at = 0; at < natoms; ++at)
    grad[at] = Vec3{total[3 * at], total[3 * at + 1], total[3 * at + 2]};
  return grad;
}

std::vector<Vec3> two_electron_gradient(const chem::BasisSet& basis,
                                        const Matrix& density,
                                        const GradContractionOptions& options) {
  const ShellPairList pairs(basis, ints::schwarz_bounds(basis),
                            options.eps_schwarz);
  return two_electron_gradient(basis, pairs, density, options);
}

}  // namespace mthfx::hfx
