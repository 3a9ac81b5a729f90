#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "hfx/fock_builder.hpp"
#include "hfx/schedulers.hpp"
#include "hfx/screening.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

// Density-linked blocked J/K build.
//
// The dense build walks, for every bra pair b, the full ket prefix
// [0, live(b)) that survives the bare Schwarz product — Θ(pairs²) visits
// even when the density screen then kills almost all of them. For a large
// insulating box nearly every exchange quartet dies on the density test
// (P decays with distance), so the visit count itself must become
// proportional to the survivors for the build to be near-linear.
//
// This file enumerates candidates through the density instead: a quartet
// (bra | ket) survives the dense path's combined test only if
// q_bra * q_ket * w >= eps for at least one "link weight" w drawn from
//   - the four bra-ket cross blocks max|P| (exchange term), or
//   - max|P| of the bra block or of the ket block (Coulomb term).
// Each such w defines a link list sorted so the condition is monotone,
// letting the walk break at the first failure. The union of link walks is
// therefore a superset of the dense survivor set; every candidate is then
// re-checked with exactly the dense tests in the dense ket order, so the
// computed quartet set matches the dense build's. Rows run on any number
// of threads through the dense build's slot scheme (run_slots); at the
// default one-task-per-row granularity both builds cut the same slots and
// digest the same rows in the same order, so K and J match the dense
// build bit for bit at every thread count.

namespace mthfx::hfx {

using chem::BasisSet;
using linalg::BlockSparseMatrix;
using linalg::Matrix;

JkResult FockBuilder::build_blocked(const BlockSparseMatrix& density_blk,
                                    bool want_coulomb) const {
  obs::Trace::Scope build_span(obs::global_trace(), "jk.build_blocked");
  const Matrix density = density_blk.to_dense();
  const std::size_t ns = basis_->num_shells();
  const std::size_t np = pairs_.size();
  const double eps = options_.eps_schwarz;

  const std::size_t nthreads = resolve_thread_count(options_.num_threads);
  obs::Registry registry(nthreads);
  const obs::Timer busy_timer = registry.timer("hfx.task_seconds");
  const obs::Counter c_considered = registry.counter("hfx.quartets_considered");
  const obs::Counter c_schwarz =
      registry.counter("hfx.quartets_schwarz_screened");
  const obs::Counter c_density =
      registry.counter("hfx.quartets_density_screened");
  const obs::Counter c_computed = registry.counter("hfx.quartets_computed");

  JkResult result;
  result.stats.num_pairs = np;
  result.stats.num_pairs_unscreened = pairs_.unscreened_count();
  result.stats.num_tasks = np;  // one enumeration row per bra
  if (options_.record_task_costs)
    result.stats.task_costs.assign(np, TaskCostRecord{});

  const bool density_screening = options_.density_screening;
  const Matrix block_max =
      density_screening ? shell_block_max_density(*basis_, density) : Matrix();
  const double qmax = pairs_.max_q();

  // Largest pair q containing each shell: used to skip whole link lists.
  std::vector<double> shell_qmax(ns, 0.0);
  for (std::size_t i = 0; i < np; ++i) {
    shell_qmax[pairs_[i].sa] = std::max(shell_qmax[pairs_[i].sa], pairs_[i].q);
    shell_qmax[pairs_[i].sb] = std::max(shell_qmax[pairs_[i].sb], pairs_[i].q);
  }

  // Exchange link lists: per shell e, partner shells f with block density
  // above the universal floor eps / qmax² (below it no quartet can pass),
  // sorted by descending |P| block so walks break early.
  struct Partner {
    std::uint32_t shell;
    double p;
  };
  std::vector<std::vector<Partner>> partners;
  if (density_screening) {
    const double pfloor = qmax > 0.0 ? eps / (qmax * qmax) : 0.0;
    partners.assign(ns, {});
    for (std::size_t e = 0; e < ns; ++e) {
      for (std::size_t f = 0; f < ns; ++f) {
        const double p = block_max(e, f);
        if (p >= pfloor && shell_qmax[f] > 0.0)
          partners[e].push_back({static_cast<std::uint32_t>(f), p});
      }
      std::sort(partners[e].begin(), partners[e].end(),
                [](const Partner& x, const Partner& y) { return x.p > y.p; });
    }
  }

  // Coulomb ket-side link list: pair indices sorted by descending
  // q_ket * max|P(ket block)| — the weight of the "ket density drives J"
  // term. (The bra-density term instead walks the global pair order,
  // which is already descending in q.)
  std::vector<double> jweight;
  std::vector<std::uint32_t> jorder;
  if (want_coulomb && density_screening) {
    jweight.resize(np);
    for (std::size_t i = 0; i < np; ++i)
      jweight[i] = pairs_[i].q * block_max(pairs_[i].sa, pairs_[i].sb);
    jorder.resize(np);
    for (std::size_t i = 0; i < np; ++i)
      jorder[i] = static_cast<std::uint32_t>(i);
    std::sort(jorder.begin(), jorder.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                return jweight[x] > jweight[y];
              });
  }

  // First ket index whose Schwarz product with bra b fails (pairs are
  // sorted by descending q, so this is a binary search); the dense path
  // bulk-accounts everything at and past it as Schwarz-screened.
  const auto live_end = [&](std::size_t b) -> std::size_t {
    if (eps <= 0.0) return b + 1;
    const double qb = pairs_[b].q;
    std::size_t lo = 0, hi = b + 1;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (qb * pairs_[mid].q >= eps)
        lo = mid + 1;
      else
        hi = mid;
    }
    return lo;
  };

  // Per-thread row scratch, sized on first use by the thread that owns
  // it. The stamp array dedupes candidates across the link walks of one
  // bra row.
  struct RowScratch {
    std::vector<std::uint32_t> stamp;
    std::uint32_t epoch = 0;
    std::vector<std::uint32_t> cand;
    std::vector<std::uint32_t> survivors;
  };
  std::vector<RowScratch> scratch(nthreads);

  const auto run_row = [&](std::size_t b, std::size_t tid, double* k,
                           double* j) {
    const obs::Stopwatch watch;
    RowScratch& rs = scratch[tid];
    if (rs.stamp.empty()) rs.stamp.assign(np, 0);
    const ShellPair& bra = pairs_[b];
    const double qb = bra.q;
    const std::size_t live = live_end(b);
    std::uint64_t considered = b + 1;
    std::uint64_t schwarz = (b + 1) - live;

    rs.cand.clear();
    const std::uint32_t epoch = ++rs.epoch;
    const auto push = [&](std::uint32_t idx) {
      if (idx > b) return;
      if (rs.stamp[idx] == epoch) return;
      rs.stamp[idx] = epoch;
      rs.cand.push_back(idx);
    };

    if (!density_screening) {
      // No density screen: the survivor set is exactly the live prefix.
      for (std::size_t kk = 0; kk < live; ++kk)
        push(static_cast<std::uint32_t>(kk));
    } else {
      // Exchange links: e in the bra, f a density partner of e, kets
      // containing f in descending q. Monotone breaks use upper bounds
      // (qmax >= shell_qmax[f] >= q_ket), skips use the tight per-shell
      // bound — neither can drop a quartet whose own product passes.
      const std::uint32_t bra_shells[2] = {bra.sa, bra.sb};
      const int ne = bra.sa == bra.sb ? 1 : 2;
      for (int ei = 0; ei < ne; ++ei) {
        for (const Partner& pf : partners[bra_shells[ei]]) {
          if (qb * qmax * pf.p < eps) break;
          if (qb * shell_qmax[pf.shell] * pf.p < eps) continue;
          for (const std::uint32_t idx : pairs_by_shell_[pf.shell]) {
            if (qb * pairs_[idx].q * pf.p < eps) break;
            push(idx);
          }
        }
      }
      if (want_coulomb) {
        // Bra-density term: q_b * q_k * max|P(bra block)| >= eps over the
        // global descending-q order.
        const double pbra = block_max(bra.sa, bra.sb);
        if (pbra > 0.0) {
          for (std::size_t idx = 0; idx < np; ++idx) {
            if (qb * pairs_[idx].q * pbra < eps) break;
            push(static_cast<std::uint32_t>(idx));
          }
        }
        // Ket-density term: q_b * (q_k * max|P(ket block)|) >= eps over
        // the descending jweight order.
        for (const std::uint32_t idx : jorder) {
          if (qb * jweight[idx] < eps) break;
          push(idx);
        }
      }
    }

    // Re-check candidates with the dense tests, in the dense (ascending
    // ket index) order; survivors are evaluated and digested in that
    // same order.
    std::sort(rs.cand.begin(), rs.cand.end());
    rs.survivors.clear();
    for (const std::uint32_t kk : rs.cand) {
      const ShellPair& ket = pairs_[kk];
      const double qq = qb * ket.q;
      if (qq < eps) continue;  // already bulk-counted as Schwarz-screened
      if (density_screening) {
        const double pmax =
            want_coulomb
                ? std::max(exchange_density_bound(block_max, bra.sa, bra.sb,
                                                  ket.sa, ket.sb),
                           std::max(block_max(bra.sa, bra.sb),
                                    block_max(ket.sa, ket.sb)))
                : exchange_density_bound(block_max, bra.sa, bra.sb, ket.sa,
                                         ket.sb);
        if (qq * pmax < eps) continue;
      }
      rs.survivors.push_back(kk);
    }
    const std::uint64_t computed = rs.survivors.size();
    // Live kets that are not computed failed the density test — whether
    // we visited them or proved it via the link floors.
    const std::uint64_t density_scr = live - computed;
    digest_row(static_cast<std::uint32_t>(b), rs.survivors, density, k, j);

    const double secs = watch.seconds();
    busy_timer.add_seconds(tid, secs);
    c_considered.add(tid, considered);
    c_schwarz.add(tid, schwarz);
    c_density.add(tid, density_scr);
    c_computed.add(tid, computed);
    if (options_.record_task_costs)
      result.stats.task_costs[b] = {static_cast<std::uint32_t>(b),
                                    static_cast<double>(computed), secs};
  };

  // Rows are cut into slots by the dense cost model, summed per bra row:
  // at the default one-task-per-row granularity the dense and blocked
  // builds cut identical slots and so agree bit for bit.
  std::vector<double> row_costs(np, 0.0);
  for (const QuartetTask& task : tasks_) row_costs[task.bra] += task.est_cost;
  run_slots(row_costs, want_coulomb, run_row, registry, result);

  fill_stats(registry, result.stats);
  result.stats.metrics = registry.to_json();
  return result;
}

ExchangeResult FockBuilder::exchange_blocked(
    const BlockSparseMatrix& density) const {
  JkResult jk = build_blocked(density, /*want_coulomb=*/false);
  return {std::move(jk.k), std::move(jk.stats)};
}

JkResult FockBuilder::coulomb_exchange_blocked(
    const BlockSparseMatrix& density) const {
  return build_blocked(density, /*want_coulomb=*/true);
}

}  // namespace mthfx::hfx
