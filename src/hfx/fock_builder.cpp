#include "hfx/fock_builder.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_map>
#include <stdexcept>

#include "hfx/schedulers.hpp"
#include "ints/eri.hpp"
#include "ints/eri_batch.hpp"
#include "ints/schwarz.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "parallel/slots.hpp"
#include "parallel/thread_pool.hpp"

namespace mthfx::hfx {

using chem::BasisSet;
using linalg::Matrix;

namespace {

// Digest one computed shell quartet into the row-major nao x nao J/K
// accumulators (j_acc null for an exchange-only build).
//
// For a canonical AO quartet (i >= j, k >= l, pair(ij) >= pair(kl)) the
// 8-member permutational orbit collapses according to three coincidence
// flags: e1 = (i == j), e2 = (k == l), e3 = (ij == kl). The update lists
// enumerate exactly the distinct orbit members for every flag
// combination (verified case-by-case against explicit orbit
// deduplication in the unit tests via the dense reference).
void digest_quartet(const BasisSet& basis, std::uint32_t sa, std::uint32_t sb,
                    std::uint32_t sc, std::uint32_t sd,
                    const ints::EriBlock& block, const Matrix& density,
                    double* j_acc, double* k_acc, bool braket_same,
                    double eps_contribution) {
  const std::size_t n = basis.num_functions();
  const std::size_t oa = basis.first_function(sa);
  const std::size_t ob = basis.first_function(sb);
  const std::size_t oc = basis.first_function(sc);
  const std::size_t od = basis.first_function(sd);
  const bool ab_same = (sa == sb);
  const bool cd_same = (sc == sd);
  const auto kmat = [&](std::size_t r, std::size_t c) -> double& {
    return k_acc[r * n + c];
  };
  const auto jmat = [&](std::size_t r, std::size_t c) -> double& {
    return j_acc[r * n + c];
  };

  for (std::size_t ia = 0; ia < block.na; ++ia) {
    const std::size_t i = oa + ia;
    for (std::size_t ib = 0; ib < block.nb; ++ib) {
      const std::size_t j = ob + ib;
      if (ab_same && i < j) continue;
      const std::size_t ij = i * (i + 1) / 2 + j;
      for (std::size_t ic = 0; ic < block.nc; ++ic) {
        const std::size_t k = oc + ic;
        const std::size_t klbase = k * (k + 1) / 2;
        for (std::size_t id = 0; id < block.nd; ++id) {
          const std::size_t l = od + id;
          if (cd_same && k < l) continue;
          if (braket_same && ij < klbase + l) continue;
          const double v = block(ia, ib, ic, id);
          if (std::abs(v) < eps_contribution) continue;

          const bool e1 = (i == j);
          const bool e2 = (k == l);
          const bool e3 = (i == k && j == l);

          if (j_acc) {
            const double jv1 = (e2 ? 1.0 : 2.0) * density(k, l) * v;
            jmat(i, j) += jv1;
            if (!e1) jmat(j, i) += jv1;
            if (!e3) {
              const double jv2 = (e1 ? 1.0 : 2.0) * density(i, j) * v;
              jmat(k, l) += jv2;
              if (!e2) jmat(l, k) += jv2;
            }
          }

          kmat(i, k) += density(j, l) * v;
          if (!e1) kmat(j, k) += density(i, l) * v;
          if (!e2) kmat(i, l) += density(j, k) * v;
          if (!e1 && !e2) kmat(j, l) += density(i, k) * v;
          if (!e3) {
            kmat(k, i) += density(l, j) * v;
            if (!e2) kmat(l, i) += density(k, j) * v;
            if (!e1) kmat(k, j) += density(l, i) * v;
            if (!e1 && !e2) kmat(l, j) += density(k, i) * v;
          }
        }
      }
    }
  }
}

// Pair formation for the constructor's member-init list: the culled
// branch never forms the O(ns²) Schwarz matrix (schwarz stays empty),
// the dense branch fills it and screens against it as before.
ShellPairList make_pairs(const BasisSet& basis, const HfxOptions& options,
                         Matrix* schwarz, bool* culled, PairCullStats* stats) {
  if (options.sparsity.blocked(basis.num_functions())) {
    *culled = true;
    return ShellPairList::culled(basis, options.eps_schwarz, stats);
  }
  *schwarz = ints::schwarz_bounds(basis);
  return ShellPairList(basis, *schwarz, options.eps_schwarz);
}

}  // namespace

double HfxStats::imbalance() const {
  double mx = 0.0, total = 0.0;
  for (const double s : thread_busy_seconds) {
    mx = std::max(mx, s);
    total += s;
  }
  if (total <= 0.0 || thread_busy_seconds.empty()) return 1.0;
  const double mean = total / static_cast<double>(thread_busy_seconds.size());
  return mean > 0.0 ? mx / mean : 1.0;
}

obs::Json to_json(const HfxStats& stats) {
  obs::Json out = obs::Json::object();
  out["num_pairs"] = stats.num_pairs;
  out["num_pairs_unscreened"] = stats.num_pairs_unscreened;
  out["num_tasks"] = stats.num_tasks;
  out["wall_seconds"] = stats.wall_seconds;
  out["reduce_seconds"] = stats.reduce_seconds;
  out["imbalance"] = stats.imbalance();
  obs::Json screening = obs::Json::object();
  screening["considered"] = stats.screening.quartets_considered;
  screening["schwarz_screened"] = stats.screening.quartets_schwarz_screened;
  screening["density_screened"] = stats.screening.quartets_density_screened;
  screening["computed"] = stats.screening.quartets_computed;
  out["screening"] = std::move(screening);
  obs::Json fault = obs::Json::object();
  fault["injected"] = stats.fault.injected;
  fault["injected_failures"] = stats.fault.injected_failures;
  fault["injected_stalls"] = stats.fault.injected_stalls;
  fault["injected_corruptions"] = stats.fault.injected_corruptions;
  fault["retries"] = stats.fault.retries;
  fault["permanent_failures"] = stats.fault.permanent_failures;
  out["fault"] = std::move(fault);
  obs::Json busy = obs::Json::array();
  for (const double s : stats.thread_busy_seconds) busy.push_back(s);
  out["thread_busy_seconds"] = std::move(busy);
  out["metrics"] = stats.metrics;
  return out;
}

FockBuilder::FockBuilder(const BasisSet& basis, HfxOptions options)
    : basis_(&basis),
      options_(options),
      pairs_(make_pairs(basis, options_, &schwarz_, &culled_, &cull_stats_)),
      tasks_(make_tasks(basis, pairs_, options.target_task_cost,
                        options.eps_schwarz, options.eri_kernel)) {
  index_pairs_by_shell();
  pair_hermites_.reserve(pairs_.size());
  for (const ShellPair& pr : pairs_.pairs())
    pair_hermites_.emplace_back(basis_->shell(pr.sa), basis_->shell(pr.sb),
                                options_.eri_kernel);
  if (options_.fault.enabled()) injector_.emplace(options_.fault);
}

void FockBuilder::index_pairs_by_shell() {
  pairs_by_shell_.assign(basis_->num_shells(), {});
  // pairs_ is sorted by descending q, so appending in index order keeps
  // each shell's link list in descending q too — the sorted-break
  // invariant the blocked enumeration relies on.
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    const ShellPair& pr = pairs_[i];
    pairs_by_shell_[pr.sa].push_back(static_cast<std::uint32_t>(i));
    if (pr.sb != pr.sa)
      pairs_by_shell_[pr.sb].push_back(static_cast<std::uint32_t>(i));
  }
}

void FockBuilder::rebind(const BasisSet& basis) {
  const BasisSet& old = *basis_;
  if (basis.num_shells() != old.num_shells() ||
      basis.num_functions() != old.num_functions())
    throw std::invalid_argument("FockBuilder::rebind: shell structure differs");
  const std::size_t ns = basis.num_shells();

  std::vector<char> moved(ns, 0);
  for (std::size_t s = 0; s < ns; ++s) {
    if (basis.shell(s).l() != old.shell(s).l() ||
        basis.shell(s).atom_index() != old.shell(s).atom_index())
      throw std::invalid_argument(
          "FockBuilder::rebind: shell structure differs");
    const chem::Vec3& c0 = old.shell(s).center();
    const chem::Vec3& c1 = basis.shell(s).center();
    moved[s] = (c0.x != c1.x || c0.y != c1.y || c0.z != c1.z) ? 1 : 0;
  }

  // Refresh Schwarz entries with a moved endpoint; bounds between two
  // unmoved shells are bitwise identical by construction. Culled mode
  // never formed the matrix — it re-culls below instead.
  if (!culled_) {
    for (std::size_t sa = 0; sa < ns; ++sa)
      for (std::size_t sb = sa; sb < ns; ++sb)
        if (moved[sa] || moved[sb]) {
          const double b =
              ints::schwarz_bound(basis.shell(sa), basis.shell(sb));
          schwarz_(sa, sb) = b;
          schwarz_(sb, sa) = b;
        }
  }

  // Index the old pair list so surviving unmoved pairs can hand their
  // Hermite tables over instead of re-expanding them.
  std::unordered_map<std::uint64_t, std::size_t> old_index;
  old_index.reserve(pairs_.size());
  for (std::size_t i = 0; i < pairs_.size(); ++i)
    old_index.emplace(
        (static_cast<std::uint64_t>(pairs_[i].sa) << 32) | pairs_[i].sb, i);

  ShellPairList new_pairs =
      culled_ ? ShellPairList::culled(basis, options_.eps_schwarz, &cull_stats_)
              : ShellPairList(basis, schwarz_, options_.eps_schwarz);
  std::vector<ints::ShellPairHermite> new_hermites;
  new_hermites.reserve(new_pairs.size());
  std::size_t reused = 0;
  for (const ShellPair& pr : new_pairs.pairs()) {
    if (!moved[pr.sa] && !moved[pr.sb]) {
      const auto it = old_index.find(
          (static_cast<std::uint64_t>(pr.sa) << 32) | pr.sb);
      if (it != old_index.end()) {
        new_hermites.push_back(std::move(pair_hermites_[it->second]));
        ++reused;
        continue;
      }
    }
    new_hermites.emplace_back(basis.shell(pr.sa), basis.shell(pr.sb),
                              options_.eri_kernel);
  }

  pairs_ = std::move(new_pairs);
  pair_hermites_ = std::move(new_hermites);
  tasks_ = make_tasks(basis, pairs_, options_.target_task_cost,
                      options_.eps_schwarz, options_.eri_kernel);
  basis_ = &basis;
  index_pairs_by_shell();
  rebind_reused_ = reused;
}

ExchangeResult FockBuilder::exchange(const Matrix& density) const {
  JkResult jk = build(density, /*want_coulomb=*/false);
  return {std::move(jk.k), std::move(jk.stats)};
}

JkResult FockBuilder::coulomb_exchange(const Matrix& density) const {
  return build(density, /*want_coulomb=*/true);
}

void FockBuilder::digest_row(std::uint32_t bra,
                             std::span<const std::uint32_t> kets,
                             const Matrix& density, double* k,
                             double* j) const {
  if (kets.empty()) return;
  const double eps_contribution = options_.contribution_cutoff();
  const ShellPair& b = pairs_[bra];
  if (options_.eri_kernel == ints::EriKernel::kBatched) {
    // One micro-kernel call evaluates the whole stream; the returned
    // blocks are digested in the given ket order. (Both buffers keep
    // their capacity across rows.)
    thread_local std::vector<ints::QuartetRef> stream;
    thread_local std::vector<ints::EriBlock> blocks;
    stream.clear();
    for (const std::uint32_t kk : kets)
      stream.push_back({&pair_hermites_[bra], &pair_hermites_[kk]});
    if (blocks.size() < kets.size()) blocks.resize(kets.size());
    ints::eri_shell_quartet_batched({stream.data(), stream.size()},
                                    blocks.data());
    for (std::size_t i = 0; i < kets.size(); ++i) {
      const ShellPair& ket = pairs_[kets[i]];
      digest_quartet(*basis_, b.sa, b.sb, ket.sa, ket.sb, blocks[i], density,
                     j, k, /*braket_same=*/kets[i] == bra, eps_contribution);
    }
    return;
  }
  thread_local ints::EriBlock block;
  for (const std::uint32_t kk : kets) {
    if (options_.eri_kernel == ints::EriKernel::kDenseReference)
      ints::eri_shell_quartet_dense_reference(pair_hermites_[bra],
                                              pair_hermites_[kk], block);
    else
      ints::eri_shell_quartet(pair_hermites_[bra], pair_hermites_[kk], block);
    const ShellPair& ket = pairs_[kk];
    digest_quartet(*basis_, b.sa, b.sb, ket.sa, ket.sb, block, density, j, k,
                   /*braket_same=*/kk == bra, eps_contribution);
  }
}

void FockBuilder::run_slots(std::span<const double> costs, bool want_coulomb,
                            const SlotUnit& unit, obs::Registry& registry,
                            JkResult& result) const {
  const std::size_t nao = basis_->num_functions();
  const std::size_t nn = nao * nao;
  // One slot buffer holds K, then J.
  const parallel::SlotPlan plan =
      parallel::plan_slots(costs, want_coulomb ? 2 * nn : nn);
  parallel::SlotReducer reducer(plan.size(), want_coulomb ? 2 * nn : nn);
  parallel::ThreadPool pool(registry.num_threads());
  // The buffer of the slot each thread is running.
  std::vector<parallel::SlotReducer::Buffer> open(pool.num_threads());
  {
    obs::Trace::Scope task_span(obs::global_trace(), "jk.tasks");
    obs::ScopedTimer wall(registry.timer("hfx.wall_seconds"), 0);
    execute_slots(
        pool, plan, options_.schedule,
        [&](std::size_t i, std::size_t tid) {
          if (!open[tid]) open[tid] = reducer.acquire();
          double* k = open[tid].get();
          unit(i, tid, k, want_coulomb ? k + nn : nullptr);
        },
        [&](std::size_t slot, std::size_t tid) {
          reducer.commit(slot, std::move(open[tid]));
        },
        &registry, RetryOptions{.max_retries = options_.fault.max_retries});
  }
  obs::Trace::Scope reduce_span(obs::global_trace(), "jk.reduce");
  obs::ScopedTimer reduce(registry.timer("hfx.reduce_seconds"), 0);
  const std::span<const double> total = reducer.total();
  result.k =
      Matrix(nao, nao, std::vector<double>(total.begin(), total.begin() + nn));
  linalg::symmetrize(result.k);
  if (want_coulomb) {
    result.j =
        Matrix(nao, nao, std::vector<double>(total.begin() + nn, total.end()));
    linalg::symmetrize(result.j);
  }
}

JkResult FockBuilder::build(const Matrix& density, bool want_coulomb) const {
  obs::Trace::Scope build_span(obs::global_trace(), "jk.build");
  const std::size_t nn = basis_->num_functions() * basis_->num_functions();
  const std::size_t nthreads = resolve_thread_count(options_.num_threads);

  obs::Registry registry(nthreads);
  const obs::Timer busy_timer = registry.timer("hfx.task_seconds");
  const obs::Counter c_considered = registry.counter("hfx.quartets_considered");
  const obs::Counter c_schwarz = registry.counter("hfx.quartets_schwarz_screened");
  const obs::Counter c_density = registry.counter("hfx.quartets_density_screened");
  const obs::Counter c_computed = registry.counter("hfx.quartets_computed");

  const Matrix block_max = options_.density_screening
                               ? shell_block_max_density(*basis_, density)
                               : Matrix();

  // Transactional commit: a task digests into a per-thread scratch that
  // is validated and added to its slot's buffer only on success, so a
  // retried (thrown or poisoned) task never double-commits or leaks a
  // partial/corrupt contribution.
  const bool transactional = options_.validate_tasks;
  const std::size_t len = want_coulomb ? 2 * nn : nn;
  std::vector<std::vector<double>> scratch(transactional ? nthreads : 0);

  // Per-task attempt counters give each retry a fresh, independent fault
  // draw; the epoch salts sites so every build in an SCF sequence sees a
  // different (seed-reproducible) fault pattern.
  const std::uint64_t epoch =
      build_epoch_.fetch_add(1, std::memory_order_relaxed);
  std::unique_ptr<std::atomic<std::uint32_t>[]> attempt_counts;
  if (injector_)
    attempt_counts =
        std::make_unique<std::atomic<std::uint32_t>[]>(tasks_.size());

  JkResult result;
  result.stats.num_pairs = pairs_.size();
  result.stats.num_pairs_unscreened = pairs_.unscreened_count();
  result.stats.num_tasks = tasks_.size();
  if (options_.record_task_costs)
    result.stats.task_costs.assign(tasks_.size(), TaskCostRecord{});

  const auto run_task = [&](std::size_t task_index, std::size_t tid,
                            double* slot_k, double* slot_j) {
    bool poison = false;
    if (injector_) {
      const std::uint32_t attempt =
          attempt_counts[task_index].fetch_add(1, std::memory_order_relaxed);
      const std::uint64_t site =
          (epoch << 40) | static_cast<std::uint64_t>(task_index);
      // Throws InjectedFault on kFail, sleeps on kStall, returns true on
      // kCorrupt (poison applied to the digested output below).
      poison = injector_->apply(site, attempt);
    }
    const QuartetTask& task = tasks_[task_index];
    const ShellPair& bra = pairs_[task.bra];
    double* k_acc = slot_k;
    double* j_acc = slot_j;
    if (transactional) {
      scratch[tid].assign(len, 0.0);
      k_acc = scratch[tid].data();
      j_acc = slot_j ? k_acc + nn : nullptr;
    }

    // Screening tallies accumulate locally and flush once per task so
    // the inner quartet loop performs no atomic traffic.
    std::uint64_t considered = 0, schwarz = 0, density_scr = 0, computed = 0;
    thread_local std::vector<std::uint32_t> survivors;
    survivors.clear();
    const obs::Stopwatch watch;
    for (std::uint32_t kk = task.ket_begin; kk < task.ket_end; ++kk) {
      const ShellPair& ket = pairs_[kk];
      const double qq = bra.q * ket.q;
      if (qq < options_.eps_schwarz) {
        // The pair list is sorted by descending q, so every remaining
        // ket in this task fails the same bound: account for the whole
        // tail and exit instead of testing it pair by pair.
        const std::uint64_t rest = task.ket_end - kk;
        considered += rest;
        schwarz += rest;
        break;
      }
      ++considered;
      if (options_.density_screening) {
        const double pmax = want_coulomb
                                ? std::max(exchange_density_bound(
                                               block_max, bra.sa, bra.sb,
                                               ket.sa, ket.sb),
                                           std::max(block_max(bra.sa, bra.sb),
                                                    block_max(ket.sa, ket.sb)))
                                : exchange_density_bound(block_max, bra.sa,
                                                         bra.sb, ket.sa,
                                                         ket.sb);
        if (qq * pmax < options_.eps_schwarz) {
          ++density_scr;
          continue;
        }
      }
      ++computed;
      survivors.push_back(kk);
    }
    digest_row(task.bra, survivors, density, k_acc, j_acc);
    // A kCorrupt fault models silent data corruption in the task's
    // output. With validation on, the isfinite sweep catches it and the
    // retry path heals it; with validation off it lands in K, which is
    // exactly the hazard validate_tasks exists to close.
    if (poison) k_acc[0] = std::numeric_limits<double>::quiet_NaN();
    if (transactional) {
      const std::vector<double>& out = scratch[tid];
      if (!std::all_of(out.begin(), out.end(),
                       [](double v) { return std::isfinite(v); }))
        throw std::runtime_error("hfx: non-finite task output (task " +
                                 std::to_string(task_index) + ")");
      for (std::size_t i = 0; i < len; ++i) slot_k[i] += out[i];
    }
    // Tallies, timing, and cost records flush only on this success path;
    // a throw above leaves them untouched so retries never double-count.
    const double secs = watch.seconds();
    busy_timer.add_seconds(tid, secs);
    c_considered.add(tid, considered);
    c_schwarz.add(tid, schwarz);
    c_density.add(tid, density_scr);
    c_computed.add(tid, computed);
    if (options_.record_task_costs)
      result.stats.task_costs[task_index] = {
          static_cast<std::uint32_t>(task_index), task.est_cost, secs};
  };

  const std::uint64_t pre_failures = injector_ ? injector_->failures() : 0;
  const std::uint64_t pre_stalls = injector_ ? injector_->stalls() : 0;
  const std::uint64_t pre_corruptions =
      injector_ ? injector_->corruptions() : 0;
  std::vector<double> costs(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i)
    costs[i] = tasks_[i].est_cost;
  run_slots(costs, want_coulomb, run_task, registry, result);

  fill_stats(registry, result.stats);
  if (injector_) {
    result.stats.fault.injected_failures = injector_->failures() - pre_failures;
    result.stats.fault.injected_stalls = injector_->stalls() - pre_stalls;
    result.stats.fault.injected_corruptions =
        injector_->corruptions() - pre_corruptions;
    result.stats.fault.injected = result.stats.fault.injected_failures +
                                  result.stats.fault.injected_stalls +
                                  result.stats.fault.injected_corruptions;
    registry.counter("fault.injected").add(0, result.stats.fault.injected);
  }
  result.stats.metrics = registry.to_json();
  return result;
}

void FockBuilder::fill_stats(const obs::Registry& registry, HfxStats& stats) {
  stats.screening.quartets_considered =
      registry.counter_total("hfx.quartets_considered");
  stats.screening.quartets_schwarz_screened =
      registry.counter_total("hfx.quartets_schwarz_screened");
  stats.screening.quartets_density_screened =
      registry.counter_total("hfx.quartets_density_screened");
  stats.screening.quartets_computed =
      registry.counter_total("hfx.quartets_computed");
  stats.wall_seconds = registry.timer_seconds("hfx.wall_seconds");
  stats.reduce_seconds = registry.timer_seconds("hfx.reduce_seconds");
  stats.thread_busy_seconds = registry.timer_per_thread("hfx.task_seconds");
  stats.fault.retries = registry.counter_total("fault.retries");
  stats.fault.permanent_failures =
      registry.counter_total("fault.permanent_failures");
}

}  // namespace mthfx::hfx
