#pragma once

// Parallel Hartree–Fock exact-exchange (HFX) builder — the paper's core
// contribution. The quartet list is flattened into cost-estimated tasks
// (tasks.hpp; one bra row each by default), screened by Schwarz and
// density bounds (screening.hpp) and executed over threads with a
// pluggable scheduler. Threads claim whole slots of contiguous tasks and
// slot partials combine in a fixed tree (parallel/slots.hpp), so J and K
// are bit-identical for every thread count and schedule; the BG/Q
// simulator models the machine-scale reduction.

#include <atomic>
#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "chem/basis.hpp"
#include "fault/injector.hpp"
#include "ints/eri.hpp"
#include "hfx/screening.hpp"
#include "hfx/shell_pairs.hpp"
#include "hfx/tasks.hpp"
#include "linalg/block_sparse.hpp"
#include "linalg/matrix.hpp"
#include "obs/json.hpp"

namespace mthfx::obs {
class Registry;
}

namespace mthfx::hfx {

/// How tasks are mapped to threads. kDynamicBag is the paper's scheme;
/// kStaticBlock/kStaticCyclic are the "directly comparable" baselines; the
/// work-stealing mode plays the cross-node balancing role.
enum class HfxSchedule {
  kDynamicBag,
  kStaticBlock,
  kStaticCyclic,
  kWorkStealing,
};

/// Sparsity regime of pair formation and J/K builds.
/// kDense keeps the original code paths bitwise intact. kBlocked turns
/// on the distance-culled cell-list pair list plus the density-linked
/// (LinK-style) quartet enumeration that takes blocked densities.
/// kAuto selects kBlocked once the basis crosses auto_nbf_threshold, so
/// small systems never leave the dense path.
enum class SparsityMode { kAuto, kDense, kBlocked };

struct SparsityOptions {
  SparsityMode mode = SparsityMode::kAuto;
  /// kAuto switches to the blocked/culled machinery above this many
  /// basis functions (large electrolyte boxes; every preexisting suite
  /// stays far below it).
  std::size_t auto_nbf_threshold = 768;
  /// Block-matrix drop tolerance used by the sparse SCF side when
  /// re-blocking J/K/density products.
  double drop_tol = 1e-12;
  /// Target block size (basis functions) for blocked partitions —
  /// roughly one solvent molecule per block.
  std::size_t block_nbf = 48;

  bool blocked(std::size_t nbf) const {
    return mode == SparsityMode::kBlocked ||
           (mode == SparsityMode::kAuto && nbf > auto_nbf_threshold);
  }
};

struct HfxOptions {
  double eps_schwarz = 1e-10;     ///< integral-neglect threshold
  /// Quartet kernel. kBatched (default) streams each task's surviving
  /// quartets through the SIMD micro-kernel (ints/eri_batch.hpp) and
  /// digests the returned blocks in the original deterministic ket
  /// order; kSparse computes/digests one quartet at a time with the
  /// scalar kernel; kDenseReference runs the pre-optimization kernel
  /// (baseline / oracle use). All three produce K to within the kernels'
  /// few-ulp agreement, and each is individually run-to-run and
  /// schedule-deterministic.
  ints::EriKernel eri_kernel = ints::EriKernel::kBatched;
  /// Per-element magnitude cutoff inside the digestion kernel: computed
  /// integrals below this skip the J/K updates. 0 derives it from the
  /// screening threshold (eps_schwarz * kContributionCutoffScale), so
  /// tightening eps_schwarz tightens the whole accuracy chain.
  double eps_contribution = 0.0;
  bool density_screening = true;  ///< stage-two |P|-weighted screening
  HfxSchedule schedule = HfxSchedule::kDynamicBag;
  std::size_t num_threads = 0;    ///< 0 selects hardware concurrency
  double target_task_cost = 0.0;  ///< 0 selects one task per bra row
  bool record_task_costs = false; ///< collect per-task timings (for bgq sim)

  /// Seeded fault injection (off by default: all rates zero). max_retries
  /// also bounds retries of *genuine* task failures, with or without
  /// injection.
  fault::FaultOptions fault;
  /// Transactional task commit: digest into a per-thread scratch matrix,
  /// sweep it with std::isfinite, and add it to the slot buffer only when
  /// clean — a poisoned (NaN/Inf) task throws and is retried instead of
  /// corrupting K. Costs one extra nao^2 zero+add per task.
  bool validate_tasks = false;

  /// Pair-formation / blocked-build regime (see SparsityOptions). The
  /// default (kAuto with a high threshold) keeps every small system on
  /// the dense path.
  SparsityOptions sparsity;

  /// Derived default for eps_contribution: 1e-6 * eps_schwarz reproduces
  /// the historical 1e-16 cutoff at the default eps_schwarz of 1e-10.
  static constexpr double kContributionCutoffScale = 1e-6;
  double contribution_cutoff() const {
    return eps_contribution > 0.0 ? eps_contribution
                                  : eps_schwarz * kContributionCutoffScale;
  }
};

struct TaskCostRecord {
  std::uint32_t task = 0;
  double est_cost = 0.0;
  double seconds = 0.0;
};

/// What the resilience layer did during one build (all zero on a clean,
/// injection-free run).
struct FaultStats {
  std::uint64_t injected = 0;             ///< faults of any kind injected
  std::uint64_t injected_failures = 0;    ///< tasks made to throw
  std::uint64_t injected_stalls = 0;      ///< tasks made to sleep
  std::uint64_t injected_corruptions = 0; ///< tasks NaN-poisoned
  std::uint64_t retries = 0;              ///< re-executions after a failure
  std::uint64_t permanent_failures = 0;   ///< retry budget exhausted
};

struct HfxStats {
  ScreeningStats screening;
  FaultStats fault;
  std::size_t num_pairs = 0;
  std::size_t num_pairs_unscreened = 0;
  std::size_t num_tasks = 0;
  double wall_seconds = 0.0;
  double reduce_seconds = 0.0;               ///< final J/K extraction
  std::vector<double> thread_busy_seconds;   ///< per-thread kernel time
  std::vector<TaskCostRecord> task_costs;    ///< filled if record_task_costs
  obs::Json metrics;  ///< full registry snapshot (counters + timers)

  /// Busiest / mean thread busy time (1.0 when idle or single-threaded).
  double imbalance() const;
};

/// Machine-readable record of one build (screening, timing, imbalance,
/// scheduler metrics) for the BENCH_*.json emitters.
obs::Json to_json(const HfxStats& stats);

struct ExchangeResult {
  linalg::Matrix k;  ///< K_{mu nu} = sum_{lam sig} P_{lam sig} (mu lam|nu sig)
  HfxStats stats;
};

struct JkResult {
  linalg::Matrix j;  ///< J_{mu nu} = sum_{lam sig} P_{lam sig} (mu nu|lam sig)
  linalg::Matrix k;
  HfxStats stats;
};

class FockBuilder {
 public:
  /// Precomputes Schwarz bounds, the significant pair list and the task
  /// list. The basis must outlive the builder.
  FockBuilder(const chem::BasisSet& basis, HfxOptions options = {});

  /// Exchange-only build (the paper's benchmarked kernel).
  ExchangeResult exchange(const linalg::Matrix& density) const;

  /// Combined Coulomb + exchange build for SCF iterations. Both matrices
  /// are digested from one pass over the unique quartets.
  JkResult coulomb_exchange(const linalg::Matrix& density) const;

  /// Blocked-density builds (sparse_build.cpp). The quartet space is
  /// enumerated through density-linked ket lists (LinK-style) instead of
  /// the dense per-bra sweep: only kets reachable through a shell-block
  /// density element large enough to pass the combined Schwarz + density
  /// bound are visited, then every candidate is re-checked with exactly
  /// the dense path's tests in the dense path's order. The surviving
  /// quartet set — and therefore J/K — matches the dense build's. Cost
  /// scales with surviving quartets, not pairs², which is what makes
  /// exchange near-linear on large insulating boxes. Results are dense
  /// matrices; the sparse SCF driver re-blocks them.
  ExchangeResult exchange_blocked(const linalg::BlockSparseMatrix& density) const;
  JkResult coulomb_exchange_blocked(const linalg::BlockSparseMatrix& density) const;

  /// Re-target the builder at a new geometry of the *same* molecule/basis
  /// (identical shell structure, possibly moved centers). Schwarz bounds
  /// and shell-pair Hermite tables are recomputed only for pairs with a
  /// bitwise-moved endpoint; everything touching only unmoved atoms is
  /// carried over exactly. This is the cross-step reuse lever for MD
  /// surfaces and finite-difference sweeps, where most single-geometry
  /// rebuild cost is pair preparation on atoms that did not move.
  /// Throws std::invalid_argument if the shell structure differs. The new
  /// basis must outlive the builder.
  void rebind(const chem::BasisSet& basis);

  /// Pairs carried over unchanged by the most recent rebind (0 before
  /// any rebind) — observability for the reuse tests and the MD bench.
  std::size_t last_rebind_reused_pairs() const { return rebind_reused_; }

  const chem::BasisSet& basis() const { return *basis_; }
  const ShellPairList& pairs() const { return pairs_; }
  const std::vector<QuartetTask>& tasks() const { return tasks_; }
  const HfxOptions& options() const { return options_; }

  /// True when the pair list came from the distance-culled cell-list
  /// build (sparsity engaged) rather than the dense O(ns²) sweep.
  bool culled() const { return culled_; }
  const PairCullStats& cull_stats() const { return cull_stats_; }

  /// Pair indices (into pairs()) containing each shell, descending q —
  /// the per-shell link lists the blocked build walks.
  const std::vector<std::vector<std::uint32_t>>& pairs_by_shell() const {
    return pairs_by_shell_;
  }

 private:
  JkResult build(const linalg::Matrix& density, bool want_coulomb) const;
  JkResult build_blocked(const linalg::BlockSparseMatrix& density,
                         bool want_coulomb) const;

  /// Evaluates the quartets (bra | kets[i]) with the configured kernel
  /// and digests them, in the given order, into the row-major nao x nao
  /// accumulators k and j (j null for exchange only) — the one
  /// kernel-dispatch + digestion loop of the dense and blocked builds.
  void digest_row(std::uint32_t bra, std::span<const std::uint32_t> kets,
                  const linalg::Matrix& density, double* k, double* j) const;

  /// unit(index, thread, k, j): digest work unit `index` into the slot
  /// accumulators k and j (j null for exchange only).
  using SlotUnit =
      std::function<void(std::size_t, std::size_t, double*, double*)>;

  /// The slot scheme both builds share: cuts the work units (one cost
  /// each) into slots, runs every unit under the configured schedule on
  /// registry.num_threads() threads, and stores the fixed-tree sum of the
  /// slot partials, symmetrized, in result.k (and result.j).
  void run_slots(std::span<const double> costs, bool want_coulomb,
                 const SlotUnit& unit, obs::Registry& registry,
                 JkResult& result) const;

  /// Screening tallies, timers and retry counters of a finished build.
  static void fill_stats(const obs::Registry& registry, HfxStats& stats);
  void index_pairs_by_shell();

  const chem::BasisSet* basis_;
  HfxOptions options_;
  linalg::Matrix schwarz_;  ///< empty in culled mode (never formed)
  bool culled_ = false;
  PairCullStats cull_stats_;
  ShellPairList pairs_;
  std::vector<std::vector<std::uint32_t>> pairs_by_shell_;
  std::vector<QuartetTask> tasks_;
  std::size_t rebind_reused_ = 0;
  /// Precomputed Hermite expansions, aligned with pairs_ — computed once
  /// and amortized over every quartet the pair participates in.
  std::vector<ints::ShellPairHermite> pair_hermites_;
  /// Fault-injection state (engaged only when options_.fault has nonzero
  /// rates). The epoch salts fault sites so each build of an SCF sequence
  /// draws an independent — but still seed-deterministic — fault pattern.
  mutable std::optional<fault::Injector> injector_;
  mutable std::atomic<std::uint64_t> build_epoch_{0};
};

}  // namespace mthfx::hfx
