#pragma once

// SCF divergence detection and staged recovery. The SCF loop
// (scf/solve.hpp, behind rhf, rks, uhf, uks and sparse_rhf) feeds every
// iteration's (energy, ΔE, DIIS error) into a RecoveryLadder;
// when the sequence looks divergent — non-finite numbers, a sustained
// ΔE sign oscillation, or DIIS error blowing up past its best value —
// the ladder escalates one stage at a time:
//
//   kNone -> kDiisReset -> kDamping -> kLevelShift
//
// Each stage's mitigation stays engaged for the rest of the solve (the
// stages are cumulative). Every escalation is recorded as a
// RecoveryEvent and surfaced through ScfResult::diagnostics, so a
// non-converged result explains itself instead of silently returning
// converged=false.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace mthfx::scf {

enum class RecoveryStage : std::uint8_t {
  kNone = 0,
  kDiisReset = 1,   ///< drop the (possibly poisoned) DIIS history
  kDamping = 2,     ///< mix previous density into each new density
  kLevelShift = 3,  ///< raise virtuals: F += shift (S - S P S)
};

const char* to_string(RecoveryStage stage);

struct RecoveryOptions {
  bool enabled = true;
  /// Iterations before divergence heuristics may fire (the first cycles
  /// of a core guess legitimately swing hard).
  std::size_t min_iterations = 2;
  /// Iterations to wait after an escalation before escalating again
  /// (gives the mitigation time to act). Non-finite values bypass this.
  std::size_t patience = 3;
  /// Consecutive ΔE sign flips (each above oscillation_floor) that count
  /// as an oscillation.
  std::size_t oscillation_flips = 4;
  double oscillation_floor = 1e-6;
  /// DIIS error exceeding growth * best-error-so-far counts as blow-up.
  double diis_growth = 1e3;
  /// Mitigation strengths applied when the stage engages.
  double damping = 0.5;
  double level_shift = 0.5;  ///< Hartree
};

struct RecoveryEvent {
  std::size_t iteration = 0;  ///< 0-based SCF iteration that triggered it
  RecoveryStage stage = RecoveryStage::kNone;  ///< stage entered
  std::string reason;
};

/// Post-mortem attached to every ScfResult/UhfResult.
struct ScfDiagnostics {
  bool finite = true;  ///< false if any iterate went NaN/Inf
  RecoveryStage final_stage = RecoveryStage::kNone;
  std::vector<RecoveryEvent> recovery_events;
  std::string failure_reason;  ///< empty unless the solve was abandoned
};

obs::Json to_json(const ScfDiagnostics& diagnostics);

class RecoveryLadder {
 public:
  explicit RecoveryLadder(RecoveryOptions options = {});

  /// Feed one iteration. Returns the stage newly entered this iteration
  /// (kNone when no escalation happened). `delta_e` is the raw
  /// energy difference to the previous iteration.
  RecoveryStage observe(std::size_t iteration, double energy, double delta_e,
                        double diis_error);

  RecoveryStage stage() const { return stage_; }

  /// True exactly once per kDiisReset (or deeper) entry: the driver must
  /// clear its DIIS history when this fires.
  bool consume_diis_reset();

  /// Density damping fraction to apply this iteration (0 below kDamping).
  double damping() const {
    return stage_ >= RecoveryStage::kDamping ? options_.damping : 0.0;
  }
  /// Level shift to apply this iteration (0 below kLevelShift).
  double level_shift() const {
    return stage_ >= RecoveryStage::kLevelShift ? options_.level_shift : 0.0;
  }

  /// True when a non-finite iterate arrived while already at the top of
  /// the ladder — the solve cannot recover and should abandon.
  bool exhausted() const { return exhausted_; }

  const std::vector<RecoveryEvent>& events() const { return events_; }
  bool saw_non_finite() const { return saw_non_finite_; }

 private:
  void escalate(std::size_t iteration, const std::string& reason);

  RecoveryOptions options_;
  RecoveryStage stage_ = RecoveryStage::kNone;
  std::vector<RecoveryEvent> events_;
  bool pending_diis_reset_ = false;
  bool exhausted_ = false;
  bool saw_non_finite_ = false;
  std::size_t last_escalation_ = 0;
  bool has_escalated_ = false;
  double best_diis_error_ = 0.0;
  bool has_diis_error_ = false;
  double prev_delta_e_ = 0.0;
  std::size_t flip_count_ = 0;
};

}  // namespace mthfx::scf
