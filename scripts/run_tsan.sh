#!/usr/bin/env bash
# Build the threading/scheduler tests under ThreadSanitizer and run them.
#
# Covers the concurrency-sensitive surface: the thread pool, the
# work-stealing scheduler (both steal paths and their stats counters),
# the deterministic slot accumulator (SlotPlan.*, SlotReducer.* and
# SumSlots.* ride inside the full test_parallel run), the obs registry's
# lock-free per-thread slots, the HFX scheduler exactness tests, the
# threaded dense and blocked J/K builds, the threaded XC integrator, and
# the screening engine's job queue + multi-job scheduler. A data race
# anywhere in that stack fails this script.
#
# Usage: scripts/run_tsan.sh [build-dir]   (default: build-tsan)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DMTHFX_SANITIZE=thread
cmake --build "$BUILD_DIR" -j --target test_parallel test_obs test_hfx \
  test_fault test_engine test_durability test_serve test_differential \
  test_property_scaling test_determinism

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

"$BUILD_DIR"/tests/test_parallel
"$BUILD_DIR"/tests/test_obs
# Scheduler-facing subset of test_hfx: exactly-once execution under
# contention plus steal-stat consistency, without the integral-heavy
# numerics (slow under TSan and thread-free anyway).
"$BUILD_DIR"/tests/test_hfx --gtest_filter='SchedulerExactness*:Schedulers.*:AllSchedules/*'
# Threaded J/K builds, dense and blocked, at 1-8 threads under every
# schedule, and the threaded XC integrator (point batches, per-thread
# panel scratch, the threaded AO-table build): slot claims and the slot
# tree combine.
"$BUILD_DIR"/tests/test_determinism \
  --gtest_filter='HfxDeterminism.DenseJk*:HfxDeterminism.BlockedJk*:XcDeterminism.*'
# Retry/exactly-once-commit paths of the fault suite: concurrent task
# failure, requeue, and attempt accounting across every schedule.
"$BUILD_DIR"/tests/test_fault --gtest_filter='AllSchedules/*:Schedulers.*'
# Screening-engine concurrency surface: blocking queue handoff, worker
# pool vs. submitter races, result-cache sharing, per-job fault domains.
"$BUILD_DIR"/tests/test_engine --gtest_filter='JobQueue.*:JobScheduler.*'
# Durable-engine concurrency surface: the watchdog thread cancelling
# in-flight attempts it races with workers registering/unregistering
# them, journal appends from submitter + workers at once, and the disk
# store's LRU under concurrent lookup/insert.
"$BUILD_DIR"/tests/test_durability \
  --gtest_filter='Scheduler.*:DiskStore.*:Backoff.*'
# Service concurrency surface: the fair-share sub-queue pumped from
# worker completions while client threads submit, the terminal-record
# hook re-entering the tenant layer, and many client connections racing
# one server (the crash drills fork and are exercised unsanitized).
"$BUILD_DIR"/tests/test_serve \
  --gtest_filter='Serve.WeightedFairShareRatioUnderSaturation:Serve.ConcurrentClientsRaceCleanly:Serve.SubmitResultBitIdenticalToDirectRun'
# Small-iteration differential subset: randomized schedule x thread-count
# builds race the bag/steal protocols on fresh task shapes each case,
# and every build combines its slot partials in the slot tree.
MTHFX_PROPERTY_ITERS=3 "$BUILD_DIR"/tests/test_differential \
  --gtest_filter='Differential.ThreadCountIsInvisibleAcrossSchedules:Differential.ScreenedBuildMatchesBruteForceAcrossSchedules'
# Sparsity pipeline: cell-list candidate enumeration and the blocked
# J/K replay share the obs registry's per-thread counter slots with the
# dense builder's pool; small-iteration cases keep the lock-free
# counter paths and the threaded blocked walk honest.
MTHFX_PROPERTY_ITERS=3 "$BUILD_DIR"/tests/test_property_scaling \
  --gtest_filter='PropertyScaling.CellListCandidatesCoverSurvivingPairs:PropertyScaling.BlockedJkReplaysDenseBuilder'

echo "TSan pass clean."
