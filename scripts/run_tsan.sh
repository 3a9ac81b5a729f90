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
# anywhere in that stack fails this script, and so does a test filter
# pattern that selects no test (a renamed suite must not drop out of
# this tier silently).
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

# run_filtered <binary> <gtest filter>: run the filtered tests after
# checking that every ':'-separated pattern of the filter selects at
# least one test.
run_filtered() {
  local binary="$1" filter="$2" pattern count
  local -a patterns
  IFS=':' read -r -a patterns <<< "$filter"
  for pattern in "${patterns[@]}"; do
    count=$("$binary" --gtest_filter="$pattern" --gtest_list_tests |
      grep -c '^  ' || true)
    if [ "$count" -eq 0 ]; then
      echo "run_tsan.sh: '$pattern' selects no test in $binary" >&2
      exit 1
    fi
  done
  "$binary" --gtest_filter="$filter"
}

"$BUILD_DIR"/tests/test_parallel
"$BUILD_DIR"/tests/test_obs
# Scheduler-facing subset of test_hfx: exactly-once execution under
# contention plus steal-stat consistency, without the integral-heavy
# numerics (slow under TSan and thread-free anyway).
run_filtered "$BUILD_DIR"/tests/test_hfx 'AllSchedules/SchedulerExactness.*:AllSchedules/FockSchedules.*:Schedulers.*'
# Threaded J/K builds, dense and blocked, at 1-8 threads under every
# schedule, and the threaded XC integrator (point batches, per-thread
# panel scratch, the threaded AO-table build): slot claims and the slot
# tree combine.
run_filtered "$BUILD_DIR"/tests/test_determinism \
  'HfxDeterminism.DenseJk*:HfxDeterminism.BlockedJk*:XcDeterminism.*'
# Retry/exactly-once-commit paths of the fault suite: concurrent task
# failure, requeue, and attempt accounting across every schedule.
run_filtered "$BUILD_DIR"/tests/test_fault 'AllSchedules/*:Schedulers.*'
# Screening-engine concurrency surface: blocking queue handoff (a job is
# claimed for a waiting worker at submit, finish or pop), per-tenant
# in-flight caps released by completions, worker pool vs. submitter
# races, result-cache sharing, per-job fault domains.
run_filtered "$BUILD_DIR"/tests/test_engine 'JobQueue.*:FairShare.*:JobScheduler.*'
# Durable-engine concurrency surface: the watchdog thread cancelling
# in-flight attempts it races with workers registering/unregistering
# them, journal appends from submitter + workers at once, and the disk
# store's LRU under concurrent lookup/insert.
run_filtered "$BUILD_DIR"/tests/test_durability \
  'Scheduler.*:DiskStore.*:Backoff.*'
# Service concurrency surface: workers picking up across tenant
# backlogs while client threads submit and cancel, connections blocked
# in the scheduler's job-table wait, and many client connections racing
# one server (the crash drills fork and are exercised unsanitized).
run_filtered "$BUILD_DIR"/tests/test_serve \
  'Serve.WeightedFairShareRatioUnderSaturation:Serve.PriorityOrdersATenantsBacklog:Serve.QuotaRejectReasonFormatIsPinned:Serve.ConcurrentClientsRaceCleanly:Serve.SubmitResultBitIdenticalToDirectRun'
# Small-iteration differential subset: randomized schedule x thread-count
# builds race the bag/steal protocols on fresh task shapes each case,
# and every build combines its slot partials in the slot tree.
MTHFX_PROPERTY_ITERS=3 run_filtered "$BUILD_DIR"/tests/test_differential \
  'Differential.ThreadCountIsInvisibleAcrossSchedules:Differential.ScreenedBuildMatchesBruteForceAcrossSchedules'
# Sparsity pipeline: cell-list candidate enumeration and the blocked
# J/K replay share the obs registry's per-thread counter slots with the
# dense builder's pool; small-iteration cases keep the lock-free
# counter paths and the threaded blocked walk honest.
MTHFX_PROPERTY_ITERS=3 run_filtered "$BUILD_DIR"/tests/test_property_scaling \
  'PropertyScaling.CellListCandidatesCoverSurvivingPairs:PropertyScaling.BlockedJkReplaysDenseBuilder'

echo "TSan pass clean."
