#!/usr/bin/env bash
# Build the memory-sensitive tests under AddressSanitizer and run them.
#
# Covers the surfaces that juggle raw buffers and exception-driven
# unwinding: the fault-injection/retry/checkpoint suite (tasks throw
# mid-kernel and must not leak or double-free scratch), the scheduler
# and thread-pool stack, and the JSON parser the checkpoint files go
# through, and the shared SCF loop (scf/solve.cpp) whose per-channel
# vectors index one or two spin channels. A heap error anywhere in that
# stack fails this script.
#
# Usage: scripts/run_asan.sh [build-dir]   (default: build-asan)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DMTHFX_SANITIZE=address
cmake --build "$BUILD_DIR" -j --target test_fault test_parallel test_obs \
  test_hfx test_property_hfx test_durability test_property_grad test_serve \
  test_scaling test_property_scaling test_scf test_uhf

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:strict_string_checks=1"

"$BUILD_DIR"/tests/test_fault
"$BUILD_DIR"/tests/test_parallel
"$BUILD_DIR"/tests/test_obs
# Scheduler-facing subset of test_hfx (the integral-heavy numerics are
# slow under ASan and exercised by the plain build anyway).
"$BUILD_DIR"/tests/test_hfx --gtest_filter='SchedulerExactness*:Schedulers.*:AllSchedules/*'
# Small-iteration property subset: random shapes drive allocation-heavy
# paths (tensor buffers, shrinker copies) through ASan without the full
# 50-case budget.
MTHFX_PROPERTY_ITERS=3 "$BUILD_DIR"/tests/test_property_hfx \
  --gtest_filter='PropertyHarness.*:PropertyHfx.JkHermitianAndTraceIdentities:PropertyHfx.SerialReduceMatchesDirectSum'
# Analytic-gradient surface: the ERI-derivative scratch blocks and XC
# grid-gradient buffers are the newest raw-buffer territory; a couple of
# random molecules walk all four functionals through them.
MTHFX_PROPERTY_ITERS=2 "$BUILD_DIR"/tests/test_property_grad \
  --gtest_filter='PropertyGrad.NetForceVanishes:PropertyGrad.ForcesAreTranslationInvariant'
# Durable-engine buffer surface: journal frame parsing/replay of corrupt
# and truncated records, and the disk store's entry read/validate/evict
# path — both chew raw file bytes and must not over-read on garbage.
"$BUILD_DIR"/tests/test_durability --gtest_filter='Journal.*:DiskStore.*'
# Service protocol codec: the line reader's frame buffering over raw
# recv bytes and the request parser on malformed/oversized input — the
# surface an untrusted client feeds directly.
"$BUILD_DIR"/tests/test_serve --gtest_filter='Protocol.*'
# Sparsity pipeline: the cell-list build (bin indexing, candidate
# gathers over raw offset arrays) and one blocked J/K build whose
# stamp-dedupe/link-walk buffers and CSR block scatters are the newest
# raw-index territory.
"$BUILD_DIR"/tests/test_scaling \
  --gtest_filter='PairCulling.*:BlockedBuild.*:SparsityOptions.*'
# The SCF loop: one closed-shell channel (rhf/rks, dense diagonalization)
# and two open-shell channels (uhf/uks) in full, plus the purification
# density step through the blocked rhf route.
"$BUILD_DIR"/tests/test_scf
"$BUILD_DIR"/tests/test_uhf
"$BUILD_DIR"/tests/test_scaling --gtest_filter='SparseScf.*'
MTHFX_PROPERTY_ITERS=3 "$BUILD_DIR"/tests/test_property_scaling \
  --gtest_filter='PropertyScaling.CellListCandidatesCoverSurvivingPairs:PropertyScaling.CulledPairListMatchesDenseSweep'

echo "ASan pass clean."
