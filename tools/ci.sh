#!/usr/bin/env bash
# Tier-1 gate in one command: lint + configure + build + ctest.
#
#   tools/ci.sh                         # release build, all tests
#   BIKEGRAPH_SANITIZE=address tools/ci.sh          # ASan build
#   BIKEGRAPH_SANITIZE=undefined tools/ci.sh        # UBSan build
#   BIKEGRAPH_SANITIZE=thread tools/ci.sh           # TSan build (see note)
#   BIKEGRAPH_SANITIZE=leak tools/ci.sh             # LSan build
#   tools/ci.sh -R community_detector_test          # extra args go to ctest
#
# The default run starts with tools/lint.py (pure Python, no compiler —
# fails in seconds on a repo-invariant violation) and builds with the full
# diagnostic set promoted to errors (BIKEGRAPH_WERROR=ON is the CMake
# default; set BIKEGRAPH_WERROR=OFF in the environment to triage new
# warnings without the gate).
#
# TSan note: the query serving layer (src/query) runs real reader
# threads against the live publisher, and the sharded stream engine runs
# one worker thread per shard behind SPSC rings, so
# BIKEGRAPH_SANITIZE=thread gates the stream and query suites by default
# — stream_publisher_test and query_concurrent_test race readers pinning
# epochs against the publishing thread, and stream_shard_test /
# stream_reorder_test / stream_snapshot_delta_test /
# stream_durability_test race the shard workers against the ingest
# thread's rings and barriers.
#
# Opt-in sanitizer matrix (the flag must come first): after the regular
# FULL run, build the tree into build-asan/ and build-ubsan/ and re-run
# every suite under each. Extra args select a sanitized subset only —
# the unsanitized gate always runs everything.
#
#   tools/ci.sh --sanitize-matrix                   # every suite
#   tools/ci.sh --sanitize-matrix -R stream         # explicit subset
#
# Bench smoke (the flag must come first): after the test pass, run every
# bench_perf_* / bench_stream_* / bench_query_* binary (the set
# tools/run_benches.sh records) once with a minimal measuring budget — a
# cheap crash/assert canary for the benchmark code itself (it measures
# nothing meaningful; use tools/run_benches.sh + tools/bench_diff.py to
# track performance).
#
#   tools/ci.sh --bench-smoke
#
# Durability/chaos gate (the flag must come first): after the regular
# run, re-run the crash-recovery and hostile-input suites
# (stream_durability_test: randomized kill-point recovery, torn tails,
# corrupt checkpoints; stream_chaos_test: demand surges, outages, clock
# skew, duplicate storms, boundary floods) under ASan and UBSan — the
# memory- and UB-sensitive paths ISSUE durability acceptance names.
#
#   tools/ci.sh --chaos
#
# Fault-schedule gate (the flag must come first): after the regular run,
# re-run the deterministic I/O fault-injection suite (stream_fault_test:
# randomized FaultPlans × kill-point recovery, ENOSPC self-heal, torn
# checkpoint renames, retry/backoff determinism, degraded mode) plus the
# crash-recovery suite under ASan and UBSan — the fault paths allocate
# and tear down file state aggressively, exactly where lifetime bugs
# would hide.
#
#   tools/ci.sh --faults
#
# Stress gate (the flag must come first): after the regular run, repeat
# every threaded suite until its first failure, up to 100 times
# (ctest --repeat until-fail:100 -R 'stream|query|shard'), on the plain
# build and then under TSan in build-tsan/ with
# tools/tsan_suppressions.txt. A race that fails one run in fifty fails
# this gate. On a 4-vCPU host the plain pass takes about 75 s and the
# TSan pass about 13 min.
#
#   tools/ci.sh --stress
#
# Deep-analysis gate (the flag must come first; takes no ctest args):
# rebuild the whole tree — src, tests, benches, tools, examples — into
# build-analyze/ under GCC's interprocedural -fanalyzer, capture the
# compiler output, and gate every -Wanalyzer-* finding against
# tools/analyzer_suppressions.txt via tools/check_analyzer.py. Exits
# nonzero on any unsuppressed finding; every suppression entry carries a
# written justification. Substantially slower than a normal build — run
# it before merging analyzer-sensitive work, not on every edit.
#
#   tools/ci.sh --analyze
#
# The build directory defaults to build/ (build-asan/, build-ubsan/,
# build-tsan/, build-lsan/ or build-analyze/ for the special modes, so
# they never clobber the main tree).
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SANITIZE="${BIKEGRAPH_SANITIZE:-}"
WERROR="${BIKEGRAPH_WERROR:-ON}"

MATRIX=0
BENCH_SMOKE=0
CHAOS=0
FAULTS=0
STRESS=0
ANALYZE=0
while :; do
  case "${1:-}" in
    --sanitize-matrix) MATRIX=1; shift ;;
    --bench-smoke)     BENCH_SMOKE=1; shift ;;
    --chaos)           CHAOS=1; shift ;;
    --faults)          FAULTS=1; shift ;;
    --stress)          STRESS=1; shift ;;
    --analyze)         ANALYZE=1; shift ;;
    *) break ;;
  esac
done
for arg in "$@"; do
  if [ "$arg" = "--sanitize-matrix" ] || [ "$arg" = "--bench-smoke" ] ||
     [ "$arg" = "--chaos" ] || [ "$arg" = "--faults" ] ||
     [ "$arg" = "--stress" ] || [ "$arg" = "--analyze" ]; then
    echo "$arg must come before any ctest arguments" >&2
    exit 2
  fi
done

JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

if [ "$ANALYZE" = 1 ]; then
  BUILD_DIR="${BUILD_DIR:-$ROOT/build-analyze}"
  LOG="$BUILD_DIR/analyze-build.log"
  echo ">>> deep analysis: GCC -fanalyzer over the full tree"
  cmake -B "$BUILD_DIR" -S "$ROOT" -DBIKEGRAPH_ANALYZE=ON \
        -DBIKEGRAPH_WERROR=OFF -DBIKEGRAPH_SANITIZE=""
  # No -Werror here: the gate must see every finding, not stop at the
  # first. The log (stdout+stderr) is what check_analyzer.py parses.
  mkdir -p "$BUILD_DIR"
  cmake --build "$BUILD_DIR" -j "$JOBS" 2>&1 | tee "$LOG"
  python3 "$ROOT/tools/check_analyzer.py" --log "$LOG" \
          --suppressions "$ROOT/tools/analyzer_suppressions.txt"
  exit 0
fi

case "$SANITIZE" in
  "")        BUILD_DIR="${BUILD_DIR:-$ROOT/build}" ;;
  address)   BUILD_DIR="${BUILD_DIR:-$ROOT/build-asan}" ;;
  undefined) BUILD_DIR="${BUILD_DIR:-$ROOT/build-ubsan}" ;;
  thread)    BUILD_DIR="${BUILD_DIR:-$ROOT/build-tsan}" ;;
  leak)      BUILD_DIR="${BUILD_DIR:-$ROOT/build-lsan}" ;;
  *) echo "BIKEGRAPH_SANITIZE must be empty, 'address', 'undefined'," \
          "'thread' or 'leak'" >&2
     exit 2 ;;
esac

# Repo-invariant lint first: pure Python, fails in seconds, and the same
# checks also run as the `lint` / `lint_golden_test` ctest targets.
python3 "$ROOT/tools/lint.py" --root "$ROOT"
python3 "$ROOT/tools/lint.py" --root "$ROOT" --selftest

# The threaded surface is the publisher hand-off, the query serving
# layer, and the shard workers behind the sharded engine; default the
# thread gate to exactly those suites (explicit ctest args still
# override). 'shard' is matched by 'stream' (stream_shard_test) but is
# named anyway so the intent survives a test-file rename. The
# suppression file silences one documented libstdc++-internal report
# (see tools/tsan_suppressions.txt) — races in repo code still fail the
# gate.
if [ "$SANITIZE" = thread ]; then
  export TSAN_OPTIONS="suppressions=$ROOT/tools/tsan_suppressions.txt${TSAN_OPTIONS:+:$TSAN_OPTIONS}"
  if [ "$#" -eq 0 ] && [ "$MATRIX" = 0 ]; then
    set -- -R 'stream|query|shard'
  fi
fi

cmake -B "$BUILD_DIR" -S "$ROOT" -DBIKEGRAPH_SANITIZE="$SANITIZE" \
      -DBIKEGRAPH_WERROR="$WERROR"
cmake --build "$BUILD_DIR" -j "$JOBS"
if [ "$MATRIX" = 1 ]; then
  # The tier-1 gate itself: matrix args select the sanitized subset
  # below, never narrow this run.
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"
else
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" "$@"
fi

if [ "$BENCH_SMOKE" = 1 ]; then
  echo ">>> bench smoke: one minimal pass over the perf/stream/query benches"
  found=0
  for bin in "$BUILD_DIR"/bench_perf_* "$BUILD_DIR"/bench_stream_* \
             "$BUILD_DIR"/bench_query_*; do
    [ -x "$bin" ] || continue
    found=1
    echo ">>> $(basename "$bin")"
    "$bin" --benchmark_min_time=0.01 >/dev/null
  done
  if [ "$found" = 0 ]; then
    echo "no bench_perf_*/bench_stream_*/bench_query_* binaries in" \
         "$BUILD_DIR (benches disabled?)" >&2
    exit 1
  fi
fi

if [ "$CHAOS" = 1 ]; then
  # The plain-build pass already ran above (the suites are part of the
  # full ctest); what --chaos adds is the sanitized re-runs.
  for san in address undefined; do
    echo ">>> chaos gate: $san"
    env -u BUILD_DIR BIKEGRAPH_SANITIZE="$san" \
        "${BASH_SOURCE[0]}" -R 'stream_durability|stream_chaos'
  done
fi

if [ "$FAULTS" = 1 ]; then
  # Plain-build pass already covered the suites; the gate's value is the
  # sanitized re-runs over the fault-injection and recovery paths.
  for san in address undefined; do
    echo ">>> fault gate: $san"
    env -u BUILD_DIR BIKEGRAPH_SANITIZE="$san" \
        "${BASH_SOURCE[0]}" -R 'stream_fault|stream_durability'
  done
fi

if [ "$STRESS" = 1 ]; then
  # The regular run above covered every suite once; this repeats the
  # threaded ones, plain and then under TSan.
  STRESS_ARGS=(--repeat until-fail:100 -R 'stream|query|shard')
  echo ">>> stress gate: plain"
  ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
        "${STRESS_ARGS[@]}"
  echo ">>> stress gate: thread"
  env -u BUILD_DIR BIKEGRAPH_SANITIZE=thread \
      "${BASH_SOURCE[0]}" "${STRESS_ARGS[@]}"
fi

if [ "$MATRIX" = 1 ]; then
  for san in address undefined; do
    echo ">>> sanitizer matrix: $san"
    env -u BUILD_DIR BIKEGRAPH_SANITIZE="$san" "${BASH_SOURCE[0]}" "$@"
  done
fi
