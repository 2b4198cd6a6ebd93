#!/usr/bin/env bash
# Runs the bench_perf_*, bench_stream_* and bench_query_* google-benchmark
# binaries with JSON output and aggregates the results into BENCH_perf.json
# at the repo root, so the perf trajectory is tracked across PRs. User
# counters (the serving bench's p50/p99/qps) are kept in the merge, and
# the BM_ShardedIngest rows are distilled into a top-level
# "shard_scaling" block (events/s and speedup-vs-single-writer per
# shard count — the curve ROADMAP.md's "Make sharding pay, or delete it"
# judges).
#
# Usage: tools/run_benches.sh [build_dir] [benchmark_filter]
#   build_dir         defaults to "build"
#   benchmark_filter  optional --benchmark_filter regex applied to every binary
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"

# Keep freed arenas mapped so repeated large builds reuse warm pages instead
# of paying mmap/page-fault churn per iteration; applied uniformly so runs
# are comparable across PRs.
export GLIBC_TUNABLES="${GLIBC_TUNABLES:-glibc.malloc.mmap_max=0:glibc.malloc.trim_threshold=-1}"
BUILD_DIR="${1:-$REPO_ROOT/build}"
FILTER="${2:-}"
OUT_DIR="$BUILD_DIR/bench_json"
mkdir -p "$OUT_DIR"

declare -a JSON_FILES=()
for bin in "$BUILD_DIR"/bench_perf_* "$BUILD_DIR"/bench_stream_* \
           "$BUILD_DIR"/bench_query_*; do
  [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  out="$OUT_DIR/$name.json"
  echo ">>> $name"
  args=(--benchmark_format=json --benchmark_out="$out" \
        --benchmark_out_format=json)
  if [ -n "$FILTER" ]; then
    args+=("--benchmark_filter=$FILTER")
  fi
  "$bin" "${args[@]}" >/dev/null
  JSON_FILES+=("$out")
done

if [ "${#JSON_FILES[@]}" -eq 0 ]; then
  echo "no bench_perf_*/bench_stream_*/bench_query_* binaries found in" \
       "$BUILD_DIR (build them first)" >&2
  exit 1
fi

python3 - "$REPO_ROOT" "$BUILD_DIR" "${JSON_FILES[@]}" <<'EOF'
import glob, json, os, re, subprocess, sys

repo_root, build_dir, *inputs = sys.argv[1:]
out_path = os.path.join(repo_root, "BENCH_perf.json")


def cmake_value(path, pattern):
    """First capture of `pattern` in a CMake-generated file, else None."""
    try:
        with open(path) as f:
            match = re.search(pattern, f.read(), re.MULTILINE)
    except OSError:
        return None
    return match.group(1) if match else None


def git(*args):
    proc = subprocess.run(["git", "-C", repo_root, *args],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else None


# What was measured: the build tree's own build type and compiler (not
# google-benchmark's library build type) and the commit. The dirty flag
# ignores BENCH_perf.json, which this script rewrites.
compiler_files = sorted(
    glob.glob(os.path.join(build_dir, "CMakeFiles", "*",
                           "CMakeCXXCompiler.cmake")))
compiler_file = compiler_files[-1] if compiler_files else ""
compiler_id = cmake_value(compiler_file,
                          r'^set\(CMAKE_CXX_COMPILER_ID "([^"]*)"\)')
compiler_version = cmake_value(
    compiler_file, r'^set\(CMAKE_CXX_COMPILER_VERSION "([^"]*)"\)')
git_sha = git("rev-parse", "--short", "HEAD")
changes = git("status", "--porcelain", "--untracked-files=no", "--", ".",
              ":(exclude)BENCH_perf.json")
build_context = {
    "build_type": cmake_value(os.path.join(build_dir, "CMakeCache.txt"),
                              r"^CMAKE_BUILD_TYPE:STRING=(.*)$"),
    "compiler": " ".join(v for v in (compiler_id, compiler_version) if v)
                or None,
    "git_sha": git_sha,
    "git_dirty": None if git_sha is None or changes is None
                 else bool(changes),
}

# google-benchmark reports each row's times in its declared time_unit
# (->Unit(...)); the stored keys are nanoseconds.
NS_PER_UNIT = {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}

merged = {"schema": 1, "benches": {}}
for path in inputs:
    with open(path) as f:
        data = json.load(f)
    name = path.rsplit("/", 1)[-1].removesuffix(".json")
    ctx = data.get("context", {})
    merged.setdefault("context", {
        "host": ctx.get("host_name"),
        "num_cpus": ctx.get("num_cpus"),
        "benchmark_library_build_type": ctx.get("library_build_type"),
        "date": ctx.get("date"),
        **build_context,
    })
    bench = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        scale = NS_PER_UNIT[b.get("time_unit", "ns")]
        bench[b["name"]] = {
            "real_time_ns": b["real_time"] * scale,
            "cpu_time_ns": b["cpu_time"] * scale,
            "iterations": b["iterations"],
        }
        if "items_per_second" in b:
            bench[b["name"]]["items_per_second"] = b["items_per_second"]
        # google-benchmark user counters (state.counters[...]): the
        # serving bench reports p50/p99/qps/interference through these.
        known = {"real_time", "cpu_time", "iterations", "items_per_second",
                 "name", "run_name", "run_type", "family_index",
                 "per_family_instance_index", "repetitions",
                 "repetition_index", "threads", "time_unit"}
        for key, value in b.items():
            if key not in known and isinstance(value, (int, float)):
                bench[b["name"]][key] = value
    merged["benches"][name] = bench

# Shard-scaling curve (docs/STREAMING.md, "Sharded ingestion"): distill
# the BM_ShardedIngest/N rows into one comparable record — events/s per
# shard count plus the speedup over the single-writer (N=1) baseline.
# The raw rows stay in "benches" either way.
curve = {}
for bench in merged["benches"].values():
    for name, row in bench.items():
        # Row names look like "BM_ShardedIngest/4/real_time" (the bench
        # uses a wall-clock base; see bench_stream_throughput.cc).
        parts = name.split("/")
        if parts[0] == "BM_ShardedIngest" and len(parts) > 1 \
                and parts[1].isdigit():
            curve[parts[1]] = row.get("items_per_second")
if curve and curve.get("1"):
    merged["shard_scaling"] = {
        "bench": "BM_ShardedIngest",
        "events_per_second": curve,
        "speedup_vs_single_writer": {
            shards: round(rate / curve["1"], 4)
            for shards, rate in curve.items() if rate is not None
        },
    }

with open(out_path, "w") as f:
    json.dump(merged, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_path}")
EOF
