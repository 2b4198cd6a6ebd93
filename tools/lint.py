#!/usr/bin/env python3
"""Repo-specific lint driver for bikegraph (see docs/STATIC_ANALYSIS.md).

Enforces invariants generic tools cannot know. Runs in the default tier-1
gate as the `lint` ctest target (pure Python, no compiler); the golden-file
selftest (`--selftest`, the `lint_golden_test` ctest target) proves every
check still rejects its known-bad snippet under tests/lint_golden/.

Checks
------
  umbrella-export       every public header under src/ is #included by the
                        umbrella src/bikegraph.h (internal-only headers are
                        exempted in INTERNAL_HEADERS with a justification)
  pragma-once           every public header opens with #pragma once (the
                        compile-level self-containment proof is the generated
                        header_selfcontained_test target; see
                        --emit-header-matrix)
  unordered-iteration   no iteration over std::unordered_{map,set} feeding
                        ordered output — the seed's tie-break bug class. Any
                        range-for over an unordered container must carry a
                        `// lint: unordered-iter-ok: <why>` justification
                        (same line or the line above) arguing order
                        independence (pure counting, sort-after, ...).
  naked-io-syscall      raw durability syscalls (fsync/fdatasync/rename/
                        renameat and the ::open/::write/::unlink globals)
                        only inside src/core/io_env.cc — the single syscall
                        seam. Everything else routes I/O through IoEnv so
                        the fault injector sees every operation; a direct
                        syscall is invisible to fault schedules and
                        unprotected by the retry policy. Under src/ the
                        ::read/::pread globals (the recovery read paths)
                        and the std::filesystem mutators (create_directory
                        [ies], remove[_all], rename, resize_file) count
                        too; tests, benches and examples read files and
                        manage temp dirs.
  unseeded-rng          no rand()/srand()/std::random_device outside
                        src/core/rng — all randomness must flow through the
                        seeded deterministic RNG so every run is replayable.
  float-equality        no ==/!= against floating-point literals (and no
                        EXPECT_EQ/NE on them) outside the locked bit-identity
                        suites; annotate intentional exact compares with
                        `// lint: float-eq-ok: <why>`.
  naked-concurrency     concurrency primitives (<thread>/<mutex>/<atomic>
                        includes, std::thread, std::call_once, ...) only
                        inside the designated threaded surface: src/query/
                        (the serving layer), the snapshot publisher, the
                        stream engine and the logging sink. Threading is a
                        file-level design decision, so the escape is
                        file-level too: any other file must carry a
                        `// lint: thread-ok: <why this file must thread>`
                        justification somewhere in the file (threaded
                        tests and benches are the expected users).
  tracked-build-artifacts
                        no git-tracked path under a top-level build*/
                        directory — build trees are generated output and
                        once committed they bloat every clone and go stale
                        silently (a 744-file build-review/ tree slipped in
                        this way). Outside a git checkout the check skips.

Modes
-----
  lint.py --root R                    run all checks; exit 1 on violations
  lint.py --root R --selftest         golden-file tests (bad snippets fail)
  lint.py --root R --emit-header-matrix DIR
                                      write one self-containment TU per
                                      public header (consumed by CMake's
                                      header_selfcontained_test target)
  lint.py --root R --list-checks      print the check catalog
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

# --------------------------------------------------------------------------
# Tree layout
# --------------------------------------------------------------------------

SCAN_DIRS = ("src", "tests", "tools", "examples", "bench")
CXX_EXTENSIONS = (".h", ".cc", ".cpp")
EXCLUDE_PARTS = ("lint_golden",)  # known-bad snippets live here on purpose

# Public headers intentionally absent from the umbrella, each with the
# justification the check requires.
INTERNAL_HEADERS = {
    "stream/testing.h": "test-support seams (kill-point hooks), not API",
    "stream/durable_file.h": "file helpers and record field lists the WAL "
                             "and checkpoint code share, not API",
}

# The single file allowed to issue raw durability syscalls: the IoEnv
# passthrough. wal.cc/checkpoint.cc call through IoEnv so every open,
# write, fsync, rename and unlink is visible to the fault injector.
IO_ENV_FILES = {"src/core/io_env.cc"}

# The seeded deterministic RNG wrapper — the only place allowed to touch
# platform randomness primitives.
RNG_FILES = {"src/core/rng.h", "src/core/rng.cc"}

# Locked bit-identity suites: exact floating-point comparison is the whole
# point there (delta-vs-full freezes, recovered-vs-uninterrupted engines,
# flat-vs-map algorithm rewrites must match bit for bit).
BIT_IDENTITY_TESTS = {
    "tests/perf_equivalence_test.cc",
    "tests/stream_snapshot_delta_test.cc",
    "tests/stream_durability_test.cc",
    "tests/stream_fault_test.cc",
    "tests/stream_reorder_test.cc",
    "tests/stream_engine_test.cc",
    "tests/stream_shard_test.cc",
    "tests/community_warm_start_test.cc",
    "tests/community_detector_test.cc",
    "tests/query_service_test.cc",
}

# The designated threaded surface: the only places allowed to hold
# concurrency primitives without a file-level justification. Everything
# here is covered by the TSan gate (tools/ci.sh, BIKEGRAPH_SANITIZE=thread)
# and the concurrent serving suites.
CONCURRENCY_DIRS = ("src/query/",)
CONCURRENCY_FILES = {
    "src/stream/snapshot.h",   # the atomic epoch publisher itself
    "src/stream/snapshot.cc",
    "src/stream/engine.h",     # freeze counters + sharded ingest engine
    "src/stream/engine.cc",    # shard workers, barrier quiescence
    "src/stream/spsc_ring.h",  # the shard command channel (Lamport ring)
    "src/core/logging.cc",     # process-wide sink registration
}


class Violation:
    def __init__(self, check, path, line, message):
        self.check = check
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.check}] {self.message}"


def list_tree_files(root):
    """All C++ sources under the scanned dirs, as root-relative paths."""
    out = []
    for d in SCAN_DIRS:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [n for n in dirnames if n not in EXCLUDE_PARTS]
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    rel = os.path.relpath(os.path.join(dirpath, name), root)
                    out.append(rel.replace(os.sep, "/"))
    return sorted(out)


def public_headers(files):
    return [f for f in files if f.startswith("src/") and f.endswith(".h")]


def strip_comments(line):
    """Best-effort removal of comment and string-literal text from one
    line (so quoted text can't trip the code-pattern regexes)."""
    line = re.sub(r"/\*.*?\*/", "", line)
    line = re.sub(r"//.*", "", line)
    line = re.sub(r"/\*.*", "", line)
    line = re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)
    return line


def has_annotation(lines, idx, tag):
    """True when line idx, or the contiguous comment block immediately
    above it, carries a `lint: <tag>:` justification."""
    pat = f"lint: {tag}:"
    if pat in lines[idx]:
        return True
    j = idx - 1
    while j >= 0 and lines[j].strip().startswith("//"):
        if pat in lines[j]:
            return True
        j -= 1
    return False


# --------------------------------------------------------------------------
# Checks. Each takes (root, files) and returns a list of Violations.
# --------------------------------------------------------------------------

def check_umbrella_export(root, files):
    umbrella_rel = "src/bikegraph.h"
    umbrella = os.path.join(root, umbrella_rel)
    violations = []
    if not os.path.isfile(umbrella):
        return [Violation("umbrella-export", umbrella_rel, 1,
                          "umbrella header missing")]
    with open(umbrella, encoding="utf-8") as f:
        text = f.read()
    included = set(re.findall(r'#include\s+"([^"]+)"', text))
    for hdr in public_headers(files):
        rel = hdr[len("src/"):]
        if rel == "bikegraph.h":
            continue
        if rel in INTERNAL_HEADERS:
            continue
        if rel not in included:
            violations.append(Violation(
                "umbrella-export", hdr, 1,
                f'public header not exported by src/bikegraph.h (add '
                f'#include "{rel}" or register it in INTERNAL_HEADERS '
                f"with a justification)"))
    return violations


def check_pragma_once(root, files):
    violations = []
    for hdr in public_headers(files):
        with open(os.path.join(root, hdr), encoding="utf-8") as f:
            for line in f:
                stripped = line.strip()
                if not stripped or stripped.startswith("//"):
                    continue
                if stripped != "#pragma once":
                    violations.append(Violation(
                        "pragma-once", hdr, 1,
                        "first directive must be #pragma once"))
                break
            else:
                violations.append(Violation(
                    "pragma-once", hdr, 1, "empty header"))
    return violations


UNORDERED_DECL = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*>[\s\n]*&?[\s\n]*"
    r"(\w+(?:\s*,\s*\w+)*)")
RANGE_FOR = re.compile(r"\bfor\s*\([^;]*?:\s*&?\s*([A-Za-z_]\w*(?:\.\w+\(\))?)\s*\)")


def check_unordered_iteration(root, files):
    """File-local heuristic: declarations and loops must be in the same
    file (members declared in another header are not seen — the compile-
    level equivalence locks cover those paths)."""
    violations = []
    for rel in files:
        if not rel.endswith((".cc", ".cpp", ".h")):
            continue
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            lines = f.read().splitlines()
        stripped_text = "\n".join(strip_comments(l) for l in lines)
        unordered_names = set()
        for m in UNORDERED_DECL.finditer(stripped_text):
            for name in m.group(1).split(","):
                unordered_names.add(name.strip())
        if not unordered_names:
            continue
        for i, line in enumerate(lines):
            code = strip_comments(line)
            m = RANGE_FOR.search(code)
            if not m:
                continue
            target = m.group(1).split(".")[0]
            if target not in unordered_names:
                continue
            if has_annotation(lines, i, "unordered-iter-ok"):
                continue
            violations.append(Violation(
                "unordered-iteration", rel, i + 1,
                f"range-for over unordered container '{target}' — iteration "
                "order is unspecified and has fed ordered output before "
                "(the seed's tie-break bug class); sort first, or justify "
                "with `// lint: unordered-iter-ok: <why order cannot leak>`"))
    return violations


IO_SYSCALL = re.compile(
    r"\b(?:fsync|fdatasync|rename|renameat)\s*\("
    r"|(?<![\w])::\s*(?:open|write|unlink)\s*\(")

# Library code only, like FS_MUTATOR below: recovery reads its WAL and
# checkpoints through IoEnv::Read so fault plans reach them, while tests,
# benches and examples read files directly.
READ_SYSCALL = re.compile(r"(?<![\w])::\s*(?:read|pread)\s*\(")

# std::filesystem calls that change the disk, through the usual `fs`
# alias or spelled out. Library code only: tests, benches and examples
# create and delete their temp directories legitimately.
FS_MUTATOR = re.compile(
    r"\b(?:fs|std\s*::\s*filesystem)\s*::\s*"
    r"(?:create_directory|create_directories|remove|remove_all|rename|"
    r"resize_file)\s*\(")


def check_naked_io_syscall(root, files):
    violations = []
    for rel in files:
        if rel in IO_ENV_FILES:
            continue
        library = rel.startswith("src/")
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            code = strip_comments(line)
            if IO_SYSCALL.search(code) or (
                    library and (READ_SYSCALL.search(code) or
                                 FS_MUTATOR.search(code))):
                violations.append(Violation(
                    "naked-io-syscall", rel, i + 1,
                    "raw I/O syscall or std::filesystem mutator outside "
                    "src/core/io_env.cc — route it through IoEnv so fault "
                    "injection sees it and the retry/degrade policy "
                    "protects it"))
    return violations


RNG_CALL = re.compile(r"\b(?:rand|srand)\s*\(|\brandom_device\b")


def check_unseeded_rng(root, files):
    violations = []
    for rel in files:
        if rel in RNG_FILES:
            continue
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            code = strip_comments(line)
            if RNG_CALL.search(code):
                violations.append(Violation(
                    "unseeded-rng", rel, i + 1,
                    "rand()/srand()/std::random_device outside core/rng — "
                    "all randomness must be seeded and replayable "
                    "(use bikegraph::Rng)"))
    return violations


FLOAT_LITERAL = r"[-+]?(?:\d+\.\d*|\.\d+)(?:[eE][-+]?\d+)?f?"
FLOAT_EQ = re.compile(
    rf"(?:(?<![<>=!])[=!]=\s*{FLOAT_LITERAL}(?![\w.]))|"
    rf"(?:(?<![\w.]){FLOAT_LITERAL}\s*[=!]=(?!=))")
GTEST_EQ_CALL = re.compile(r"\b(?:EXPECT|ASSERT)_(?:EQ|NE)\s*\(")
FLOAT_LITERAL_ONLY = re.compile(rf"^\(?\s*{FLOAT_LITERAL}\s*\)?$")


def gtest_compares_float_literal(code):
    """True when an EXPECT_EQ/NE on this line has a *top-level* argument
    that is itself a floating literal — a float literal nested inside a
    call argument (a radius, a coordinate) is not an equality operand."""
    m = GTEST_EQ_CALL.search(code)
    if not m:
        return False
    depth, arg, args = 0, "", []
    for ch in code[m.end():]:
        if ch == "(" or ch == "{" or ch == "[":
            depth += 1
        elif ch == ")" or ch == "}" or ch == "]":
            if ch == ")" and depth == 0:
                break
            depth -= 1
        elif ch == "," and depth == 0:
            args.append(arg)
            arg = ""
            continue
        arg += ch
    args.append(arg)
    return any(FLOAT_LITERAL_ONLY.match(a.strip()) for a in args)


def check_float_equality(root, files):
    violations = []
    for rel in files:
        if rel in BIT_IDENTITY_TESTS:
            continue
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            lines = f.read().splitlines()
        for i, line in enumerate(lines):
            code = strip_comments(line)
            if FLOAT_EQ.search(code) or gtest_compares_float_literal(code):
                if has_annotation(lines, i, "float-eq-ok"):
                    continue
                violations.append(Violation(
                    "float-equality", rel, i + 1,
                    "exact ==/!= against a floating-point literal outside "
                    "the locked bit-identity suites; compare with a "
                    "tolerance, or justify the exactness with "
                    "`// lint: float-eq-ok: <why bit-exact>`"))
    return violations


CONCURRENCY_INCLUDE = re.compile(
    r"#\s*include\s*<(?:thread|mutex|shared_mutex|condition_variable|"
    r"atomic|future|stop_token|semaphore|latch|barrier)>")
CONCURRENCY_USE = re.compile(
    r"\bstd::(?:jthread\b|thread\b|this_thread\b|mutex\b|shared_mutex\b|"
    r"recursive_mutex\b|timed_mutex\b|condition_variable\w*|atomic\w*|"
    r"async\b|future\b|promise\b|packaged_task\b|call_once\b|once_flag\b|"
    r"lock_guard\b|unique_lock\b|scoped_lock\b|shared_lock\b|"
    r"counting_semaphore\b|binary_semaphore\b|latch\b|barrier\b|"
    r"stop_token\b|memory_order\w*)")


def check_naked_concurrency(root, files):
    """Threading must live in the designated surface or be justified per
    file — a naked std::thread mutating shared state from a random helper
    is exactly the bug class the TSan gate cannot see (it only races what
    the suites exercise). One violation per file, pointing at the first
    concurrency site."""
    violations = []
    for rel in files:
        if rel in CONCURRENCY_FILES:
            continue
        if any(rel.startswith(d) for d in CONCURRENCY_DIRS):
            continue
        with open(os.path.join(root, rel), encoding="utf-8") as f:
            lines = f.read().splitlines()
        if any("lint: thread-ok:" in l for l in lines):
            continue
        hits = []
        for i, line in enumerate(lines):
            code = strip_comments(line)
            if CONCURRENCY_INCLUDE.search(code) or \
                    CONCURRENCY_USE.search(code):
                hits.append(i)
        if hits:
            violations.append(Violation(
                "naked-concurrency", rel, hits[0] + 1,
                f"concurrency primitive outside the designated threaded "
                f"surface ({len(hits)} site(s) in this file) — shared-state "
                "threading lives in src/query/ plus the publisher/engine/"
                "logging files, where the TSan gate races it; move the "
                "code there, or justify the whole file with "
                "`// lint: thread-ok: <why this file must thread>`"))
    return violations


def check_tracked_build_artifacts(root, files):
    """No build tree may be committed. Build output is reproducible from
    the sources, so tracking it bloats every clone and rots silently; the
    .gitignore entries only stop *new* adds — this check catches paths
    that were force-added or tracked before the ignore existed. One
    violation per offending top-level build*/ directory. Gracefully skips
    when `root` is not a git checkout (release tarballs, selftest trees)."""
    del files  # consults the git index, not the C++ source list
    try:
        proc = subprocess.run(
            ["git", "-C", root, "ls-files", "-z"],
            capture_output=True, check=False)
    except OSError:
        return []  # no git binary — nothing to enforce against
    if proc.returncode != 0:
        return []  # not a git checkout
    by_dir = {}
    for path in proc.stdout.decode("utf-8", "replace").split("\0"):
        if "/" not in path:
            continue
        top = path.split("/", 1)[0]
        if top == "build" or top.startswith("build-") or \
                top.startswith("build_"):
            by_dir.setdefault(top, []).append(path)
    violations = []
    for top in sorted(by_dir):
        paths = sorted(by_dir[top])
        violations.append(Violation(
            "tracked-build-artifacts", paths[0], 1,
            f"{len(paths)} git-tracked file(s) under '{top}/' — build "
            "trees are generated output; `git rm -r --cached` the "
            f"directory and keep '{top}/' in .gitignore"))
    return violations


CHECKS = [
    ("umbrella-export", check_umbrella_export),
    ("pragma-once", check_pragma_once),
    ("unordered-iteration", check_unordered_iteration),
    ("naked-io-syscall", check_naked_io_syscall),
    ("unseeded-rng", check_unseeded_rng),
    ("float-equality", check_float_equality),
    ("naked-concurrency", check_naked_concurrency),
    ("tracked-build-artifacts", check_tracked_build_artifacts),
]


# --------------------------------------------------------------------------
# Header self-containment matrix
# --------------------------------------------------------------------------

def emit_header_matrix(root, out_dir):
    """One TU per public header: the header first, twice, nothing else.

    Compiling the whole set (CMake's header_selfcontained_test target)
    proves every public header is self-contained (brings in everything it
    needs) and include-guarded (the second include is a no-op).
    """
    files = list_tree_files(root)
    headers = public_headers(files)
    os.makedirs(out_dir, exist_ok=True)
    for stale in os.listdir(out_dir):
        if stale.endswith(".cc"):
            os.unlink(os.path.join(out_dir, stale))
    for hdr in headers:
        rel = hdr[len("src/"):]
        slug = re.sub(r"[^A-Za-z0-9]", "_", rel)
        path = os.path.join(out_dir, f"selfcontained_{slug}.cc")
        with open(path, "w", encoding="utf-8") as f:
            f.write(
                "// Generated by tools/lint.py --emit-header-matrix; "
                "do not edit.\n"
                f'// Self-containment probe for "{rel}": it must compile as\n'
                "// the first include, and twice (include-guard proof).\n"
                f'#include "{rel}"\n'
                f'#include "{rel}"\n')
    with open(os.path.join(out_dir, "selfcontained_main.cc"), "w",
              encoding="utf-8") as f:
        f.write(
            "// Generated by tools/lint.py --emit-header-matrix; "
            "do not edit.\n"
            "int main() { return 0; }\n")
    print(f"header matrix: {len(headers)} TUs in {out_dir}")
    return 0


# --------------------------------------------------------------------------
# Golden-file selftest
# --------------------------------------------------------------------------

def _mini_tree(tmp, files):
    """Builds a scratch repo tree from {relpath: content} and returns it."""
    for rel, content in files.items():
        path = os.path.join(tmp, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content)
    return tmp


def _golden(root, name):
    path = os.path.join(root, "tests", "lint_golden", name)
    with open(path, encoding="utf-8") as f:
        return f.read()


def run_selftest(root):
    """Each check must flag its known-bad golden snippet and pass its good
    counterpart. Exits nonzero on the first broken check."""
    failures = []

    def expect(check_name, fn, tree_files, want_violation, label):
        with tempfile.TemporaryDirectory(prefix="bikegraph_lint_") as tmp:
            _mini_tree(tmp, tree_files)
            got = fn(tmp, list_tree_files(tmp))
            got = [v for v in got if v.check == check_name]
            if want_violation and not got:
                failures.append(
                    f"{check_name}: golden BAD snippet '{label}' was not "
                    "flagged — the check has gone blind")
            if not want_violation and got:
                failures.append(
                    f"{check_name}: golden GOOD snippet '{label}' was "
                    f"flagged: {got[0]}")

    umbrella_ok = '#include "exported.h"\n'
    exported = "#pragma once\n"
    expect("umbrella-export", check_umbrella_export,
           {"src/bikegraph.h": umbrella_ok,
            "src/exported.h": exported,
            "src/orphan.h": _golden(root, "bad_unexported_header.h")},
           True, "bad_unexported_header.h")
    expect("umbrella-export", check_umbrella_export,
           {"src/bikegraph.h": umbrella_ok, "src/exported.h": exported},
           False, "all exported")

    expect("pragma-once", check_pragma_once,
           {"src/guardless.h": _golden(root, "bad_missing_pragma_once.h")},
           True, "bad_missing_pragma_once.h")
    expect("pragma-once", check_pragma_once,
           {"src/guarded.h": "#pragma once\nint x();\n"},
           False, "guarded header")

    expect("unordered-iteration", check_unordered_iteration,
           {"src/bad.cc": _golden(root, "bad_unordered_iteration.cc")},
           True, "bad_unordered_iteration.cc")
    expect("unordered-iteration", check_unordered_iteration,
           {"src/good.cc": _golden(root, "good_annotated.cc")},
           False, "good_annotated.cc")

    expect("naked-io-syscall", check_naked_io_syscall,
           {"src/bad.cc": _golden(root, "bad_naked_fsync.cc")},
           True, "bad_naked_fsync.cc")
    expect("naked-io-syscall", check_naked_io_syscall,
           {"src/bad.cc": _golden(root, "bad_naked_syscall.cc")},
           True, "bad_naked_syscall.cc")
    expect("naked-io-syscall", check_naked_io_syscall,
           {"src/stream/wal.cc": _golden(root, "bad_naked_fsync.cc")},
           True, "wal.cc must go through IoEnv too")
    expect("naked-io-syscall", check_naked_io_syscall,
           {"src/core/io_env.cc": _golden(root, "bad_naked_syscall.cc")},
           False, "raw syscalls inside io_env.cc are the seam")
    expect("naked-io-syscall", check_naked_io_syscall,
           {"src/stream/engine.cc": _golden(root, "bad_naked_fs_mutator.cc")},
           True, "bad_naked_fs_mutator.cc")
    expect("naked-io-syscall", check_naked_io_syscall,
           {"tests/fs_test.cc": _golden(root, "bad_naked_fs_mutator.cc")},
           False, "tests manage their temp directories")
    expect("naked-io-syscall", check_naked_io_syscall,
           {"src/core/io_env.cc": _golden(root, "bad_naked_fs_mutator.cc")},
           False, "std::filesystem mutators inside io_env.cc are the seam")
    expect("naked-io-syscall", check_naked_io_syscall,
           {"src/stream/durable_file.cc": _golden(root, "bad_naked_read.cc")},
           True, "bad_naked_read.cc")
    expect("naked-io-syscall", check_naked_io_syscall,
           {"tests/read_test.cc": _golden(root, "bad_naked_read.cc")},
           False, "tests read files directly")
    expect("naked-io-syscall", check_naked_io_syscall,
           {"src/core/io_env.cc": _golden(root, "bad_naked_read.cc")},
           False, "raw reads inside io_env.cc are the seam")

    expect("unseeded-rng", check_unseeded_rng,
           {"src/bad.cc": _golden(root, "bad_unseeded_rng.cc")},
           True, "bad_unseeded_rng.cc")
    expect("unseeded-rng", check_unseeded_rng,
           {"src/core/rng.cc": _golden(root, "bad_unseeded_rng.cc")},
           False, "randomness primitives inside core/rng")

    expect("float-equality", check_float_equality,
           {"src/bad.cc": _golden(root, "bad_float_equality.cc")},
           True, "bad_float_equality.cc")
    expect("float-equality", check_float_equality,
           {"src/good.cc": _golden(root, "good_annotated.cc")},
           False, "good_annotated.cc")

    expect("naked-concurrency", check_naked_concurrency,
           {"src/bad.cc": _golden(root, "bad_naked_concurrency.cc")},
           True, "bad_naked_concurrency.cc")
    expect("naked-concurrency", check_naked_concurrency,
           {"src/query/bad.cc": _golden(root, "bad_naked_concurrency.cc")},
           False, "threads inside src/query are the serving layer")
    expect("naked-concurrency", check_naked_concurrency,
           {"src/good.cc": _golden(root, "good_annotated.cc")},
           False, "good_annotated.cc")

    # tracked-build-artifacts consults the git index, so its goldens need
    # a real scratch repo rather than the plain-tree expect() helper.
    with tempfile.TemporaryDirectory(prefix="bikegraph_lint_") as tmp:
        _mini_tree(tmp, {
            "build-review/stale_artifact.txt": "generated output\n",
            "src/good.cc": "int main() { return 0; }\n",
        })
        env = dict(os.environ,
                   GIT_CONFIG_GLOBAL=os.devnull, GIT_CONFIG_SYSTEM=os.devnull)
        git_ok = True
        for cmd in (["git", "init", "-q"],
                    ["git", "add", "-f",
                     "build-review/stale_artifact.txt", "src/good.cc"]):
            if subprocess.run(cmd, cwd=tmp, env=env,
                              capture_output=True).returncode != 0:
                git_ok = False
                break
        if not git_ok:
            failures.append(
                "tracked-build-artifacts: scratch `git init`/`git add` "
                "failed — golden snippets could not be exercised")
        else:
            got = check_tracked_build_artifacts(tmp, list_tree_files(tmp))
            got = [v for v in got if v.check == "tracked-build-artifacts"]
            if not got:
                failures.append(
                    "tracked-build-artifacts: golden BAD tree (tracked "
                    "build-review/ file) was not flagged — the check has "
                    "gone blind")
            subprocess.run(
                ["git", "rm", "-r", "-q", "--cached", "build-review"],
                cwd=tmp, env=env, capture_output=True)
            got = check_tracked_build_artifacts(tmp, list_tree_files(tmp))
            got = [v for v in got if v.check == "tracked-build-artifacts"]
            if got:
                failures.append(
                    "tracked-build-artifacts: golden GOOD tree (index "
                    f"purged) was flagged: {got[0]}")

    if failures:
        for f in failures:
            print(f"SELFTEST FAIL: {f}", file=sys.stderr)
        return 1
    print(f"selftest: {len(CHECKS)} checks × bad+good golden snippets OK")
    return 0


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repo root")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--emit-header-matrix", metavar="DIR")
    parser.add_argument("--list-checks", action="store_true")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)

    if args.list_checks:
        for name, _ in CHECKS:
            print(name)
        return 0
    if args.emit_header_matrix:
        return emit_header_matrix(root, args.emit_header_matrix)
    if args.selftest:
        return run_selftest(root)

    files = list_tree_files(root)
    violations = []
    for _, fn in CHECKS:
        violations.extend(fn(root, files))
    for v in sorted(violations, key=lambda v: (v.path, v.line)):
        print(v, file=sys.stderr)
    if violations:
        print(f"lint: {len(violations)} violation(s) across "
              f"{len({v.path for v in violations})} file(s)", file=sys.stderr)
        return 1
    print(f"lint: {len(files)} files clean across {len(CHECKS)} checks")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
