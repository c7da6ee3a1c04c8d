#!/usr/bin/env bash
# Tier-1 verification for the DVC simulator.
#
#   ./ci.sh             lint instrument names (tools/lint_metric_names.py:
#                       no telemetry::count/observe/gauge_* call under src/
#                       may build its name with `+`) and VC state writes
#                       (tools/lint_vc_state.py: nothing under src/ but
#                       DvcManager::transition assigns a VirtualCluster's
#                       state_) and DvcManager's callbacks
#                       (tools/lint_dvc_continuations.py: no lambda in
#                       src/core/dvc_manager.cpp, src/ckpt/lsc.cpp or
#                       src/storage/image_manager.cpp captures by
#                       reference, and none of them uses a std::weak_ptr
#                       or any std::make_shared but adopt_checkpoint's
#                       snapshot vector; a DvcManager callback carries its
#                       VC's id and issuing epoch or its operation's id,
#                       an LSC event its operation's id and round, an
#                       image-manager read its staging id) and config
#                       fields (tools/lint_config_fields.py: every
#                       defaulted field of a *Config, *Options or *Policy
#                       struct under src/ is assigned by some file outside
#                       its header, so each is an option a caller uses;
#                       a value no caller sets is a named constant beside
#                       its use instead. Fields of a struct some caller
#                       brace-initialises by position, and struct-typed
#                       members, are exempt), and checks
#                       that no `std::function` appears in src/sim/,
#                       src/storage/bandwidth_pool.*,
#                       src/vm/guest_timers.*, src/net/ or
#                       src/app/mpi_job.*: below the application a
#                       closure is one form, sim::Callback (inline when
#                       it is a small trivially copyable capture, else
#                       one owning pointer), and the transport calls its
#                       owner through an interface (PacketSink,
#                       net::MessageSink, MpiJob::Receiver), and that
#                       neither `std::log1p` nor an `.exponential(` or
#                       `->exponential(` call appears under src/ outside
#                       src/sim/rng.hpp: every simulated delay is drawn by
#                       Rng::exponential_duration, whose guarded
#                       log(1 - u) returns log1p's truncated integer at
#                       about half the cost, then configure
#                       (warnings-as-errors), build, and run the full test
#                       suite (every label); then configure and build (not
#                       run) dvcbench from dvcbench/ into
#                       build/dvcbench-pkg, since it compiles src/ plus
#                       tools/sweep.cpp on its own and must keep linking
#   ./ci.sh --sanitize  the test suite under AddressSanitizer + UBSan
#                       (separate build tree, slower; catches lifetime/UB
#                       bugs the plain build cannot), without the `paper`
#                       label: its four tables take ~40x longer there; then
#                       dvcbench, built optimised with the same sanitizer
#                       flags into build-asan/dvcbench-pkg, runs each of
#                       its four workloads once at seed 1 (`--seconds 0`:
#                       every cell once, under a minute in all) and fails
#                       on a non-zero exit or a result line without
#                       "correct": true. That run is what puts fleet's
#                       teardown order (guest VMs destroyed before their
#                       app) under the sanitizers
#   ./ci.sh --soak      the sanitizer build with -DDVC_SOAK=ON, running
#                       only the soak-labelled suites (`ctest -L soak`) —
#                       the randomized failure schedules where lifetime
#                       bugs in the recovery paths actually surface
#   ./ci.sh --coverage  instrumented (gcc --coverage) build, runs the
#                       tier-1 suite and writes a per-subsystem
#                       line-coverage artifact (build-cov/coverage.json)
#   ./ci.sh --tidy      clang-tidy (config in .clang-tidy: bugprone-*,
#                       concurrency-*, and a readability subset) over every
#                       translation unit in src/, against a fresh
#                       compile_commands.json
#   ./ci.sh --bench-smoke  builds dvcbench and runs each of its four
#                       workloads for one second (untraced) at seed 1 and
#                       at the held-out seed 1001, then once through
#                       (`--seconds 0`) at seeds 2..10 and 1002..1010
#                       (~4 min in all); fails unless every result line
#                       reports "correct": true and "failed": 0 and each
#                       modelled_digest equals its line in
#                       tests/golden/dvcbench_digests.txt (`<workload>`
#                       for seed 1, `<workload>:<seed>` for the others).
#                       The 80 digests pin the kernel's event order. Last,
#                       each workload runs once traced (`--seed 1
#                       --seconds 0 --trace 1`, under a second each) and
#                       must report "correct": true and "failed": 0: the
#                       traced run checks that the traced twin
#                       (dvcbench/src/traced_cell.cpp) reaches the same
#                       modelled outcome as the untraced cell. It must
#                       also report telemetry.spans_recorded > 0 on every
#                       workload, and positive vm.save_sim_s_p50 and
#                       ckpt.round_sim_s_p50 on ckpt16: the traced twin
#                       and fleet build their own rooms and read those
#                       figures off the span timeline, which they get from
#                       telemetry::MetricsRegistry's recording default
#                       (on); if that default flips, this check fails
#
# Test labels: `tier1` is the fast gate (unit tests, the dvcsim/dvcsweep
# goldens, the 17 quick bench/ paper tables, each gated byte for byte
# against tests/golden/bench_<name>.out, and dvc_alloc_tests, the
# allocation gate: zero heap allocations over 5 000 steady-state events
# of a running ParallelApp, and (AllocationGate.CheckpointRoundPerMember)
# at most 2 more allocations per checkpoint round for each member added
# to a ckpt16-shaped cell, counted by a replaced global operator new,
# which also counts under --sanitize); `paper` holds the four slow paper
# tables (tab2_ntp_lsc, tab9_reliability, abl1_jitter_sweep,
# abl4_timeout_sweep), ~1 min of CPU in a release build, which they spread
# over every hardware thread; `soak` is the fault-soak campaign. Plain
# `ctest` runs all three. Every bench/ trial that builds a machine room
# runs under check::Invariants: a violation exits the program 1, naming
# the program and the trial, so its golden gate fails.
#
# All modes exit non-zero on any build or test failure.
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 4)"

# Extra ctest arguments for build_and_test, e.g. a label filter.
CTEST_FILTER=""
build_and_test() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$JOBS"
  # shellcheck disable=SC2086  # CTEST_FILTER is a word list
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS" $CTEST_FILTER
}

case "${1:-}" in
  --sanitize)
    SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g"
    CTEST_FILTER="-LE paper"
    build_and_test build-asan \
      -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
      -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
    # Optimised (dvcbench's own default build type), so the four runs
    # take about a minute rather than four.
    cmake -B build-asan/dvcbench-pkg -S dvcbench \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
      -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
    cmake --build build-asan/dvcbench-pkg --target dvcbench -j "$JOBS"
    for w in sweep26 steady26 ckpt16 fleet; do
      out="$(build-asan/dvcbench-pkg/dvcbench --workload "$w" --seed 1 \
               --seconds 0 --trace 0)"
      printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
w, line = sys.argv[1], sys.stdin.read().strip()
correct = json.loads(line).get("correct") if line.startswith("{") else None
print("%s: correct=%s under the sanitizers" % (w, correct))
sys.exit(0 if correct is True else 1)
' "$w"
    done
    ;;
  --soak)
    SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -g"
    cmake -B build-soak -S . \
      -DCMAKE_BUILD_TYPE=Debug \
      -DDVC_SOAK=ON \
      -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
      -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
    cmake --build build-soak -j "$JOBS"
    ctest --test-dir build-soak --output-on-failure -L soak
    ;;
  --coverage)
    COV_FLAGS="--coverage -O0 -g"
    cmake -B build-cov -S . \
      -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_FLAGS="$COV_FLAGS" \
      -DCMAKE_EXE_LINKER_FLAGS="--coverage"
    cmake --build build-cov -j "$JOBS"
    ctest --test-dir build-cov --output-on-failure -L tier1 -j "$JOBS"
    python3 tools/coverage_report.py build-cov build-cov/coverage.json
    ;;
  --tidy)
    TIDY=""
    for candidate in clang-tidy clang-tidy-19 clang-tidy-18 clang-tidy-17; do
      if command -v "$candidate" >/dev/null 2>&1; then
        TIDY="$candidate"
        break
      fi
    done
    if [ -z "$TIDY" ]; then
      echo "ci.sh --tidy: clang-tidy not found on PATH" >&2
      exit 2
    fi
    cmake -B build-tidy -S . \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
    # Every library/tool translation unit; headers are covered through
    # their includers via the HeaderFilterRegex in .clang-tidy.
    find src -name '*.cpp' -print0 |
      xargs -0 -P "$JOBS" -n 1 "$TIDY" -p build-tidy --quiet
    ;;
  --bench-smoke)
    golden=tests/golden/dvcbench_digests.txt
    for seed in 1 1001 2 3 4 5 6 7 8 9 10 \
                1002 1003 1004 1005 1006 1007 1008 1009 1010; do
      seconds=0
      case "$seed" in 1|1001) seconds=1 ;; esac
      for w in sweep26 steady26 ckpt16 fleet; do
        key="$w"
        [ "$seed" = 1 ] || key="$w:$seed"
        out="$(python3 dvcbench/run.py --workload "$w" --seed "$seed" \
                 --seconds "$seconds" --trace 0)"
        printf '%s\n' "$out" | python3 -c '
import json, re, sys
w, golden_path, text = sys.argv[1], sys.argv[2], sys.stdin.read()
lines = text.strip().splitlines()
result = json.loads(lines[-1]) if lines else {}
found = re.search(r"modelled_digest = (\S+)", text)
digest = found.group(1) if found else "missing"
golden = {}
with open(golden_path) as f:
    for line in f:
        fields = line.split("#", 1)[0].split()
        if fields:
            golden[fields[0]] = fields[1]
want = golden.get(w, "missing")
correct, failed = result.get("correct"), result.get("failed")
print("%s: modelled_digest=%s (golden %s) correct=%s failed=%s"
      % (w, digest, want, correct, failed))
ok = digest == want != "missing" and correct is True and failed == 0
if digest != want:
    print("%s: modelled_digest differs from %s" % (w, golden_path),
          file=sys.stderr)
sys.exit(0 if ok else 1)
' "$key" "$golden"
      done
    done
    for w in sweep26 steady26 ckpt16 fleet; do
      out="$(python3 dvcbench/run.py --workload "$w" --seed 1 --seconds 0 \
               --trace 1)"
      printf '%s\n' "$out" | tail -n 1 | python3 -c '
import json, sys
w, line = sys.argv[1], sys.stdin.read().strip()
result = json.loads(line) if line.startswith("{") else {}
correct, failed = result.get("correct"), result.get("failed")
metrics = result.get("metrics", {})
def value(name):
    return metrics.get(name, {}).get("value", 0)
# The traced twin reads its figures off the span timeline: a room that
# stopped recording spans would report zeros here, not fail.
positive = ["telemetry.spans_recorded"]
if w == "ckpt16":
    positive += ["vm.save_sim_s_p50", "ckpt.round_sim_s_p50"]
zero = [name for name in positive if not value(name) > 0]
print("%s (traced): correct=%s failed=%s %s" % (
    w, correct, failed,
    " ".join("%s=%s" % (name, value(name)) for name in positive)))
if zero:
    print("%s (traced): not positive: %s" % (w, " ".join(zero)),
          file=sys.stderr)
sys.exit(0 if correct is True and failed == 0 and not zero else 1)
' "$w"
    done
    ;;
  "")
    python3 tools/lint_metric_names.py src
    python3 tools/lint_vc_state.py src
    python3 tools/lint_dvc_continuations.py src/core/dvc_manager.cpp \
      src/ckpt/lsc.cpp src/storage/image_manager.cpp
    python3 tools/lint_config_fields.py
    if grep -rn 'std::function' src/sim src/storage/bandwidth_pool.* \
         src/vm/guest_timers.* src/net src/app/mpi_job.*; then
      echo "ci.sh: std::function below the application; hold a" \
           "sim::Callback, or call the owner through its interface" >&2
      exit 1
    fi
    if grep -rnE 'std::log1p|(\.|->)exponential\(' src | grep -v '^src/sim/rng\.hpp:'
    then
      echo "ci.sh: exponential draw outside sim::Rng; draw a delay with" \
           "Rng::exponential_duration" >&2
      exit 1
    fi
    build_and_test build -DDVC_WERROR=ON
    cmake -B build/dvcbench-pkg -S dvcbench
    cmake --build build/dvcbench-pkg --target dvcbench -j "$JOBS"
    ;;
  *)
    echo "usage: $0 [--sanitize|--soak|--coverage|--tidy|--bench-smoke]" >&2
    exit 2
    ;;
esac
