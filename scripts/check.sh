#!/usr/bin/env bash
# Tier-1 verification in the normal and sanitizer configurations:
#   scripts/check.sh                    # normal, lint, bench smoke, ASAN/UBSAN, TSAN
#   scripts/check.sh fast               # normal configuration only
#   scripts/check.sh --fault-injection  # fault sweep + governor tests under
#                                       # ASAN/UBSAN and TSAN only
#   scripts/check.sh --backend-sweep    # pointer-vs-columnar differential
#                                       # grid + persisted-format robustness
#                                       # under ASAN/UBSAN only
#   scripts/check.sh --server-sweep     # query-service front-end: loopback
#                                       # server + differential tests, frame
#                                       # robustness under ASAN/UBSAN, the
#                                       # engine/server torture under TSAN,
#                                       # and a throughput-bench smoke run
#   scripts/check.sh --chaos-sweep      # resilience bar (DESIGN.md §13):
#                                       # retry/ladder/reaper/chaos-proxy/
#                                       # kill-restart suites in the normal
#                                       # build, then under ASAN/UBSAN and
#                                       # TSAN, plus the overload bench row
#   scripts/check.sh --perfbench        # benchmark harness built against
#                                       # src/ + its own tests, including
#                                       # traced replay == Engine::Run
#   scripts/check.sh --static-analysis  # clang++ build with -Wthread-safety
#                                       # as errors + full ctest (includes
#                                       # the negative-compile harness) +
#                                       # clang-tidy; skipped with a notice
#                                       # when clang is not installed
# The full ctest runs (normal and ASAN/UBSAN) include
# perfbench_smoke_{adhoc,repeat_large,server_open}: the benchmark harness's
# sources built against this tree's library (top-level CMakeLists.txt), each
# workload run briefly with --smoke.
# The lint leg runs clang-tidy (config in .clang-tidy) over src/ against the
# normal build's compile_commands.json; it is skipped with a notice when
# clang-tidy is not installed (CI installs it; see .github/workflows/ci.yml).
# The TSAN configuration runs only the tests that share state across
# threads or drive the executor: concurrent Runs on one engine, the server's
# session threads, the chaos and retry suites, the rewriter reused across
# queries, and the physical-engine tests around them. A plan runs on the
# thread that drains it; the rest of the suite is single-threaded and
# covered by the other configs.
# The fault-injection leg (DESIGN.md §8) sweeps injected operator failures,
# cancellations, timeouts, and budget exhaustion across the engine corpus:
# ASAN proves no aborted query leaks, and TSAN covers the cross-thread
# cancellation of EngineGovernorTest.
# The server-sweep leg (DESIGN.md §10) covers the query service: the full
# server suite (sessions, admission, drain, malformed frames, wire-vs-
# in-process differential) in the normal build, the frame-parser robustness
# corpus under ASAN/UBSAN, the engine+server concurrency torture under TSAN
# (zero races is the acceptance bar), and the closed-loop throughput bench
# in --smoke mode, which also verifies every wire answer byte-identical to
# the in-process run.
# The backend-sweep leg (DESIGN.md §9) runs the storage-invariance bar under
# ASAN/UBSAN: the pointer-vs-columnar differential grid (byte-identical
# results across backends × batch sizes), the plan-identity test (Explain
# equal across backends), the DocumentStore accessor parity + save/load
# round-trip suite, and the loader robustness corpus (truncations, bit
# flips, header lies and malformed trees on persisted images). It is
# single-threaded; no TSAN leg is needed beyond the main matrix.
set -euo pipefail
cd "$(dirname "$0")/.."

run_config() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$(nproc)"
  (cd "$dir" && ctest --output-on-failure -j "$(nproc)")
}

FAULT_FILTER='ExecFaultSweep.*:EngineGovernorTest.*:XmlParserRobustness.*'
BACKEND_FILTER='BackendDifferential.*:ColumnarStore.*:ColumnarRobustness.*'
BACKEND_FILTER="$BACKEND_FILTER:EngineBackendPlanTest.*"
SERVER_FILTER='ServerTest.*:ServerDifferentialTest.*:ServerFrameRobustness.*'
SERVER_FILTER="$SERVER_FILTER:WireCodes.*:AdmissionControl.*"
TORTURE_FILTER='*EngineConcurrencyTest*:ServerTest.*:AdmissionControl.*'
CHAOS_FILTER='RetryPolicy.*:DegradationLadder.*:SessionReaper.*:StatsFrame.*'
CHAOS_FILTER="$CHAOS_FILTER:DeadlinePropagation.*:ChaosProxy.*:KillRestart.*"
CHAOS_FILTER="$CHAOS_FILTER:ErrorDetailCompat.*"

if [[ "${1:-}" == "--static-analysis" ]]; then
  # The capability annotations (src/common/thread_annotations.h) only arm
  # under clang; GCC compiles them away. This leg is what the CI clang job
  # runs — locally it needs a clang toolchain on PATH.
  if command -v clang++ >/dev/null 2>&1; then
    echo "== clang build (-Wthread-safety as errors) + full suite =="
    cmake -B build-clang -S . -DCMAKE_CXX_COMPILER=clang++
    cmake --build build-clang -j "$(nproc)"
    (cd build-clang && ctest --output-on-failure -j "$(nproc)")
  else
    echo "clang++ not installed; skipping thread-safety analysis leg" \
         "(the CI clang job enforces it)"
  fi

  echo "== lint (clang-tidy) =="
  if command -v clang-tidy >/dev/null 2>&1; then
    cmake -B build -S .
    if command -v run-clang-tidy >/dev/null 2>&1; then
      run-clang-tidy -p build -quiet "src/.*\.cc$"
    else
      find src -name '*.cc' -print0 |
        xargs -0 -n 1 -P "$(nproc)" clang-tidy -p build --quiet
    fi
  else
    echo "clang-tidy not installed; skipping lint leg"
  fi

  echo "Static-analysis checks passed."
  exit 0
fi

if [[ "${1:-}" == "--perfbench" ]]; then
  # perfbench/ keeps its own copy of the query pipeline (a traced replay of
  # Engine::Run) and calls the engine's public pieces directly; its tests
  # catch a change to those APIs or a replay that no longer matches
  # Engine::Run byte for byte.
  echo "== perfbench harness tests (Release) =="
  python3 perfbench/run.py --test

  echo "Perfbench checks passed."
  exit 0
fi

if [[ "${1:-}" == "--server-sweep" ]]; then
  echo "== server suite (normal configuration) =="
  cmake -B build -S .
  cmake --build build -j "$(nproc)"
  ./build/tests/uload_tests \
    --gtest_filter="$SERVER_FILTER:*EngineConcurrencyTest*"

  echo "== frame robustness + server suite under ASAN/UBSAN =="
  cmake -B build-asan -S . -DASAN=ON
  cmake --build build-asan -j "$(nproc)"
  ./build-asan/tests/uload_tests --gtest_filter="$SERVER_FILTER"

  echo "== concurrency torture under TSAN =="
  cmake -B build-tsan -S . -DTSAN=ON
  cmake --build build-tsan -j "$(nproc)"
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/uload_tests \
    --gtest_filter="$TORTURE_FILTER"

  echo "== throughput bench smoke (Release) =="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j "$(nproc)" --target bench_server_throughput
  ./build-release/bench/bench_server_throughput --smoke

  echo "Server-sweep checks passed."
  exit 0
fi

if [[ "${1:-}" == "--chaos-sweep" ]]; then
  echo "== chaos/resilience suite (normal configuration) =="
  cmake -B build -S .
  cmake --build build -j "$(nproc)"
  ./build/tests/uload_tests --gtest_filter="$CHAOS_FILTER"

  echo "== chaos/resilience suite under ASAN/UBSAN =="
  cmake -B build-asan -S . -DASAN=ON
  cmake --build build-asan -j "$(nproc)"
  ./build-asan/tests/uload_tests --gtest_filter="$CHAOS_FILTER"

  echo "== chaos/resilience suite under TSAN =="
  # The fork-based KillRestart test self-skips under TSAN.
  cmake -B build-tsan -S . -DTSAN=ON
  cmake --build build-tsan -j "$(nproc)"
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/uload_tests \
    --gtest_filter="$CHAOS_FILTER"

  echo "== overload bench row (Release): ladder on vs off =="
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j "$(nproc)" --target bench_server_throughput
  ./build-release/bench/bench_server_throughput --overload

  echo "Chaos-sweep checks passed."
  exit 0
fi

if [[ "${1:-}" == "--backend-sweep" ]]; then
  echo "== backend sweep under ASAN/UBSAN =="
  cmake -B build-asan -S . -DASAN=ON
  cmake --build build-asan -j "$(nproc)"
  ./build-asan/tests/uload_tests --gtest_filter="$BACKEND_FILTER"

  echo "Backend-sweep checks passed."
  exit 0
fi

if [[ "${1:-}" == "--fault-injection" ]]; then
  echo "== fault injection under ASAN/UBSAN =="
  cmake -B build-asan -S . -DASAN=ON
  cmake --build build-asan -j "$(nproc)"
  ./build-asan/tests/uload_tests --gtest_filter="$FAULT_FILTER"

  echo "== fault injection under TSAN =="
  cmake -B build-tsan -S . -DTSAN=ON
  cmake --build build-tsan -j "$(nproc)"
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/uload_tests \
    --gtest_filter="$FAULT_FILTER"

  echo "Fault-injection checks passed."
  exit 0
fi

echo "== normal configuration =="
run_config build

if [[ "${1:-}" != "fast" ]]; then
  echo "== lint (clang-tidy) =="
  # Any new diagnostic from the strict families in .clang-tidy fails the
  # build (WarningsAsErrors); readability-braces stays advisory.
  if command -v clang-tidy >/dev/null 2>&1; then
    if command -v run-clang-tidy >/dev/null 2>&1; then
      run-clang-tidy -p build -quiet "src/.*\.cc$"
    else
      find src -name '*.cc' -print0 |
        xargs -0 -n 1 -P "$(nproc)" clang-tidy -p build --quiet
    fi
  else
    echo "clang-tidy not installed; skipping lint leg"
  fi

  echo "== bench smoke (Release) =="
  # Build every bench target in Release so bench sources can't rot, then run
  # the end-to-end query bench for one iteration over a tiny document — it
  # doubles as a Release-mode differential check (every answer against the
  # direct XQuery interpreter) — and print the storage-model plan and
  # footprint tables (E7, E12) without running the timed benchmarks.
  cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-release -j "$(nproc)" --target benches
  ./build-release/bench/bench_query_e2e --smoke
  ./build-release/bench/bench_storage_models --benchmark_filter='^$'

  echo "== ASAN/UBSAN configuration =="
  run_config build-asan -DASAN=ON

  echo "== TSAN configuration (executor tests) =="
  cmake -B build-tsan -S . -DTSAN=ON
  cmake --build build-tsan -j "$(nproc)"
  TSAN_OPTIONS=halt_on_error=1 ./build-tsan/tests/uload_tests \
    --gtest_filter='*Physical*:*Exec*:*Engine*:*IndexScan*:*Server*:*Fusion*:*Mutex*:*Chaos*:*Retry*:*RewriterReuse*'
fi

echo "All checks passed."
