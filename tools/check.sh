#!/bin/sh
# tools/check.sh — the tier-1 verification gate plus a sanitizer pass.
#
#   1. configure + build the default (Release-ish) tree in build/,
#   2. run the full ctest suite (unit tests, lint, determinism gates),
#   3. run the semantic analyzer (memfs_analyze) over the whole repo and
#      fail on any unsuppressed finding,
#   4. configure + build with -DMEMFS_SANITIZE=address,undefined in
#      build-asan/ and re-run the determinism gates under the sanitizers
#      (this includes the elastic join/drain rebalancing gate: same-seed
#      runs with a mid-traffic join + drain must produce identical event
#      digests with zero lost reads),
#   5. configure + build with -DMEMFS_SANITIZE=thread in build-tsan/ and
#      re-run the determinism gates under TSan (skipped with a notice when
#      the toolchain has no libtsan).
#
# Usage: tools/check.sh [jobs]   (default: nproc)
#
# Any failing step aborts the script with a nonzero exit.
set -eu

jobs="${1:-$(nproc 2>/dev/null || echo 4)}"
root="$(cd "$(dirname "$0")/.." && pwd)"

echo "== tier 1: configure + build (${jobs} jobs) =="
cmake -S "$root" -B "$root/build" >/dev/null
cmake --build "$root/build" -j "$jobs"

echo "== tier 1: ctest =="
ctest --test-dir "$root/build" --output-on-failure

echo "== static analysis: memfs_analyze =="
"$root/build/tools/memfs_analyze" --stats \
  "$root/src" "$root/tools" "$root/bench" "$root/tests"

# Simulator speed gate: re-run the fig08 64-node point and compare it against
# the committed BENCH_scale.json trajectory. Fails on a >20% sim-events/sec
# regression, or when heap allocations per simulated event exceed the
# baseline's by more than 5% (allocation counts repeat exactly, so that gate
# holds on any hardware). On hardware slower than the baseline's, widen the
# speed gate with MEMFS_PERF_GATE_TOLERANCE (e.g. 0.5) instead of skipping
# it.
echo "== perf gate: fig08 64-node sim-events/sec + allocs/event vs BENCH_scale.json =="
"$root/build/bench/micro_latency_profile" --scale \
  --baseline="$root/BENCH_scale.json" > /dev/null

echo "== sanitizers: configure + build (address,undefined) =="
cmake -S "$root" -B "$root/build-asan" \
  -DMEMFS_SANITIZE=address,undefined >/dev/null
cmake --build "$root/build-asan" -j "$jobs"

echo "== sanitizers: determinism gates =="
ctest --test-dir "$root/build-asan" -L determinism --output-on-failure

# The event-cell slab, the same-instant ready ring, future waiter storage and
# the frame pool run under ASan/UBSan here (the pool's free lists bypass to
# plain new/delete under sanitizers so every frame keeps its true lifetime —
# the slab and the ring do not bypass and are fully checked).
echo "== sanitizers: event queue + futures + frame pool tests =="
ctest --test-dir "$root/build-asan" \
  -R 'EventHeap|ReadyQueue|FutureTest|PoolAlloc|SimChecker' \
  --output-on-failure

# TSan and ASan cannot live in one binary, so thread gets its own tree.
# Probe first: some toolchains ship without libtsan.
if printf 'int main(){return 0;}' | \
   c++ -fsanitize=thread -x c++ - -o /tmp/memfs_tsan_probe 2>/dev/null; then
  rm -f /tmp/memfs_tsan_probe
  echo "== sanitizers: configure + build (thread) =="
  cmake -S "$root" -B "$root/build-tsan" -DMEMFS_SANITIZE=thread >/dev/null
  cmake --build "$root/build-tsan" -j "$jobs"

  echo "== sanitizers: determinism gates under TSan =="
  ctest --test-dir "$root/build-tsan" -L determinism --output-on-failure

  echo "== sanitizers: event queue + futures + frame pool tests under TSan =="
  ctest --test-dir "$root/build-tsan" \
    -R 'EventHeap|ReadyQueue|FutureTest|PoolAlloc|SimChecker' \
    --output-on-failure
else
  echo "== sanitizers: thread skipped (toolchain has no libtsan) =="
fi

echo "check.sh: all gates passed"
