#!/bin/sh
# The full local gate: tier-1 tests (with the `alloc` label's
# allocation budget), the lint label, the forced-compaction pass
# (docs/WIRE_FORMAT.md), and the SKYWAY_ANALYZE build
# (docs/STATIC_ANALYSIS.md §5), in one command.
#
#   tools/check_all.sh [SOURCE_ROOT]
#
# Exits non-zero on the first failing stage. Uses clang++ for the
# analyze tree when available (full thread-safety analysis); falls
# back to the default compiler (-Werror only) otherwise.
set -eu

root=$(cd "${1:-$(dirname "$0")/..}" && pwd)
jobs=$(nproc 2>/dev/null || echo 2)

echo "== [1/5] configure + build (default flags) =="
cmake -B "$root/build" -S "$root"
cmake --build "$root/build" -j "$jobs"

echo "== [2/5] tier-1 test suite =="
ctest --test-dir "$root/build" --output-on-failure -j "$jobs"
# The allocation budget of the per-record paths (a counting operator
# new; skipped in sanitizer trees), named so a failure reads as one.
ctest --test-dir "$root/build" -L alloc --output-on-failure

echo "== [3/5] lint label =="
ctest --test-dir "$root/build" -L lint --output-on-failure

echo "== [4/5] forced-compaction suite (SKYWAY_WIRE_COMPACT=force) =="
# Every eligible record takes the compact encode/expand path, with the
# SkywaySan wire validator vetting both sides (docs/WIRE_FORMAT.md).
SKYWAY_WIRE_COMPACT=force SKYWAY_WIRE_CHECK=1 \
    ctest --test-dir "$root/build" --output-on-failure -j "$jobs"

echo "== [5/5] static-analysis build (SKYWAY_ANALYZE=ON) =="
if command -v clang++ >/dev/null 2>&1; then
    CXX=clang++ cmake -B "$root/build-analyze" -S "$root" \
        -DSKYWAY_ANALYZE=ON
else
    echo "clang++ not found: analyze tree degrades to -Werror" \
         "(thread-safety analysis needs clang; see" \
         "docs/STATIC_ANALYSIS.md)"
    cmake -B "$root/build-analyze" -S "$root" -DSKYWAY_ANALYZE=ON
fi
cmake --build "$root/build-analyze" -j "$jobs"

echo "check_all: all gates green"
