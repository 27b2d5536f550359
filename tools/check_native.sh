#!/usr/bin/env bash
# Dual-ISA guard: the suite must build and pass tier-1 BOTH with and
# without HYPERDOM_NATIVE. The scalar leg is the portable fallback every
# consumer gets by default; the native leg compiles the AVX2 kernel paths
# (and, via the bit-identity tests under the `simd` ctest label, proves
# they return the same bits as the scalar reference). Run from the repo
# root:
#
#   tools/check_native.sh            # both legs, full tier-1 each
#   tools/check_native.sh --simd     # both legs, `simd`-label tests only
#
# Uses the `default` and `native-verify` CMake presets for configure, build
# and test, so the build trees (build/, build-native-verify/) are shared
# with normal development.

set -euo pipefail
cd "$(dirname "$0")/.."

filter=()
if [[ "${1:-}" == "--simd" ]]; then
  filter=(-L simd)
  shift
fi
if [[ $# -gt 0 ]]; then
  echo "usage: tools/check_native.sh [--simd]" >&2
  exit 2
fi

jobs="$(nproc 2>/dev/null || echo 2)"

run_leg() {
  local preset="$1"
  echo "=== [check_native] configure+build+test: ${preset} ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  ctest --preset "${preset}" -j "${jobs}" "${filter[@]+"${filter[@]}"}"
}

run_leg default
run_leg native-verify

echo "=== [check_native] OK: scalar and native legs both green ==="
