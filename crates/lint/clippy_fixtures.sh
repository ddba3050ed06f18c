#!/usr/bin/env bash
# The clippy half of the determinism policy, checked against its fixtures.
#
# Eight DV-W rules live in clippy config (root clippy.toml, the per-crate
# copies, [workspace.lints.clippy], dv-switch's and dv-vic's crate
# attributes). For each, this script compiles `fixtures/wNNN_pos.rs` as a
# module of one crate in the rule's scope and asserts that
# `cargo clippy -p <crate> -- -D warnings` fails with the mapped lint, then
# asserts that `fixtures/wNNN_neg.rs` in the same place passes. The crate's
# lib.rs is restored afterwards, also on failure.
#
# Usage (from anywhere in the workspace): crates/lint/clippy_fixtures.sh
set -euo pipefail
cd "$(dirname "$0")/../.."

fixtures=crates/lint/fixtures
# rule  package     crate root             lint that must fire
checks=(
  "w001 dv-core     crates/core/src/lib.rs disallowed_types"
  "w002 dv-core     crates/core/src/lib.rs disallowed_methods"
  "w004 dv-vic      crates/vic/src/lib.rs  disallowed_types"
  "w006 dv-core     crates/core/src/lib.rs print_stdout"
  "w008 dv-core     crates/core/src/lib.rs disallowed_methods"
  "w009 datavortex  src/lib.rs             undocumented_unsafe_blocks"
  "w010 mini-mpi    crates/mpi/src/lib.rs  disallowed_methods"
  "w011 dv-vic      crates/vic/src/lib.rs  cast_possible_truncation"
)

backup=$(mktemp)
restore() {
  if [ -n "${lib:-}" ]; then
    cp "$backup" "$lib"
    rm -f "$(dirname "$lib")/dv_lint_fixture.rs"
  fi
}
trap 'restore; rm -f "$backup"' EXIT

clippy_on() { # <package> <fixture>: clippy's output with the fixture as a module
  cp "$fixtures/$2" "$(dirname "$lib")/dv_lint_fixture.rs"
  cp "$backup" "$lib"
  printf '\n#[allow(dead_code)]\nmod dv_lint_fixture;\n' >> "$lib"
  cargo clippy -q -p "$1" -- -D warnings 2>&1
}

failed=0
for check in "${checks[@]}"; do
  read -r rule pkg lib lint <<< "$check"
  cp "$lib" "$backup"
  if out=$(clippy_on "$pkg" "${rule}_pos.rs"); then
    echo "FAIL ${rule}_pos.rs: clippy passed in $pkg"
    failed=1
  elif ! grep -q "#$lint" <<< "$out"; then
    echo "FAIL ${rule}_pos.rs: clippy failed in $pkg, but not with $lint:"
    echo "$out"
    failed=1
  else
    echo "ok   ${rule}_pos.rs fails clippy in $pkg with $lint"
  fi
  if out=$(clippy_on "$pkg" "${rule}_neg.rs"); then
    echo "ok   ${rule}_neg.rs passes clippy in $pkg"
  else
    echo "FAIL ${rule}_neg.rs: clippy failed in $pkg:"
    echo "$out"
    failed=1
  fi
  restore
  lib=
done
exit "$failed"
