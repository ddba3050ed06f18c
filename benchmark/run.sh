#!/usr/bin/env bash
# Run the whole benchmark (every workload, untraced then traced) from the
# repository root, so the root .cargo/config.toml (-C target-cpu=native)
# applies exactly as it does to the figure binaries. Arguments are passed
# through: --seed N, --seconds S, --out FILE, --workload W,
# --compare BASE NEW, --selfcheck.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- "$@"
