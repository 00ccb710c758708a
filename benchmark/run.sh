#!/usr/bin/env bash
# The polygen ledger: build the benchmark in release mode, then run it.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--repeat K]
#       every workload (or the one named), each in a process of its own,
#       plain run then traced run; one JSON report on standard output.
#       --repeat 2 runs the set twice on this build and exits non-zero if
#       the two sets disagree on an end-to-end metric by more than its bound.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run; its result is the last line of standard output.
#   benchmark/run.sh --list
#       every metric with layer, unit, direction and bound; runs nothing.
#   --smoke shrinks every size (rot detection only, no basis for a claim).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The harness's explicit options are the only configuration: neither
# knob may leak in from the caller's environment.
unset POLYGEN_THREADS POLYGEN_BATCH

# A caller's target directory is kept (a relative one stays relative to
# the caller's working directory); the default is the crate's own.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"

# Not --locked: a later change may add a crate under ../crates without
# being allowed to touch this directory's lock file.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

export LEDGER_OUT="$here/out"
export LEDGER_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export LEDGER_COMMIT="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"

exec "$CARGO_TARGET_DIR/release/ledger" "$@"
