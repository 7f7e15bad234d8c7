#!/usr/bin/env bash
# The repo benchmark: builds benchmark/ offline, then runs it.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds N]
#                    [--trace 0|1 | --traced] [--quick] [--record] [--bless]
#
# See benchmark/README.md for what the flags, workloads and metrics mean.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Two benchmarks on two shared cores measure each other.
if pgrep -x rdmc-benchmark >/dev/null; then
  echo "run.sh: another rdmc-benchmark is running; refusing to measure next to it" >&2
  exit 3
fi
load="$(cut -d' ' -f1 /proc/loadavg)"
if awk -v load="$load" 'BEGIN { exit !(load > 0.5) }'; then
  echo "run.sh: warning: 1-minute load average is $load (> 0.5): timings will be noisy" >&2
fi

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"

commit="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git -C "$here" status --porcelain 2>/dev/null)" ]; then
  commit="$commit-dirty"
fi
export RDMC_BENCH_DIR="$here"
export RDMC_BENCH_COMMIT="$commit"
export RDMC_BENCH_DATE="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
exec "${CARGO_TARGET_DIR:-$here/target}/release/rdmc-benchmark" "$@"
