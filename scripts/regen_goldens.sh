#!/usr/bin/env bash
# Regenerate every deterministic artifact (the committed BENCH_*.json
# files) and stamp the md5s of the byte-stable ones into
# scripts/goldens.md5, which verify.sh checks with `md5sum -c`.
#
# Only four artifacts are byte-stable: exp_scale, exp_chaos, exp_explore
# and exp_gossip record logical quantities alone. The other ten embed
# wall-clock `phases_ms`, so their bytes change on every run; they are
# regenerated here but not stamped.
#
# Protocol changes that alter message bytes (e.g. scoped status
# shipping + status GC, DESIGN.md §3.16) legitimately change these
# artifacts. The rule for regenerating: the A/B decision-identity
# suite must be green FIRST — scoped+GC has to commit/abort
# identically to full shipping across Queue/PROM/FlagSet × all three
# modes before new bytes may become the golden. This script enforces
# that ordering; never hand-edit a BENCH json or the stamp file.
#
# BENCH_exp_load.json is wall-clock (not byte-stable) and is NOT
# regenerated or stamped here; refresh it with a manual full
# `exp_load` run when the harness changes (EXPERIMENTS.md §L2).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> gate: A/B decision-identity suite (scoped+GC vs full shipping)"
cargo test -q --release -p quorumcc-replication --test gossip > /dev/null

echo "==> cargo build --release"
cargo build -q --release --workspace

# Every deterministic artifact, in dependency-free order. Each binary
# rewrites its own BENCH_<id>.json in the repo root and asserts its
# internal gates (including --threads byte-identity where applicable).
stamped=(exp_scale exp_chaos exp_explore exp_gossip)
deterministic=(
  fig_1_1
  fig_1_2
  table_queue
  table_prom
  table_flagset
  table_doublebuffer
  table_gifford
  exp_availability
  exp_concurrency
  exp_reconfig
  "${stamped[@]}"
)

for bin in "${deterministic[@]}"; do
  echo "==> regen: $bin"
  "./target/release/$bin" > /dev/null
done

echo "==> stamping scripts/goldens.md5"
{
  echo "# md5s of the byte-stable golden artifacts (no wall-clock fields)."
  echo "# Regenerate with scripts/regen_goldens.sh; do not hand-edit."
  for bin in "${stamped[@]}"; do
    md5sum "BENCH_${bin}.json"
  done
} > scripts/goldens.md5

echo "regen_goldens.sh: regenerated ${#deterministic[@]} artifacts, stamped ${#stamped[@]}"
git --no-pager diff --stat -- 'BENCH_*.json' scripts/goldens.md5 || true
