#!/usr/bin/env bash
# Full verification gate: formatting, lints, release build, tests.
# CI runs exactly this script; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"

# threads_invariant <bin> <artifact> [--quick]: runs the release binary in
# a scratch dir at --threads 1, then 2/4/0, and requires byte-identical
# artifacts. A full run (no --quick) must also reproduce the artifact
# committed at the repo root; --quick shapes are smaller than it.
threads_invariant() {
  local bin="$1" artifact="$2" quick="${3:-}" dir t
  dir="$(mktemp -d)"
  for t in 1 2 4 0; do
    (cd "$dir" && "$root/target/release/$bin" $quick --threads "$t" > /dev/null)
    test -f "$dir/$artifact" || {
      echo "$bin wrote no $artifact" >&2
      exit 1
    }
    if [ "$t" = 1 ]; then
      mv "$dir/$artifact" "$dir/t1.json"
    else
      cmp -s "$dir/t1.json" "$dir/$artifact" || {
        echo "$artifact differs between --threads 1 and --threads $t" >&2
        diff "$dir/t1.json" "$dir/$artifact" >&2 || true
        exit 1
      }
    fi
  done
  if [ -z "$quick" ]; then
    cmp -s "$dir/t1.json" "$artifact" || {
      echo "the committed $artifact is not what $bin writes (run scripts/regen_goldens.sh):" >&2
      diff "$dir/t1.json" "$artifact" >&2 || true
      exit 1
    }
  fi
  rm -rf "$dir"
}

# A source file up to its `#[cfg(test)]` module.
nontest_awk='/^#\[cfg\(test\)\]/{exit} {print}'

# nontest_lines <dir>...: non-test Rust lines under the given source dirs.
nontest_lines() {
  find "$@" -name '*.rs' -print0 | xargs -0 -n1 awk "$nontest_awk" | wc -l
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> structure: a log carries no scope (DESIGN §3.16)"
# Which statuses a stored log records is Repository::touch_index's to say;
# ObjectLog keeping a copy (a `touched` set, a `scoped` flag) is the
# three-way redundancy PR 21 removed.
if awk "$nontest_awk" crates/replication/src/types.rs | grep -nE '\btouched\b|\bscoped\b'; then
  echo "crates/replication/src/types.rs names a scope outside its tests (lines above)" >&2
  exit 1
fi

echo "==> structure: a wire layout is declared once (DESIGN §0)"
# `put` and `take` come from one field list per type (`wire!`), so a field
# name appears once per type that has it: `durable` in ReadLog, `begin_ts`
# in ReadLog and LogEntry. A hand-written direction would name them again.
wire_src="$(awk "$nontest_awk" crates/net/src/wire.rs)"
for want in durable:1 begin_ts:2; do
  word="${want%:*}"
  found="$(echo "$wire_src" | grep -cw "$word" || true)"
  if [ "$found" != "${want#*:}" ]; then
    echo "crates/net/src/wire.rs names $word on $found non-test lines, not ${want#*:}:" >&2
    echo "$wire_src" | grep -nw "$word" >&2
    exit 1
  fi
done

echo "==> structure: a trace kind label is written once (DESIGN §0)"
# `kind()` and the rendering both come from the `trace_actions!` rows
# (`Variant "label" {`), so outside the label enums' `Variant => "label",`
# rows (`conflict` and `stale-epoch` are an event kind *and* an abort
# cause) each label opens exactly one string literal.
trace_src="$(awk "$nontest_awk" crates/sim/src/trace.rs \
  | grep -vE '^ *[A-Z][A-Za-z]* => "[a-z-]+",$')"
labels="$(echo "$trace_src" | sed -nE 's/^ *[A-Z][A-Za-z]* "([a-z-]+)"( \{|,)$/\1/p')"
[ "$(echo "$labels" | wc -l)" -ge 25 ] || {
  echo "crates/sim/src/trace.rs: fewer than 25 trace_actions! rows found" >&2
  exit 1
}
for label in $labels; do
  found="$(echo "$trace_src" | grep -cE "\"$label[\" ]" || true)"
  if [ "$found" != 1 ]; then
    echo "crates/sim/src/trace.rs writes the kind label \"$label\" $found times:" >&2
    echo "$trace_src" | grep -nE "\"$label[\" ]" >&2
    exit 1
  fi
done

echo "==> structure: a node is a Driver on every host (DESIGN §3.14)"
# The loop and the explorer both step `Driver::handle` with an `Io`; a
# second node trait, an adapter between the two, or a callback-per-input
# shim would make the audited run a translation of the served one again.
node_src="$(find crates/*/src src -name '*.rs' | sort | while read -r f; do
  awk -v f="$f" '/^#\[cfg\(test\)\]/{exit} {print f ":" FNR ": " $0}' "$f"
done)"
if echo "$node_src" | grep -E 'trait Process\b|DesAdapter|fn on_(start|message|timer)\b'; then
  echo "a second node abstraction outside tests (lines above)" >&2
  exit 1
fi
for decl in 'pub trait Driver<' 'pub trait Io<'; do
  found="$(echo "$node_src" | grep -cF "$decl" || true)"
  if [ "$found" != 1 ]; then
    echo "'$decl' is declared on $found non-test lines, not 1:" >&2
    echo "$node_src" | grep -F "$decl" >&2
    exit 1
  fi
done

echo "==> structure: one stepping loop, two transports (DESIGN §3.14)"
# sim::host::run is the one loop; host::Loopback (virtual time: the
# simulator) and the socket transports are what it runs over. The
# threads-and-channels host, the builder switch that chose it and the
# refusal its nondeterminism needed must not come back beside them.
if echo "$node_src" | grep -E 'ChannelTransport|BackendKind|run_channels|Unsupported|TICK_US|WALL_CAP'; then
  echo "a second real-time host or its backend switch outside tests (lines above)" >&2
  exit 1
fi
# Nor may the simulator's own loop: an event queue of its own, an `Io`
# of its own, or a run path beside `RunBuilder::run`'s. `CollectIo` is the
# one `Io`, and the loop is declared once, in quorumcc-sim.
if echo "$node_src" | grep -E 'struct Ctx\b|EventKind|fn run_des\b'; then
  echo "a second stepping loop outside tests (lines above)" >&2
  exit 1
fi
io_impls="$(echo "$node_src" | grep -E 'impl<[^>]*> Io<' || true)"
if [ "$(echo "$io_impls" | grep -c . || true)" != 1 ] || ! echo "$io_impls" | grep -q 'for CollectIo<'; then
  echo "Io is implemented on these non-test lines, not once on CollectIo:" >&2
  echo "$io_impls" >&2
  exit 1
fi
loops="$(echo "$node_src" | grep -F 'pub fn run<' || true)"
if [ "$(echo "$loops" | grep -c . || true)" != 1 ] || ! echo "$loops" | grep -q '^crates/sim/src/'; then
  echo "'pub fn run<' is declared on these non-test lines, not once in quorumcc-sim:" >&2
  echo "$loops" >&2
  exit 1
fi

echo "==> structure: one persistent view per object (DESIGN §3.11)"
# A read round syncs and joins the object's View (replication/src/view.rs) over
# what its mirrors disagree on, and the write is cut from it. A view merged
# from blank per operation, or a whole-log `minus` beside the view, is the
# per-operation rebuild the view replaced.
if awk "$nontest_awk" crates/replication/src/client.rs | grep -nE '\.minus\(|merged: ObjectLog'; then
  echo "crates/replication/src/client.rs rebuilds a view outside its tests (lines above)" >&2
  exit 1
fi
# A client holds one log per object: each site's mirror is a column of the
# view's disagreement set, not a `VersionedLog` of its own, and what drops
# from a mirror is diffed into its column rather than making the view whole.
if awk "$nontest_awk" crates/replication/src/client.rs | grep -nE 'VersionedLog|mirrors'; then
  echo "crates/replication/src/client.rs keeps mirrors beside its views (lines above)" >&2
  exit 1
fi
if awk "$nontest_awk" crates/replication/src/view.rs | grep -n 'whole'; then
  echo "crates/replication/src/view.rs has a whole view outside its tests (lines above)" >&2
  exit 1
fi

echo "==> structure: unsafe lives in one module (DESIGN §3.16)"
# `net::ready` declares ppoll(2) for the socket transports; it is the one
# place the tree may say `unsafe` in code (comments stripped, so
# `forbid(unsafe_code)` and prose about unsafe protocols do not count).
if echo "$node_src" | grep -v '^crates/net/src/ready\.rs:' | sed -E 's#//.*$##' | grep -wE 'unsafe'; then
  echo "unsafe code outside crates/net/src/ready.rs (lines above)" >&2
  exit 1
fi

echo "==> structure: the socket transports wake on readiness alone (DESIGN §3.16, §3.17)"
# Both transports idle in ready::wait on their own sockets. A reader
# thread, a channel between threads, or a sleep ladder would be a second
# way to wake beside it.
if awk "$nontest_awk" crates/net/src/load/sockets.rs \
  | grep -nE 'thread::spawn|mpsc|recv_timeout|POLL_MIN|idle_turns'; then
  echo "crates/net/src/load/sockets.rs wakes some other way outside its tests (lines above)" >&2
  exit 1
fi

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

echo "==> cargo doc (deny warnings, first-party crates)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
  -p quorumcc -p quorumcc-model -p quorumcc-adts -p quorumcc-core \
  -p quorumcc-quorum -p quorumcc-sim -p quorumcc-replication \
  -p quorumcc-net -p quorumcc-bench

echo "==> quorumcc-perf: the benchmark package builds and passes against this tree"
# perf/ is a workspace of its own that restates private seed derivations
# of net::load by hand; it must compile and replay untouched, and building
# it must not rewrite its lock file.
cargo test -q --release --offline --manifest-path perf/Cargo.toml
git diff --quiet -- perf BENCHMARK.json || {
  echo "building quorumcc-perf changed files under perf/ (or BENCHMARK.json):" >&2
  git status --short -- perf BENCHMARK.json >&2
  exit 1
}

echo "==> simulator suite: shared-object, hostile-network and determinism runs on host::run over Loopback"
cargo test -q --release -p quorumcc-replication --test backends > /dev/null

echo "==> qcc trace smoke run"
trace_out="$(cargo run -q --bin qcc -- trace queue --mode hybrid --clients 2 --txns 2 --action commit)"
echo "$trace_out" | grep -q "commit action=" || {
  echo "qcc trace produced no commit events:" >&2
  echo "$trace_out" >&2
  exit 1
}
echo "$trace_out" | grep -q "op latency" || {
  echo "qcc trace produced no latency summary" >&2
  exit 1
}

echo "==> qcc compact-logs smoke run (outcomes must match full shipping)"
compact_out="$(cargo run -q --bin qcc -- simulate queue --compact-logs true)"
full_out="$(cargo run -q --bin qcc -- simulate queue --delta false)"
echo "$compact_out" | grep -q "atomicity check: OK" || {
  echo "qcc simulate --compact-logs true failed the atomicity check:" >&2
  echo "$compact_out" >&2
  exit 1
}
compact_decisions="$(echo "$compact_out" | grep '^mode ')"
full_decisions="$(echo "$full_out" | grep '^mode ')"
if [ "$compact_decisions" != "$full_decisions" ]; then
  echo "compacted and full-shipping runs decided differently:" >&2
  echo "  compact: $compact_decisions" >&2
  echo "  full:    $full_decisions" >&2
  exit 1
fi

echo "==> qcc reconfig smoke run"
reconfig_out="$(cargo run -q --bin qcc -- reconfig prom --sites 5 --lost 4 --relation hybrid --priority Read,Write)"
echo "$reconfig_out" | grep -q "replanned quorum sizes" || {
  echo "qcc reconfig produced no replanned sizes:" >&2
  echo "$reconfig_out" >&2
  exit 1
}

echo "==> exp_reconfig smoke run (asserts hybrid replans beat static)"
# From a scratch dir: the binary writes its artifact into the working
# directory, and the committed one records a wall-clock phase time.
reconfig_scratch="$(mktemp -d)"
(cd "$reconfig_scratch" && "$root/target/release/exp_reconfig" > /dev/null)
test -f "$reconfig_scratch/BENCH_exp_reconfig.json" || {
  echo "exp_reconfig wrote no BENCH_exp_reconfig.json" >&2
  exit 1
}
rm -rf "$reconfig_scratch"

echo "==> chaos smoke: 200-plan sweep must pass the safety oracle"
chaos_out="$(cargo run -q --release --bin qcc -- chaos queue --seed 7 --runs 200)"
echo "$chaos_out" | grep -q "safety oracle: OK on all 200 runs" || {
  echo "qcc chaos found a safety violation (or produced no verdict):" >&2
  echo "$chaos_out" >&2
  exit 1
}

echo "==> chaos smoke: sweep output byte-identical at --threads 1/2/4/0"
for t in 1 2 4 0; do
  cargo run -q --release --bin qcc -- chaos queue --seed 7 --runs 200 --threads "$t" \
    > "/tmp/chaos_sweep_t$t.txt"
done
for t in 2 4 0; do
  cmp -s /tmp/chaos_sweep_t1.txt "/tmp/chaos_sweep_t$t.txt" || {
    echo "chaos sweep differs between --threads 1 and --threads $t" >&2
    diff /tmp/chaos_sweep_t1.txt "/tmp/chaos_sweep_t$t.txt" >&2 || true
    exit 1
  }
done

# Golden shrunk plan from the oracle's injected-bug self-test (see
# DESIGN.md §3.12): replaying it must flag a violation with the bug
# injected, stay clean without it, and render identically at every
# thread-independent invocation.
golden_plan='seed=13553989110192001924;net=1,10,0,0.05,0;dur=stable;compact=0;ae=0;fan=n'
echo "==> chaos smoke: golden shrunk-plan replay"
replay_unsound="$(cargo run -q --release --bin qcc -- chaos queue \
  --clients 2 --txns 2 --ops 1 --unsound-weaken-read-quorum true \
  --replay "$golden_plan" || true)"
echo "$replay_unsound" | grep -q "non-atomic history" || {
  echo "golden shrunk plan no longer reproduces under the injected bug:" >&2
  echo "$replay_unsound" >&2
  exit 1
}
replay_sound="$(cargo run -q --release --bin qcc -- chaos queue \
  --clients 2 --txns 2 --ops 1 --replay "$golden_plan")"
echo "$replay_sound" | grep -q "safety oracle: OK" || {
  echo "golden plan violates safety even without the injected bug:" >&2
  echo "$replay_sound" >&2
  exit 1
}

echo "==> chaos acceptance sweep: 600 plans, zero violations"
cargo test -q --release -p quorumcc-replication --test chaos \
  chaos_sweep_600_plans_is_violation_free -- --ignored > /dev/null

echo "==> exp_chaos: BENCH_exp_chaos.json byte-identical at --threads 1/2/4/0"
threads_invariant exp_chaos BENCH_exp_chaos.json

echo "==> chaos smoke: 200-plan sweep with sharding + batching enabled"
chaos_tp="$(cargo run -q --release --bin qcc -- chaos queue --seed 11 --runs 200 --objects 8 --shards 4 --batch 4)"
echo "$chaos_tp" | grep -q "safety oracle: OK on all 200 runs" || {
  echo "chaos sweep with shards=4 batch=4 found a safety violation (or no verdict):" >&2
  echo "$chaos_tp" >&2
  exit 1
}

echo "==> batched-vs-unbatched decision gate (structural A/B, all three modes)"
cargo test -q --release -p quorumcc-replication --test batching \
  batched_and_unbatched_decide_identically_at_low_contention > /dev/null

echo "==> exp_scale: sweep gates + BENCH_exp_scale.json byte-identical at --threads 1/2/4/0"
threads_invariant exp_scale BENCH_exp_scale.json

echo "==> exp_load quick smoke: real-socket fleet, bounded shape"
# Wall-clock SLOs — BENCH_exp_load.json is the one bench artifact that
# is *not* byte-stable (DESIGN.md §3.14), so the gate is the binary's
# internal asserts (zero unfinished, >=90% commits) plus JSON presence.
# Quick mode is a smaller shape than the committed artifact, so run from
# a scratch dir instead of clobbering the repo-root json.
load_scratch="$(mktemp -d)"
(cd "$load_scratch" && "$OLDPWD/target/release/exp_load" --quick > /dev/null)
test -f "$load_scratch/BENCH_exp_load.json" || {
  echo "exp_load wrote no BENCH_exp_load.json" >&2
  exit 1
}
rm -rf "$load_scratch"

echo "==> explore smoke: sound 2x1 shape is exhaustively clean"
explore_out="$(cargo run -q --release --bin qcc -- explore queue --sites 2 --clients 1 --depth 12)"
echo "$explore_out" | grep -q "safety oracle: OK on every schedule to depth 12" || {
  echo "qcc explore did not complete the sound 2x1 shape:" >&2
  echo "$explore_out" >&2
  exit 1
}

echo "==> explore smoke: both planted bugs found with minimal replayable witnesses"
# skip-final-ack: a lost write five events deep at two sites.
skipack_out="$(cargo run -q --release --bin qcc -- explore queue \
  --sites 2 --clients 2 --depth 40 --unsound-skip-final-ack true || true)"
echo "$skipack_out" | grep -q "safety VIOLATION at depth 5: lost write" || {
  echo "explore missed the skip-final-ack planted bug (or depth changed):" >&2
  echo "$skipack_out" >&2
  exit 1
}
# weaken-read-quorum: unobservable at 2 sites (1+2 > 2); minimal shape is
# 3 sites + narrow fan-out (DESIGN.md §3.15).
weaken_out="$(cargo run -q --release --bin qcc -- explore queue \
  --sites 3 --clients 2 --fan n --depth 40 --unsound-weaken-read-quorum true || true)"
echo "$weaken_out" | grep -q "safety VIOLATION at depth 18" || {
  echo "explore missed the weaken-read-quorum planted bug (or depth changed):" >&2
  echo "$weaken_out" >&2
  exit 1
}
# The printed witness spec replays to the same verdict.
witness_spec="$(echo "$skipack_out" | sed -n "s/^witness: //p")"
replay_out="$(cargo run -q --release --bin qcc -- explore queue --replay "$witness_spec" || true)"
echo "$replay_out" | grep -q "safety VIOLATION: lost write" || {
  echo "explore witness spec did not replay to the same violation:" >&2
  echo "$replay_out" >&2
  exit 1
}

# A fault-budgeted spec: its schedule indexes a Crash choice that exists
# only under `crashes=1`, so it replays only if the budget travels with it.
crash_spec='mode=hybrid;sites=2;clients=1;txns=1;ops=1;objects=1;seed=0;depth=30;por=1;crashes=1;knob=none;sched=0.0.2.0.0.0.1.0.0.0.0.0.0.0.0.0.0.0.0'
crash_out="$(cargo run -q --release --bin qcc -- explore queue --replay "$crash_spec")"
echo "$crash_out" | grep -q "recover p=0" &&
  echo "$crash_out" | grep -q "safety oracle: OK on the replayed schedule" || {
  echo "the crashes=1 witness spec did not replay its crash and recovery cleanly:" >&2
  echo "$crash_out" >&2
  exit 1
}

echo "==> exp_explore quick: POR gate + BENCH_exp_explore.json byte-identical at --threads 1/2/4/0"
threads_invariant exp_explore BENCH_exp_explore.json --quick

echo "==> qcc load smoke: tiny fleet through the CLI"
load_out="$(cargo run -q --release --bin qcc -- load --clients 40 --cells 2 --objects 16 --ramp-ms 100)"
echo "$load_out" | grep -q '"unfinished": 0' || {
  echo "qcc load left clients unfinished:" >&2
  echo "$load_out" >&2
  exit 1
}

echo "==> qcc load smoke: scoped shipping + status GC"
evl_out="$(cargo run -q --release --bin qcc -- load --clients 40 --cells 2 --objects 16 \
  --ramp-ms 100 --scoped true --gc 8)"
echo "$evl_out" | grep -q '"unfinished": 0' || {
  echo "qcc load --scoped true --gc 8 left clients unfinished:" >&2
  echo "$evl_out" >&2
  exit 1
}
echo "$evl_out" | grep -q '"backend": "eventloop"' || {
  echo "qcc load did not label the host in its json:" >&2
  echo "$evl_out" >&2
  exit 1
}

echo "==> qcc load smoke: lossy fault shims + frontier repair + scripted crash"
lossy_out="$(cargo run -q --release --bin qcc -- load --clients 24 --cells 1 --objects 256 \
  --txns 40 --scoped true --gc 4 --narrow false --deq 0.0 \
  --fault-profile lossy --retransmit-ms 250 --crash 2:200:200)"
echo "$lossy_out" | grep -q '"unfinished": 0' || {
  echo "qcc load under lossy shims + crash left clients unfinished:" >&2
  echo "$lossy_out" >&2
  exit 1
}
echo "$lossy_out" | grep -q '"recoveries": 1' || {
  echo "qcc load scripted crash never recovered:" >&2
  echo "$lossy_out" >&2
  exit 1
}

echo "==> recovery property suite (frontier idempotence + decisions unmoved by retransmit)"
cargo test -q --release -p quorumcc-replication --test recovery > /dev/null

echo "==> gossip A/B decision-identity suite (scoped+GC vs full shipping, 3 ADTs x 3 modes + GC chaos sweep)"
cargo test -q --release -p quorumcc-replication --test gossip > /dev/null

echo "==> exp_gossip: flat-curve gates + BENCH_exp_gossip.json byte-identical at --threads 1/2/4/0"
cargo run -q --release -p quorumcc-bench --bin exp_gossip -- --quick > /dev/null
threads_invariant exp_gossip BENCH_exp_gossip.json

echo "==> goldens: the four thread-invariant artifacts match scripts/goldens.md5"
# exp_scale, exp_chaos and exp_gossip were reproduced in full above;
# exp_explore ran --quick, so its committed file answers to the stamp alone.
md5sum -c --quiet scripts/goldens.md5

echo "==> every BENCH_*.json in the tree parses"
if command -v python3 > /dev/null; then
  for f in BENCH_*.json; do
    python3 -m json.tool "$f" > /dev/null || {
      echo "$f is not well-formed JSON" >&2
      exit 1
    }
  done
else
  echo "    python3 not found: gate skipped"
fi

echo "==> exp_recovery quick: recovery gates + BENCH_exp_recovery.json byte-identical at --threads 1/2/4/0"
# DES and loopback telemetry is deterministic; the eventloop phase records
# only asserted booleans, so the whole artifact is byte-stable.
threads_invariant exp_recovery BENCH_exp_recovery.json --quick

echo "==> batching bench smoke run"
batch_bench_out="$(cargo bench -q -p quorumcc-bench --bench batching 2>&1)"
echo "$batch_bench_out" | grep -q "quorum_round/batched" || {
  echo "batching bench produced no batched timing:" >&2
  echo "$batch_bench_out" >&2
  exit 1
}

echo "==> log_shipping bench smoke run"
bench_out="$(cargo bench -q -p quorumcc-bench --bench log_shipping 2>&1)"
echo "$bench_out" | grep -q "log_shipping/1024/delta_reply" || {
  echo "log_shipping bench produced no delta_reply timing:" >&2
  echo "$bench_out" >&2
  exit 1
}
# The same binary carries the perf ledger's `Repository::handle(Resolve)`,
# `handle(WriteLog)`, GC sweep, `Protocol::evaluate_from` and read-round rows.
for row in repository_resolve/8192_logs repository_writelog/800_entries/delta \
  repository_gc_sweep/256_logs repository_gc_sweep/800_entries \
  protocol_evaluate/800_entries/incremental client_read_round/800_entries/persistent \
  client_read_round/25_entries/persistent; do
  echo "$bench_out" | grep -q "$row" || {
    echo "log_shipping bench produced no $row timing:" >&2
    echo "$bench_out" >&2
    exit 1
  }
done

echo "==> non-test Rust lines per crate (ROADMAP aim 2: smaller is better)"
parent_dir=""
if git rev-parse -q --verify 'HEAD~1^{commit}' > /dev/null 2>&1; then
  parent_dir="$(mktemp -d)"
  git archive HEAD~1 crates src | tar -x -C "$parent_dir"
else
  echo "(no HEAD~1 here: parent column skipped)"
fi
# count_row <label> <src dir>...: one row of the table below.
count_row() {
  local label="$1" tree parent="-" delta="-"
  shift
  tree="$(nontest_lines "$@")"
  if [ -n "$parent_dir" ] && (cd "$parent_dir" && ls -d "$@" > /dev/null 2>&1); then
    parent="$(cd "$parent_dir" && nontest_lines "$@")"
    delta="$((tree - parent))"
  fi
  printf '%-22s %8s %8s %6s\n' "$label" "$parent" "$tree" "$delta"
}
printf '%-22s %8s %8s %6s\n' crate HEAD~1 tree delta
for src in crates/*/src src; do
  count_row "${src%/src}" "$src"
done
count_row total crates/*/src src
[ -z "$parent_dir" ] || rm -rf "$parent_dir"

echo "verify.sh: all gates passed in ${SECONDS}s"
