//! Criterion benches for the log-shipping transport: what one `LogReply`
//! costs to produce and absorb at log lengths 16 / 128 / 1024, under
//! full-clone shipping, delta shipping, and committed-prefix compaction.
//!
//! Four scenarios per length:
//!
//! * `full_bootstrap`   — a fresh mirror receives the whole uncompacted
//!   log (what every reply costs without delta shipping, and what a new
//!   member's state transfer costs without compaction);
//! * `compacted_bootstrap` — the same transfer after the committed
//!   prefix folded into a checkpoint (checkpoint + short tail);
//! * `full_reply`       — steady state without deltas: a synced mirror
//!   still receives and re-merges the entire log on every reply;
//! * `delta_reply`      — steady state with deltas: the repository
//!   serves only the journal suffix past the client's frontier.
//!
//! A second group, `repository_resolve/{8,256,8192}_logs`, is the perf
//! ledger's row for `Repository::handle(Msg::Resolve)`: what committing an
//! action that touched one log costs a scoped, status-collecting
//! repository that holds 8 / 256 / 8192 one-entry logs (the shapes of
//! `sock_mixed`, `sock_shallow` and `sock_wide`).

use criterion::{criterion_group, criterion_main, Criterion};
use quorumcc_core::DependencyRelation;
use quorumcc_model::testtypes::{QInv, QRes, TestQueue};
use quorumcc_model::{ActionId, Event};
use quorumcc_replication::protocol::Mode;
use quorumcc_replication::types::{
    action_id, entry_of, ActionOutcome, Checkpoint, LogEntry, ObjId, ObjectLog, VersionedLog,
};
use quorumcc_replication::{CollectIo, Msg, Repository};
use quorumcc_sim::Timestamp;
use std::collections::BTreeMap;

type Log = VersionedLog<u64, u64>;

fn ts(c: u64, n: u32) -> Timestamp {
    Timestamp {
        counter: c,
        node: n,
    }
}

/// A log of `n` committed entries (entry i stamped i+1, committed at
/// i+2 so every commit timestamp exceeds its entry timestamp, as the
/// protocol guarantees).
fn filled(n: usize) -> Log {
    let mut log = Log::new();
    for i in 0..n {
        let i64 = i as u64;
        log.insert(LogEntry {
            ts: ts(i64 + 1, 0),
            action: ActionId(i as u32),
            begin_ts: ts(i64 + 1, 0),
            event: Event::new(i64, i64),
        });
        log.resolve(ActionId(i as u32), ActionOutcome::Committed(ts(i64 + 2, 0)));
    }
    log
}

/// `filled(n)` with all but the youngest `tail` commits folded into a
/// checkpoint, the way `Repository::maybe_compact` folds a resolved
/// prefix.
fn compacted(n: usize, tail: usize) -> Log {
    let mut log = filled(n);
    let fold = n.saturating_sub(tail);
    if fold > 0 {
        let covered: BTreeMap<ActionId, Timestamp> = (0..fold)
            .map(|i| (ActionId(i as u32), ts(i as u64 + 2, 0)))
            .collect();
        log.install_checkpoint(Checkpoint::new((), covered, fold as u64));
    }
    log
}

fn bench_log_shipping(c: &mut Criterion) {
    for n in [16usize, 128, 1024] {
        let src = filled(n);
        let folded = compacted(n, 16.min(n));
        // A mirror already holding everything (the steady-state client).
        let mut synced = Log::new();
        synced.apply_delta(&src.delta_since(0));
        // The frontier just before the newest entry's insert + resolve.
        let frontier = src.version().saturating_sub(2);

        let mut g = c.benchmark_group(format!("log_shipping/{n}"));
        g.bench_function("full_bootstrap", |b| {
            b.iter(|| {
                let mut mirror = Log::new();
                mirror.apply_delta(&src.delta_since(0));
                mirror.version()
            })
        });
        g.bench_function("compacted_bootstrap", |b| {
            b.iter(|| {
                let mut mirror = Log::new();
                mirror.apply_delta(&folded.delta_since(0));
                mirror.version()
            })
        });
        g.bench_function("full_reply", |b| {
            // apply_delta is an idempotent join, so re-absorbing the
            // full log leaves the mirror unchanged while costing the
            // full clone + merge scan — exactly the per-reply price of
            // shipping without deltas.
            b.iter(|| {
                let d = src.delta_since(0);
                synced.apply_delta(&d);
                d.payload_entries()
            })
        });
        let mut synced2 = synced.clone();
        g.bench_function("delta_reply", |b| {
            b.iter(|| {
                let d = src.delta_since(frontier);
                synced2.apply_delta(&d);
                d.payload_entries()
            })
        });
        g.finish();
    }
}

/// Resolutions held back for the timed loop: more than the harness ever
/// samples, so every timed `Resolve` is the first for its action and
/// plants a status rather than re-reading one (the 8-log shape has only 8
/// to give and repeats them).
const PENDING: u32 = 64;

fn bench_repository_resolve(c: &mut Criterion) {
    const CLIENT: u32 = 10;
    let mut g = c.benchmark_group("repository_resolve");
    for logs in [8u32, 256, 8192] {
        let mut repo: Repository<TestQueue> =
            Repository::new(Mode::Hybrid, DependencyRelation::full::<TestQueue>())
                .with_gossip(true, Some(64));
        let mut io: CollectIo<Msg<QInv, QRes>> = CollectIo::new(0, 7);
        // One entry per log, each of its own action.
        for i in 0..logs {
            let at = ts(u64::from(i) + 1, CLIENT);
            repo.handle(
                &mut io,
                CLIENT,
                Msg::WriteLog {
                    obj: ObjId(i as u16),
                    req: 0,
                    log: ObjectLog::new(),
                    entry: Some(entry_of::<TestQueue>(
                        at,
                        action_id(CLIENT, i),
                        at,
                        QInv::Enq(1),
                        QRes::Ok,
                    )),
                    cfg: 0,
                },
            );
        }
        io.take_outputs();
        let mut next = 0u32;
        g.bench_function(format!("{logs}_logs"), |b| {
            b.iter(|| {
                let seq = next % PENDING.min(logs);
                next += 1;
                repo.handle(
                    &mut io,
                    CLIENT,
                    Msg::Resolve {
                        action: action_id(CLIENT, seq),
                        outcome: ActionOutcome::Committed(ts(100_000 + u64::from(seq), CLIENT)),
                        entries: vec![(ObjId(seq as u16), 1)],
                    },
                );
                io.take_outputs().len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_log_shipping, bench_repository_resolve);
criterion_main!(benches);
