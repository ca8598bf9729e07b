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
//!
//! A third, `repository_writelog/{25,800}_entries/{full_view,delta}`, is the
//! row for `Repository::handle(Msg::WriteLog)`: what one final-quorum write
//! of one fresh entry costs the same kind of repository when its log already
//! holds 25 / 800 committed entries (the depths of `sock_shallow` and
//! `sock_deep`) — arriving as the whole view, or as the view cut against a
//! mirror of the log (`ObjectLog::minus`, `base` > 0).
//!
//! A fourth, `protocol_evaluate/{25,800}_entries/{replay,incremental}`, is the
//! row for the front-end's evaluation of one `Deq` against a view of 25 / 800
//! committed `Enq`s: from an empty cache (`Protocol::evaluate`, a replay of
//! the whole view), and from a cache that has seen all but the last 16
//! entries (`Protocol::evaluate_from`, the client's path).
//!
//! A fifth, `client_read_round/{25,800}_entries/{rebuild,persistent}`, is the
//! row for the front-end's view assembly: one read round over mirrors of
//! three sites holding 25 / 800 committed entries — two replies, each a
//! 16-entry delta, then the final-quorum cuts to those two sites. `rebuild`
//! applies the deltas to a `VersionedLog` mirror per site, merges the
//! replied mirrors into a blank log and cuts with `ObjectLog::minus`;
//! `persistent` advances the client's `View`, which holds the mirrors as
//! columns, syncs and joins it and cuts it over what they disagree on.
//!
//! A sixth, `repository_gc_sweep/{256_logs,800_entries}`, is the row for
//! the status-GC sweep: the one `ReadLog` whose durable frontier advance
//! completes a 64-action batch and so sweeps, at a scoped repository whose
//! actions each committed one entry — into 256 logs of 25 entries (the
//! shape of `sock_shallow`), or into two logs of 800 (`sock_deep`). The
//! read is served at the log's version, so its reply carries nothing.

use criterion::{criterion_group, criterion_main, Criterion};
use quorumcc_adts::queue::{Queue, QueueInv, QueueRes};
use quorumcc_core::DependencyRelation;
use quorumcc_model::testtypes::{QInv, QRes, TestQueue};
use quorumcc_model::{ActionId, Event};
use quorumcc_replication::protocol::{EvalCache, Mode};
use quorumcc_replication::types::{
    action_id, entry_of, ActionOutcome, Checkpoint, LogEntry, ObjId, ObjectLog, VersionedLog,
};
use quorumcc_replication::{CollectIo, Msg, Output, Protocol, Repository, View};
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
    grow(&mut log, 0..n);
    log
}

/// Appends the committed entries numbered `which` (as in [`filled`]).
fn grow(log: &mut Log, which: impl IntoIterator<Item = usize>) {
    for i in which {
        let i64 = i as u64;
        log.insert(LogEntry {
            ts: ts(i64 + 1, 0),
            action: ActionId(i as u32),
            begin_ts: ts(i64 + 1, 0),
            event: Event::new(i64, i64),
        });
        log.resolve(ActionId(i as u32), ActionOutcome::Committed(ts(i64 + 2, 0)));
    }
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
                    base: 0,
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

fn bench_repository_writelog(c: &mut Criterion) {
    const WRITER: u32 = 10;
    const READER: u32 = 11;
    /// Timed calls per arm (the harness makes one more to warm up).
    const SAMPLES: usize = 30;
    let obj = ObjId(0);
    let mut g = c.benchmark_group("repository_writelog");
    for entries in [25u32, 800] {
        let mut repo: Repository<TestQueue> =
            Repository::new(Mode::Hybrid, DependencyRelation::full::<TestQueue>())
                .with_gossip(true, Some(64));
        let mut io: CollectIo<Msg<QInv, QRes>> = CollectIo::new(0, 7);
        let write = |log, seq: u32, base| {
            let at = ts(u64::from(seq) + 1, WRITER);
            let entry =
                entry_of::<TestQueue>(at, action_id(WRITER, seq), at, QInv::Enq(1), QRes::Ok);
            Msg::WriteLog {
                obj,
                req: 0,
                log,
                entry: Some(entry),
                cfg: 0,
                base,
            }
        };
        for seq in 0..entries {
            repo.handle(&mut io, WRITER, write(ObjectLog::new(), seq, 0));
            let commit = Msg::Resolve {
                action: action_id(WRITER, seq),
                outcome: ActionOutcome::Committed(ts(100_000 + u64::from(seq), WRITER)),
                entries: vec![(obj, 1)],
            };
            repo.handle(&mut io, WRITER, commit);
        }
        io.take_outputs();
        // The writer's mirror of the log: one read from scratch.
        let read = Msg::ReadLog {
            obj,
            req: 0,
            action: action_id(READER, 0),
            begin_ts: ts(1, READER),
            op: "Enq",
            cfg: 0,
            since: 0,
            durable: 0,
        };
        repo.handle(&mut io, READER, read);
        let mut mirror: VersionedLog<QInv, QRes> = VersionedLog::new();
        for out in io.take_outputs() {
            if let Output::Send {
                msg: Msg::LogReply { delta, .. },
                ..
            } = out
            {
                mirror.apply_delta(&delta);
            }
        }
        assert_eq!(mirror.log().len(), entries as usize);
        // The read reserved; resolve the reader so the writes are not in
        // conflict with it.
        let release = Msg::Resolve {
            action: action_id(READER, 0),
            outcome: ActionOutcome::Aborted,
            entries: Vec::new(),
        };
        repo.handle(&mut io, READER, release);
        io.take_outputs();
        let view = mirror.log().clone();
        let arms = [
            ("full_view", write(view.clone(), entries, 0)),
            (
                "delta",
                write(view.minus(mirror.log()), entries, mirror.version()),
            ),
        ];
        for (arm, msg) in arms {
            // Each sample writes into a copy of its own, so the log keeps
            // its length; the copies are made before the timed calls and
            // dropped after them.
            let mut fresh: Vec<_> = (0..=SAMPLES).map(|_| (repo.clone(), msg.clone())).collect();
            let mut written = Vec::with_capacity(fresh.len());
            g.sample_size(SAMPLES);
            g.bench_function(format!("{entries}_entries/{arm}"), |b| {
                b.iter(|| {
                    let (mut repo, msg) = fresh.pop().expect("one copy per sample");
                    repo.handle(&mut io, WRITER, msg);
                    written.push(repo);
                })
            });
            let acked = io.take_outputs().into_iter().all(|out| {
                matches!(
                    out,
                    Output::Send {
                        msg: Msg::WriteAck { conflict: None, .. },
                        ..
                    }
                )
            });
            assert!(
                acked,
                "{entries}_entries/{arm}: a write was not acknowledged"
            );
        }
    }
    g.finish();
}

fn bench_repository_gc_sweep(c: &mut Criterion) {
    const CLIENT: u32 = 10;
    /// Frontier advance per sweep (the socket runs' `gc_batch`).
    const BATCH: u32 = 64;
    const SAMPLES: usize = 30;
    let mut g = c.benchmark_group("repository_gc_sweep");
    g.sample_size(SAMPLES);
    for (name, logs, depth) in [("256_logs", 256u32, 25u32), ("800_entries", 2, 800)] {
        let mut repo: Repository<TestQueue> =
            Repository::new(Mode::Hybrid, DependencyRelation::full::<TestQueue>())
                .with_gossip(true, Some(u64::from(BATCH)));
        let mut io: CollectIo<Msg<QInv, QRes>> = CollectIo::new(0, 7);
        let actions = logs * depth;
        // Action i commits one entry into log i mod `logs`.
        for i in 0..actions {
            let (obj, at) = (ObjId((i % logs) as u16), ts(u64::from(i) + 1, CLIENT));
            let entry = entry_of::<TestQueue>(at, action_id(CLIENT, i), at, QInv::Enq(1), QRes::Ok);
            let write = Msg::WriteLog {
                obj,
                req: 0,
                log: ObjectLog::new(),
                entry: Some(entry),
                cfg: 0,
                base: 0,
            };
            repo.handle(&mut io, CLIENT, write);
            let commit = Msg::Resolve {
                action: action_id(CLIENT, i),
                outcome: ActionOutcome::Committed(ts(100_000 + u64::from(i), CLIENT)),
                entries: vec![(obj, 1)],
            };
            repo.handle(&mut io, CLIENT, commit);
        }
        let read = |since: u64, durable: u32| Msg::ReadLog {
            obj: ObjId(0),
            req: 0,
            action: action_id(CLIENT, actions),
            begin_ts: ts(1, CLIENT),
            op: "Enq",
            cfg: 0,
            since,
            durable: u64::from(durable),
        };
        // Every earlier batch was swept: the frontier stands one batch
        // short of the last action.
        for durable in (BATCH..actions).step_by(BATCH as usize) {
            repo.handle(&mut io, CLIENT, read(0, durable));
        }
        let head = (io.take_outputs().into_iter())
            .filter_map(|out| match out {
                Output::Send {
                    msg: Msg::LogReply { delta, .. },
                    ..
                } => Some(delta.head),
                _ => None,
            })
            .last()
            .expect("the reads were answered");
        let mut fresh: Vec<_> = (0..=SAMPLES).map(|_| repo.clone()).collect();
        let mut swept = Vec::with_capacity(fresh.len());
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut repo = fresh.pop().expect("one copy per sample");
                repo.handle(&mut io, CLIENT, read(head, actions));
                swept.push(repo);
            })
        });
        let empty = io.take_outputs().into_iter().all(|out| {
            matches!(out, Output::Send { msg: Msg::LogReply { delta, .. }, .. }
                if !delta.full && delta.payload_entries() == 0)
        });
        assert!(empty, "{name}: a timed read shipped entries");
    }
    g.finish();
}

fn bench_protocol_evaluate(c: &mut Criterion) {
    /// Entries the warm cache has not seen (`sock_deep`'s mean is 15.6).
    const SUFFIX: usize = 16;
    const SAMPLES: usize = 30;
    let protocol = Protocol::new(Mode::Hybrid, DependencyRelation::full::<Queue>());
    let (reader, late) = (ActionId(u32::MAX), ts(u64::MAX, 0));
    let mut g = c.benchmark_group("protocol_evaluate");
    g.sample_size(SAMPLES);
    for entries in [25usize, 800] {
        // Entry i is stamped 2i + 1 and commits at 2i + 2.
        let view = |n: usize| {
            let mut log: ObjectLog<QueueInv, QueueRes> = ObjectLog::new();
            for i in 0..n as u64 {
                let (at, action) = (ts(2 * i + 1, 0), ActionId(i as u32));
                log.insert(entry_of::<Queue>(
                    at,
                    action,
                    at,
                    QueueInv::Enq(i as u32),
                    QueueRes::Ok,
                ));
                log.resolve(action, ActionOutcome::Committed(ts(2 * i + 2, 0)));
            }
            log
        };
        let (earlier, now) = (view(entries - SUFFIX), view(entries));
        g.bench_function(format!("{entries}_entries/replay"), |b| {
            b.iter(|| protocol.evaluate::<Queue>(&now, &[], reader, late, &QueueInv::Deq))
        });
        let mut warm = EvalCache::<Queue>::default();
        let first = protocol.evaluate_from(&mut warm, &earlier, &[], reader, late, &QueueInv::Deq);
        assert_eq!(first, Ok(QueueRes::Item(0)));
        // Each sample advances a copy of the warm cache, made beforehand.
        let mut caches: Vec<_> = (0..=SAMPLES).map(|_| warm.clone()).collect();
        g.bench_function(format!("{entries}_entries/incremental"), |b| {
            b.iter(|| {
                let mut cache = caches.pop().expect("one copy per sample");
                protocol.evaluate_from(&mut cache, &now, &[], reader, late, &QueueInv::Deq)
            })
        });
        let (asked, rebuilt, replayed) = warm.counters();
        assert_eq!(
            (asked, rebuilt, replayed),
            (1, 0, (entries - SUFFIX) as u64)
        );
    }
    g.finish();
}

fn bench_client_read_round(c: &mut Criterion) {
    /// Entries each replying site gained since the client last read it.
    const FRESH: usize = 16;
    const SAMPLES: usize = 30;
    let mut g = c.benchmark_group("client_read_round");
    g.sample_size(SAMPLES);
    for entries in [25usize, 800] {
        // Three sites, mirrored and viewed by a client at `entries - FRESH`;
        // then the two the round reads from gain `FRESH` more each, from
        // writes that reached one of them but not the other.
        let mut sites = vec![filled(entries - FRESH); 3];
        let mirrors: Vec<Log> = (sites.iter())
            .map(|site| {
                let mut mirror = Log::new();
                mirror.apply_delta(&site.delta_since(0));
                mirror
            })
            .collect();
        let mut view = View::new(false);
        for (s, site) in (0..).zip(&sites) {
            view.advance(s, &site.delta_since(0));
        }
        view.sync(0, &[0, 1, 2]);
        for (s, site) in sites[..2].iter_mut().enumerate() {
            grow(
                site,
                (entries - FRESH..entries + FRESH).filter(|i| i % 2 == s),
            );
        }
        let deltas: Vec<_> = (0..2)
            .map(|s| sites[s].delta_since(mirrors[s].version()))
            .collect();
        let rebuild = |m: &mut Vec<Log>| {
            for (mirror, delta) in m.iter_mut().zip(&deltas) {
                mirror.apply_delta(delta);
            }
            let mut merged = ObjectLog::new();
            merged.merge(m[0].log());
            merged.merge(m[1].log());
            let cuts = [merged.minus(m[0].log()), merged.minus(m[1].log())];
            (merged, cuts)
        };
        let persistent = |view: &mut View<u64, u64>| {
            for (site, delta) in (0..).zip(&deltas) {
                view.advance(site, delta);
            }
            view.sync(0, &[0, 1, 2]);
            view.join(1);
            [0, 1].map(|site| view.cut(site).expect("a mirror to cut against").0)
        };
        let (mut a, mut b) = (mirrors.clone(), view.clone());
        let (merged, cuts) = rebuild(&mut a);
        assert_eq!(persistent(&mut b), cuts);
        assert_eq!((b.log(), cuts[0].len()), (&merged, FRESH));
        // Each sample runs on copies made beforehand and kept until after.
        let mut states: Vec<_> = (0..=SAMPLES).map(|_| mirrors.clone()).collect();
        let mut spent = Vec::with_capacity(states.len());
        g.bench_function(format!("{entries}_entries/rebuild"), |b| {
            b.iter(|| {
                let mut m = states.pop().expect("one copy per sample");
                let cuts = rebuild(&mut m);
                spent.push(m);
                cuts
            })
        });
        let mut states: Vec<_> = (0..=SAMPLES).map(|_| view.clone()).collect();
        let mut spent = Vec::with_capacity(states.len());
        g.bench_function(format!("{entries}_entries/persistent"), |b| {
            b.iter(|| {
                let mut state = states.pop().expect("one copy per sample");
                let cuts = persistent(&mut state);
                spent.push(state);
                cuts
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_log_shipping,
    bench_repository_resolve,
    bench_repository_writelog,
    bench_repository_gc_sweep,
    bench_protocol_evaluate,
    bench_client_read_round
);
criterion_main!(benches);
