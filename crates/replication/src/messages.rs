//! The wire protocol between front-ends and repositories, plus the
//! [`Batcher`] that coalesces per-destination traffic into
//! [`Msg::Batch`] envelopes.

use crate::driver::Io;
use crate::reconfig::ConfigState;
use crate::types::{ActionOutcome, LogDelta, LogEntry, ObjId, ObjectLog};
use quorumcc_model::ActionId;
use quorumcc_sim::{ProcId, Timestamp, TraceAction};
use std::collections::BTreeMap;

/// Messages exchanged in a cluster. `I`/`R` are the data type's invocation
/// and response types.
///
/// Quorum-bearing messages carry `cfg`, the configuration *version* the
/// sender believed current (see [`ConfigState::version`]); repositories
/// refuse older versions with [`Msg::StaleConfig`] so front-ends learn of
/// reconfigurations they missed.
#[derive(Debug, Clone)]
pub enum Msg<I, R> {
    /// Front-end → repository: send me your log for `obj`, recording a
    /// **read reservation** for (`action`, `op`) — the read-lock half of
    /// the concurrency control, held until the action resolves.
    ReadLog {
        /// Target object.
        obj: ObjId,
        /// Request id for matching replies.
        req: u64,
        /// The reading action.
        action: ActionId,
        /// Its Begin timestamp (static mode compares reservation ages).
        begin_ts: Timestamp,
        /// The invocation's operation class.
        op: &'static str,
        /// The sender's configuration version.
        cfg: u64,
        /// The sender's known frontier for this site's log (the version of
        /// the last delta it received); the repository ships only the
        /// suffix past it. `0` requests a full transfer.
        since: u64,
        /// The sender's durable resolution frontier, as a *count* of
        /// contiguously acknowledged sequence numbers from 0: every one
        /// of its actions with sequence number < `durable` is resolved
        /// and the resolution was acknowledged by every current member
        /// ([`Msg::ResolveAck`]). Piggybacked on existing read traffic so
        /// repositories can garbage-collect status tombstones below it.
        /// `0` (the default when status GC is off) promises nothing —
        /// count semantics keep "nothing acked" distinguishable from
        /// "sequence 0 acked", so a client's first action is collectable
        /// like any other.
        durable: u64,
    },
    /// Repository → front-end: the suffix of my log past your frontier
    /// (or a full checkpoint-rooted transfer when the frontier fell off
    /// the change journal).
    LogReply {
        /// Target object.
        obj: ObjId,
        /// Request id echoed.
        req: u64,
        /// The missing changes.
        delta: LogDelta<I, R>,
    },
    /// Front-end → repository: merge this into your log. With `base` = 0,
    /// `log` is a whole view (the §3.2 "send the updated view to a final
    /// quorum", and what anti-entropy, state transfer and every resend
    /// carry); with `base` > 0 it is only what the view holds beyond the
    /// sender's mirror of *this site's* log at version `base`
    /// ([`ObjectLog::minus`]), and the site merges it only while its log
    /// still extends that version
    /// ([`VersionedLog::extends`](crate::types::VersionedLog::extends)) —
    /// otherwise it answers [`Msg::WriteRefused`] and merges nothing. The
    /// freshly appended entry rides separately so the repository can
    /// validate it against reservations.
    WriteLog {
        /// Target object.
        obj: ObjId,
        /// Request id for matching acks.
        req: u64,
        /// The updated view, or its part beyond version `base`.
        log: ObjectLog<I, R>,
        /// The new entry to validate (`None` for pure propagation).
        entry: Option<LogEntry<I, R>>,
        /// The sender's configuration version (only enforced when `entry`
        /// is present — pure propagation is a CRDT-safe merge).
        cfg: u64,
        /// The version of the receiver's log that `log` is cut against;
        /// `0` when `log` is whole.
        base: u64,
    },
    /// Repository → front-end: view merged durably; `conflict` reports a
    /// reservation by another action that depends on the new entry's
    /// class — the writer must abort.
    WriteAck {
        /// Target object.
        obj: ObjId,
        /// Request id echoed.
        req: u64,
        /// A conflicting reader, if any.
        conflict: Option<ActionId>,
    },
    /// Repository → front-end: your [`Msg::WriteLog`] was cut against a
    /// version my log no longer extends (a status-GC fence, a crash
    /// recovery or more changes than the journal keeps lie between);
    /// nothing was merged — send the whole view.
    WriteRefused {
        /// Target object.
        obj: ObjId,
        /// Request id echoed.
        req: u64,
    },
    /// Coordinator → repositories: an action resolved (commit/abort).
    /// Fire-and-forget; resolutions also gossip through merged views.
    Resolve {
        /// The resolved action.
        action: ActionId,
        /// Its outcome.
        outcome: ActionOutcome,
        /// On commit: the action's write manifest — how many entries it
        /// appended per object. A repository may fold a committed action
        /// into a checkpoint only once it holds *all* of the action's
        /// entries for that object; the manifest is how it knows.
        entries: Vec<(ObjId, u32)>,
    },
    /// Repository → coordinator: I durably recorded this resolution.
    /// Sent only when status GC is enabled; once the coordinator holds an
    /// ack from *every* current member, the resolution is globally known
    /// and its tombstones become collectable (advertised through the
    /// `durable` frontier on [`Msg::ReadLog`]).
    ResolveAck {
        /// The acknowledged action.
        action: ActionId,
    },
    /// Reconfigurer → repository: adopt this configuration state if it is
    /// newer than yours.
    Install {
        /// Request id for matching acks.
        req: u64,
        /// The state to adopt.
        state: ConfigState,
    },
    /// Repository → reconfigurer: my configuration version after
    /// processing your install.
    InstallAck {
        /// Request id echoed.
        req: u64,
        /// The repository's (possibly newer) version.
        version: u64,
    },
    /// Repository → repository: a recovering site asks a peer for a state
    /// transfer. The peer answers with one entry-less [`Msg::WriteLog`]
    /// per object it stores (the same CRDT-safe merges anti-entropy uses),
    /// so a volatile site that lost its in-memory state catches back up
    /// without waiting for a gossip round.
    SyncReq,
    /// Repository → front-end: your request carried a stale configuration
    /// version; here is the current state. The front-end adopts it, aborts
    /// the affected transaction, and retries under the new configuration.
    StaleConfig {
        /// The refused request id.
        req: u64,
        /// The repository's current configuration state.
        state: ConfigState,
    },
    /// A batch envelope: several payloads for one destination, coalesced
    /// by a [`Batcher`] into a single network message. Receivers unwrap
    /// and handle the payloads in order; the network charges one delay
    /// and one loss draw for the whole envelope.
    Batch(Vec<Msg<I, R>>),
}

/// Per-destination send coalescing — the batching half of the throughput
/// engine.
///
/// A process routes batchable sends through [`Batcher::push`] instead of
/// `ctx.send`, and calls [`Batcher::flush`] before returning from each
/// event handler. Queued payloads for the same destination leave as one
/// [`Msg::Batch`] envelope (a queue of one leaves as the raw message, so
/// a batch size of 1 is byte-identical to not batching at all).
///
/// Determinism: queues live in a `BTreeMap` keyed by destination, so the
/// flush order is the destination order — a pure function of what was
/// pushed, never of hash state or wall-clock. The `cap` bound flushes a
/// destination's queue early once it holds `cap` payloads, keeping
/// envelope sizes bounded by the configured batch size.
#[derive(Debug, Default, Clone)]
pub struct Batcher<I, R> {
    queues: BTreeMap<ProcId, Vec<Msg<I, R>>>,
    cap: usize,
    flushed: u64,
    fills: Vec<u64>,
}

impl<I, R> Batcher<I, R> {
    /// A batcher flushing any destination queue that reaches `cap`
    /// payloads (`cap = 0` or 1 means every push flushes immediately —
    /// the unbatched degenerate case).
    pub fn new(cap: usize) -> Self {
        Batcher {
            queues: BTreeMap::new(),
            cap: cap.max(1),
            flushed: 0,
            fills: Vec::new(),
        }
    }

    /// Queues one payload for `to`, flushing that destination's queue if
    /// it reached the cap.
    pub fn push<IO: Io<Msg<I, R>> + ?Sized>(&mut self, ctx: &mut IO, to: ProcId, msg: Msg<I, R>) {
        let queue = self.queues.entry(to).or_default();
        queue.push(msg);
        if queue.len() >= self.cap {
            let batch = std::mem::take(queue);
            self.emit(ctx, to, batch);
        }
    }

    /// Flushes every queued destination, in destination order. Call at
    /// the end of each event handler: the flush boundary is the event,
    /// which is deterministic at any `--threads` count.
    pub fn flush<IO: Io<Msg<I, R>> + ?Sized>(&mut self, ctx: &mut IO) {
        let queues = std::mem::take(&mut self.queues);
        for (to, batch) in queues {
            if batch.is_empty() {
                continue;
            }
            self.emit(ctx, to, batch);
        }
    }

    fn emit<IO: Io<Msg<I, R>> + ?Sized>(
        &mut self,
        ctx: &mut IO,
        to: ProcId,
        mut batch: Vec<Msg<I, R>>,
    ) {
        let len = batch.len() as u64;
        self.flushed += 1;
        self.fills.push(len);
        if ctx.tracing() {
            ctx.trace(TraceAction::BatchFlush { to, len });
        }
        if batch.len() == 1 {
            ctx.send(to, batch.pop().expect("non-empty batch"));
        } else {
            ctx.send_weighted(to, Msg::Batch(batch), len);
        }
    }

    /// Envelopes emitted so far (singleton flushes included).
    pub fn flushed(&self) -> u64 {
        self.flushed
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queues.values().all(Vec::is_empty)
    }

    /// Drains the per-envelope payload counts recorded so far.
    pub fn take_fills(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.fills)
    }
}
