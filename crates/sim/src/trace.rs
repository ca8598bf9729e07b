//! Structured run traces: a ring-buffered, zero-overhead-when-disabled
//! record of everything the simulator and its processes do.
//!
//! Every [`TraceEvent`] is stamped with the simulated time, the site it
//! happened at, and a per-site Lamport counter (message deliveries observe
//! the sender's stamp, so the trace's Lamport order refines causality).
//! The engine records network-level events (send / deliver / drop / timer)
//! and the fault schedule; drivers record protocol-level events through
//! [`Io::trace`](crate::node::Io::trace), which the engine's `Ctx` routes here.
//!
//! Capture is deterministic: because the engine itself is a pure function
//! of (processes, network, faults, seed), the same seed yields a
//! byte-identical [`TraceBuffer::render`] — which the test suite asserts.

use crate::clock::{LamportClock, Timestamp};
use crate::fault::{FaultPlan, ProcId, SimTime};
use std::collections::VecDeque;
use std::fmt;

/// Capture policy for a run's trace.
///
/// The default is [`TraceConfig::disabled`]: no events are recorded and
/// the only cost on every hot path is a single branch on a `bool`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    enabled: bool,
    capacity: usize, // 0 = unbounded
}

impl TraceConfig {
    /// No capture at all (the default).
    pub fn disabled() -> Self {
        TraceConfig {
            enabled: false,
            capacity: 0,
        }
    }

    /// Capture into a ring of at most `capacity` events; once full, the
    /// oldest events are overwritten (and counted — see
    /// [`TraceBuffer::overwritten`]).
    pub fn ring(capacity: usize) -> Self {
        TraceConfig {
            enabled: true,
            capacity: capacity.max(1),
        }
    }

    /// Capture every event for the whole run.
    pub fn unbounded() -> Self {
        TraceConfig {
            enabled: true,
            capacity: 0,
        }
    }

    /// Whether any capture happens.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The ring capacity, or `None` when unbounded (or disabled).
    pub fn capacity(&self) -> Option<usize> {
        (self.capacity > 0).then_some(self.capacity)
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::disabled()
    }
}

/// Declares a closed set of labels: the enum and, from the same rows, the
/// `Display` that writes each variant's label.
macro_rules! label_enum {
    ($(#[$doc:meta])* $name:ident {
        $($(#[$vdoc:meta])* $variant:ident => $label:literal),* $(,)?
    }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vdoc])* $variant,)*
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(match self {
                    $($name::$variant => $label,)*
                })
            }
        }
    };
}

label_enum! {
    /// Why the network dropped a message.
    DropCause {
        /// Random loss (`NetworkConfig::drop_prob`).
        Random => "random",
        /// Sender and receiver were in different partition blocks.
        Partition => "partition",
        /// The receiver was crashed at delivery time.
        Crashed => "crashed",
    }
}

label_enum! {
    /// Which quorum phase an operation is in.
    PhaseKind {
        /// Initial quorum: collect and merge logs.
        Read => "read",
        /// Final quorum: push the updated view.
        Write => "write",
    }
}

label_enum! {
    /// Why a concurrency-control conflict was declared.
    ConflictKind {
        /// A dependency lock held by an uncommitted action (hybrid / 2PL).
        Lock => "lock",
        /// A static-timestamp writer arrived after a later read (Reed).
        TooLate => "too-late",
        /// The view already serialized a dependent action in the past.
        DirtyPast => "dirty-past",
        /// A repository-side read reservation blocked the write.
        Reservation => "reservation",
    }
}

label_enum! {
    /// Why a transaction aborted.
    AbortCause {
        /// Concurrency-control conflict.
        Conflict => "conflict",
        /// A quorum stayed unreachable past the retry budget.
        Unavailable => "unavailable",
        /// The operation carried a stale configuration epoch; it restarts
        /// under the adopted configuration.
        StaleEpoch => "stale-epoch",
    }
}

/// Declares the event vocabulary once: a row is a variant, its kind label
/// and its fields, and yields the variant, its arm of `kind` and its
/// rendering — the label, then ` field=value` for every field in
/// declaration order.
macro_rules! trace_actions {
    ($(#[$doc:meta])* $name:ident {
        $($(#[$vdoc:meta])* $variant:ident $label:literal
            $({ $($(#[$fdoc:meta])* $field:ident: $ty:ty),* $(,)? })?),* $(,)?
    }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vdoc])* $variant $({ $($(#[$fdoc])* $field: $ty),* })?,)*
        }

        impl $name {
            /// A stable, lowercase label for the event family — the unit of
            /// `--action` filtering in the CLI.
            pub fn kind(&self) -> &'static str {
                match self {
                    $($name::$variant { .. } => $label,)*
                }
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.kind())?;
                match self {
                    $($name::$variant $({ $($field),* })? => {
                        $($(write!(f, concat!(" ", stringify!($field), "={}"), $field)?;)*)?
                    })*
                }
                Ok(())
            }
        }
    };
}

trace_actions! {
    /// What happened. Network and fault events come from the engine;
    /// protocol events are recorded by drivers via
    /// [`Io::trace`](crate::node::Io::trace). Identifiers are plain
    /// integers so the trace layer stays independent of the layers above it.
    TraceAction {
        /// A message was submitted to the network.
        Send "send" {
            /// Receiver.
            to: ProcId,
        },
        /// A message was delivered.
        Deliver "deliver" {
            /// Sender.
            from: ProcId,
        },
        /// A message was lost.
        Drop "net-drop" {
            /// Intended receiver.
            to: ProcId,
            /// Why it was lost.
            cause: DropCause,
        },
        /// The network duplicated a message: a second, independently delayed
        /// copy was scheduled (`NetworkConfig::dup_prob`).
        NetDup "net-dup" {
            /// Receiver of both copies.
            to: ProcId,
        },
        /// The network delayed a message past its natural slot, letting later
        /// sends overtake it (`NetworkConfig::reorder_window`).
        NetReorder "net-reorder" {
            /// Receiver.
            to: ProcId,
        },
        /// A repository answered a stale frontier with a full log transfer
        /// because the requested suffix had already fallen off its change
        /// journal — correct, but a bandwidth cliff worth surfacing.
        FullLogFallback "full-log-fallback" {
            /// The object whose log was shipped in full.
            obj: u64,
            /// The stale frontier the reader presented.
            since: u64,
        },
        /// A batch envelope was flushed: `len` coalesced payloads left for
        /// one destination as a single network message. Only recorded when
        /// batching is enabled, so traces of unbatched runs are unchanged.
        BatchFlush "batch-flush" {
            /// Destination of the envelope.
            to: ProcId,
            /// Number of payload messages coalesced into it.
            len: u64,
        },
        /// A timer fired.
        TimerFire "timer" {
            /// The token passed to `set_timer`.
            token: u64,
        },
        /// (Fault schedule) the site crashes, recovering at `until`.
        Crash "crash" {
            /// Recovery time (exclusive).
            until: SimTime,
        },
        /// (Fault schedule) the site recovers.
        Recover "recover",
        /// (Fault schedule) the site enters a partition block until `until`.
        PartitionStart "partition-start" {
            /// Heal time (exclusive).
            until: SimTime,
        },
        /// (Fault schedule) the site's partition heals.
        PartitionHeal "partition-heal",
        /// A transaction (action) began.
        TxnBegin "txn-begin" {
            /// The action id.
            action: u64,
        },
        /// A quorum phase started for a request.
        PhaseStart "phase-start" {
            /// Object operated on.
            obj: u64,
            /// Request id (matches the phase's timer token).
            req: u64,
            /// Read (initial quorum) or write (final quorum).
            phase: PhaseKind,
        },
        /// A quorum phase completed after `rtt` ticks.
        PhaseEnd "phase-end" {
            /// Object operated on.
            obj: u64,
            /// Request id.
            req: u64,
            /// Read or write.
            phase: PhaseKind,
            /// Logical round-trip: ticks from phase start to quorum assembly.
            rtt: SimTime,
        },
        /// A quorum phase timed out and was re-broadcast.
        PhaseRetry "phase-retry" {
            /// Request id.
            req: u64,
            /// Read or write.
            phase: PhaseKind,
        },
        /// A read reservation (dependency lock) was recorded.
        Reserve "reserve" {
            /// Object.
            obj: u64,
            /// Reserving action.
            action: u64,
        },
        /// A concurrency-control conflict was observed.
        Conflict "conflict" {
            /// Object.
            obj: u64,
            /// The action that lost.
            action: u64,
            /// The action it conflicted with.
            with: u64,
            /// The conflict's flavor.
            kind: ConflictKind,
        },
        /// A transaction committed.
        Commit "commit" {
            /// The action id.
            action: u64,
        },
        /// A transaction aborted.
        Abort "abort" {
            /// The action id.
            action: u64,
            /// Conflict or unavailability.
            cause: AbortCause,
        },
        /// An anti-entropy round pushed logs to a peer.
        AntiEntropy "anti-entropy" {
            /// The gossip target.
            peer: ProcId,
        },
        /// A reconfiguration coordinator began installing a new epoch (the
        /// joint phase starts here).
        ReconfigStart "reconfig-start" {
            /// The epoch being installed.
            epoch: u64,
        },
        /// A site adopted a configuration state pushed by an install.
        ConfigAdopt "config-adopt" {
            /// The adopted epoch.
            epoch: u64,
            /// The adopted state's total-order version (`2·epoch` for the
            /// joint state, `2·epoch + 1` once stable).
            version: u64,
        },
        /// The new epoch committed: a quorum of the new configuration
        /// acknowledged the stable install and the joint phase ended.
        ReconfigCommit "reconfig-commit" {
            /// The committed epoch.
            epoch: u64,
        },
        /// An operation was refused for carrying a stale configuration
        /// version; the client aborts and retries under the current one.
        StaleEpoch "stale-epoch" {
            /// The version the operation carried.
            seen: u64,
            /// The version the site holds.
            current: u64,
        },
    }
}

impl TraceAction {
    /// The object the event concerns, when it concerns one.
    pub fn obj(&self) -> Option<u64> {
        match self {
            TraceAction::PhaseStart { obj, .. }
            | TraceAction::PhaseEnd { obj, .. }
            | TraceAction::Reserve { obj, .. }
            | TraceAction::Conflict { obj, .. }
            | TraceAction::FullLogFallback { obj, .. } => Some(*obj),
            _ => None,
        }
    }
}

/// One captured event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time of the event.
    pub t: SimTime,
    /// The site it happened at.
    pub site: ProcId,
    /// The site's Lamport counter after the event (0 for fault-schedule
    /// prologue entries, which are plans rather than occurrences).
    pub lamport: u64,
    /// What happened.
    pub action: TraceAction,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>8}] site={:<3} lam={:<6} {}",
            self.t, self.site, self.lamport, self.action
        )
    }
}

/// The captured trace of one run, harvested with
/// [`Sim::take_trace`](crate::engine::Sim::take_trace).
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    events: Vec<TraceEvent>,
    overwritten: u64,
}

impl TraceBuffer {
    /// The captured events, in capture order (which is execution order).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// How many events the ring overwrote (0 when unbounded).
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Renders the whole trace in the canonical line format. Byte-stable:
    /// identical runs render identically, which the determinism tests
    /// compare directly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

/// The engine-side recorder. Lives inside `Sim`; drivers reach it
/// through `Ctx`'s `Io::trace`.
#[derive(Debug)]
pub(crate) struct Tracer {
    cfg: TraceConfig,
    buf: VecDeque<TraceEvent>,
    overwritten: u64,
    clocks: Vec<LamportClock>,
}

impl Tracer {
    pub(crate) fn new(cfg: TraceConfig, n_procs: usize) -> Self {
        let clocks = if cfg.enabled {
            (0..n_procs as ProcId).map(LamportClock::new).collect()
        } else {
            Vec::new()
        };
        Tracer {
            cfg,
            buf: VecDeque::new(),
            overwritten: 0,
            clocks,
        }
    }

    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    fn push(&mut self, e: TraceEvent) {
        if self.cfg.capacity > 0 && self.buf.len() == self.cfg.capacity {
            self.buf.pop_front();
            self.overwritten += 1;
        }
        self.buf.push_back(e);
    }

    /// Records the fault schedule as a prologue: one planned event per
    /// affected site, ordered by `(time, site, insertion)`.
    pub(crate) fn prologue(&mut self, faults: &FaultPlan) {
        if !self.cfg.enabled {
            return;
        }
        // Plans rather than occurrences: no clock ticks for them.
        let plan = |t, site, action| TraceEvent {
            t,
            site,
            lamport: 0,
            action,
        };
        let mut planned: Vec<TraceEvent> = Vec::new();
        for c in faults.crashes() {
            planned.push(plan(c.from, c.proc, TraceAction::Crash { until: c.until }));
            planned.push(plan(c.until, c.proc, TraceAction::Recover));
        }
        for p in faults.partitions() {
            for site in &p.block {
                let start = TraceAction::PartitionStart { until: p.until };
                planned.push(plan(p.from, *site, start));
                planned.push(plan(p.until, *site, TraceAction::PartitionHeal));
            }
        }
        planned.sort_by_key(|e| (e.t, e.site));
        for e in planned {
            self.push(e);
        }
    }

    /// Ticks `site`'s Lamport clock for an event there and captures it
    /// under the new stamp, which is returned.
    fn stamp(&mut self, t: SimTime, site: ProcId, action: TraceAction) -> u64 {
        let lamport = self.clocks[site as usize].tick().counter;
        self.push(TraceEvent {
            t,
            site,
            lamport,
            action,
        });
        lamport
    }

    /// Records a local event at `site`, ticking its Lamport clock.
    #[inline]
    pub(crate) fn record_local(&mut self, t: SimTime, site: ProcId, action: TraceAction) {
        if self.cfg.enabled {
            self.stamp(t, site, action);
        }
    }

    /// Records a send and returns the Lamport stamp the message carries.
    #[inline]
    pub(crate) fn record_send(&mut self, t: SimTime, site: ProcId, to: ProcId) -> u64 {
        if !self.cfg.enabled {
            return 0;
        }
        self.stamp(t, site, TraceAction::Send { to })
    }

    /// Records a delivery, first observing the carried stamp so the
    /// receiver's counter jumps past the sender's.
    #[inline]
    pub(crate) fn record_deliver(&mut self, t: SimTime, site: ProcId, from: ProcId, stamp: u64) {
        if !self.cfg.enabled {
            return;
        }
        self.clocks[site as usize].observe(Timestamp {
            counter: stamp,
            node: from,
        });
        self.stamp(t, site, TraceAction::Deliver { from });
    }

    /// Hands the captured events out (leaves the tracer empty).
    pub(crate) fn take(&mut self) -> Option<TraceBuffer> {
        if !self.cfg.enabled {
            return None;
        }
        Some(TraceBuffer {
            events: self.buf.drain(..).collect(),
            overwritten: std::mem::take(&mut self.overwritten),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(TraceConfig::disabled(), 3);
        t.record_local(1, 0, TraceAction::Recover);
        assert_eq!(t.record_send(1, 0, 1), 0);
        assert!(t.take().is_none());
    }

    #[test]
    fn ring_overwrites_oldest() {
        let mut t = Tracer::new(TraceConfig::ring(2), 1);
        for token in 0..5u64 {
            t.record_local(token, 0, TraceAction::TimerFire { token });
        }
        let buf = t.take().unwrap();
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.overwritten(), 3);
        assert_eq!(buf.events()[0].action, TraceAction::TimerFire { token: 3 });
    }

    #[test]
    fn lamport_stamps_respect_happened_before() {
        let mut t = Tracer::new(TraceConfig::unbounded(), 2);
        for _ in 0..5 {
            t.record_local(1, 0, TraceAction::Recover);
        }
        let stamp = t.record_send(2, 0, 1);
        t.record_deliver(3, 1, 0, stamp);
        let buf = t.take().unwrap();
        let deliver = buf.events().last().unwrap();
        assert!(deliver.lamport > stamp);
    }

    #[test]
    fn prologue_is_sorted_by_time_then_site() {
        let mut faults = FaultPlan::none();
        faults.crash(2, 50, 60);
        faults.partition([0, 1], 10, 20);
        let mut t = Tracer::new(TraceConfig::unbounded(), 3);
        t.prologue(&faults);
        let buf = t.take().unwrap();
        let keys: Vec<(SimTime, ProcId)> = buf.events().iter().map(|e| (e.t, e.site)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(buf.len(), 6); // 2 crash ends + 2 sites × 2 partition ends
    }

    #[test]
    fn render_is_stable() {
        let e = TraceEvent {
            t: 42,
            site: 3,
            lamport: 7,
            action: TraceAction::Conflict {
                obj: 0,
                action: 100_001,
                with: 200_000,
                kind: ConflictKind::Lock,
            },
        };
        assert_eq!(
            e.to_string(),
            "[      42] site=3   lam=7      conflict obj=0 action=100001 with=200000 kind=lock"
        );
    }

    /// One value of every variant, rendered: the line format is what
    /// `qcc trace`, the saved captures and the trace goldens are made of.
    #[test]
    fn every_variant_renders_as_its_kind_then_its_fields() {
        use TraceAction::*;
        let (obj, req, action, epoch) = (1, 2, 100_001, 4);
        let rendered = [
            (Send { to: 3 }, "send to=3"),
            (Deliver { from: 4 }, "deliver from=4"),
            (
                Drop {
                    to: 3,
                    cause: DropCause::Random,
                },
                "net-drop to=3 cause=random",
            ),
            (
                Drop {
                    to: 3,
                    cause: DropCause::Partition,
                },
                "net-drop to=3 cause=partition",
            ),
            (
                Drop {
                    to: 3,
                    cause: DropCause::Crashed,
                },
                "net-drop to=3 cause=crashed",
            ),
            (NetDup { to: 3 }, "net-dup to=3"),
            (NetReorder { to: 3 }, "net-reorder to=3"),
            (
                FullLogFallback { obj, since: 9 },
                "full-log-fallback obj=1 since=9",
            ),
            (BatchFlush { to: 3, len: 8 }, "batch-flush to=3 len=8"),
            (TimerFire { token: 7 }, "timer token=7"),
            (Crash { until: 60 }, "crash until=60"),
            (Recover, "recover"),
            (PartitionStart { until: 20 }, "partition-start until=20"),
            (PartitionHeal, "partition-heal"),
            (TxnBegin { action }, "txn-begin action=100001"),
            (
                PhaseStart {
                    obj,
                    req,
                    phase: PhaseKind::Read,
                },
                "phase-start obj=1 req=2 phase=read",
            ),
            (
                PhaseEnd {
                    obj,
                    req,
                    phase: PhaseKind::Write,
                    rtt: 12,
                },
                "phase-end obj=1 req=2 phase=write rtt=12",
            ),
            (
                PhaseRetry {
                    req,
                    phase: PhaseKind::Read,
                },
                "phase-retry req=2 phase=read",
            ),
            (Reserve { obj, action }, "reserve obj=1 action=100001"),
            (
                Conflict {
                    obj,
                    action,
                    with: 200_000,
                    kind: ConflictKind::TooLate,
                },
                "conflict obj=1 action=100001 with=200000 kind=too-late",
            ),
            (
                Conflict {
                    obj,
                    action,
                    with: 200_000,
                    kind: ConflictKind::DirtyPast,
                },
                "conflict obj=1 action=100001 with=200000 kind=dirty-past",
            ),
            (
                Conflict {
                    obj,
                    action,
                    with: 200_000,
                    kind: ConflictKind::Reservation,
                },
                "conflict obj=1 action=100001 with=200000 kind=reservation",
            ),
            (Commit { action }, "commit action=100001"),
            (
                Abort {
                    action,
                    cause: AbortCause::Conflict,
                },
                "abort action=100001 cause=conflict",
            ),
            (
                Abort {
                    action,
                    cause: AbortCause::Unavailable,
                },
                "abort action=100001 cause=unavailable",
            ),
            (
                Abort {
                    action,
                    cause: AbortCause::StaleEpoch,
                },
                "abort action=100001 cause=stale-epoch",
            ),
            (AntiEntropy { peer: 2 }, "anti-entropy peer=2"),
            (ReconfigStart { epoch }, "reconfig-start epoch=4"),
            (
                ConfigAdopt { epoch, version: 9 },
                "config-adopt epoch=4 version=9",
            ),
            (ReconfigCommit { epoch }, "reconfig-commit epoch=4"),
            (
                StaleEpoch {
                    seen: 8,
                    current: 9,
                },
                "stale-epoch seen=8 current=9",
            ),
        ];
        let mut kinds: Vec<&str> = Vec::new();
        for (action, line) in rendered {
            assert_eq!(action.to_string(), line);
            let rest = line.strip_prefix(action.kind()).expect(line);
            assert!(rest.is_empty() || rest.starts_with(' '), "{line}");
            kinds.push(action.kind());
        }
        // Every variant is in the list above, under a label of its own.
        kinds.dedup();
        assert_eq!(kinds.len(), 25, "{kinds:?}");
        let mut sorted = kinds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), kinds.len(), "{kinds:?}");
    }

    #[test]
    fn config_accessors() {
        assert!(!TraceConfig::default().is_enabled());
        assert_eq!(TraceConfig::ring(16).capacity(), Some(16));
        assert_eq!(TraceConfig::unbounded().capacity(), None);
        assert!(TraceConfig::unbounded().is_enabled());
    }
}
