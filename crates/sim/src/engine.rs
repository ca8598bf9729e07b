//! The deterministic discrete-event engine: [`Driver`]s exchange messages
//! over a lossy, delaying, crash- and partition-prone network.
//!
//! The engine steps each node with one [`Input`] at a time through
//! [`Driver::handle`], handing it a [`Ctx`] as its [`Io`] — the call every
//! real-time host makes with a [`CollectIo`](crate::node::CollectIo).
//!
//! Determinism: executions are a pure function of (drivers, network
//! config, fault plan, seed). Events are ordered by `(time, sequence)`;
//! all randomness (delays, drops, [`Io::rand_below`]) comes from one
//! seeded RNG.

use crate::fault::{FaultPlan, ProcId, SimTime};
use crate::node::{Driver, Input, Io};
use crate::trace::{DropCause, TraceAction, TraceBuffer, TraceConfig, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Network timing and loss parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Minimum message delay (ticks).
    pub min_delay: SimTime,
    /// Maximum message delay (ticks, inclusive).
    pub max_delay: SimTime,
    /// Probability that a message is silently lost.
    pub drop_prob: f64,
    /// Probability that a delivered message is delivered a second time
    /// (an independent copy with its own delay draw).
    pub dup_prob: f64,
    /// Reorder aggressiveness: each delivered message suffers an extra
    /// uniform delay in `0..=reorder_window` ticks, letting later sends
    /// overtake it. `0` (the default) preserves the plain delay model.
    pub reorder_window: SimTime,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            min_delay: 1,
            max_delay: 10,
            drop_prob: 0.0,
            dup_prob: 0.0,
            reorder_window: 0,
        }
    }
}

impl NetworkConfig {
    /// Whether the loss/duplication/reorder probabilities are all valid
    /// (`drop_prob` and `dup_prob` in `[0, 1]`).
    pub fn probabilities_valid(&self) -> bool {
        (0.0..=1.0).contains(&self.drop_prob) && (0.0..=1.0).contains(&self.dup_prob)
    }
}

/// The engine's [`Io`], handed to a driver for one [`Driver::handle`]
/// call: time, identity, entropy and the trace come from the run; sends
/// and timers are buffered and applied when the handler returns. The
/// explorer builds one per event the same way.
#[derive(Debug)]
pub struct Ctx<'a, M> {
    now: SimTime,
    me: ProcId,
    rng: &'a mut StdRng,
    tracer: &'a mut Tracer,
    outbox: Vec<(ProcId, M, u64)>,
    timers: Vec<(SimTime, u64)>,
}

impl<'a, M> Ctx<'a, M> {
    pub(crate) fn new(
        now: SimTime,
        me: ProcId,
        rng: &'a mut StdRng,
        tracer: &'a mut Tracer,
    ) -> Self {
        Ctx {
            now,
            me,
            rng,
            tracer,
            outbox: Vec::new(),
            timers: Vec::new(),
        }
    }

    /// Consumes the context, yielding the buffered sends
    /// `(to, msg, weight)` and timers `(delay, token)`.
    #[allow(clippy::type_complexity)]
    pub(crate) fn into_effects(self) -> (Vec<(ProcId, M, u64)>, Vec<(SimTime, u64)>) {
        (self.outbox, self.timers)
    }
}

/// A batch envelope (`send_weighted`) is one message to the network — one
/// delay, one loss draw, one delivery — but advances
/// [`SimStats::payload_msgs`] by its weight.
impl<M> Io<M> for Ctx<'_, M> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn me(&self) -> ProcId {
        self.me
    }

    fn send(&mut self, to: ProcId, msg: M) {
        self.outbox.push((to, msg, 1));
    }

    fn send_weighted(&mut self, to: ProcId, msg: M, weight: u64) {
        self.outbox.push((to, msg, weight.max(1)));
    }

    fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.timers.push((delay.max(1), token));
    }

    fn rand_below(&mut self, bound: u64) -> u64 {
        // The run's seeded stream: seeded runs replay byte for byte.
        self.rng.gen_range(0..bound.max(1))
    }

    fn trace(&mut self, action: TraceAction) {
        self.tracer.record_local(self.now, self.me, action);
    }

    fn tracing(&self) -> bool {
        self.tracer.enabled()
    }
}

#[derive(Debug)]
enum EventKind<M> {
    Deliver { from: ProcId, msg: M, stamp: u64 },
    Timer { token: u64 },
    Recover,
}

#[derive(Debug)]
struct Scheduled<M> {
    at: SimTime,
    seq: u64,
    to: ProcId,
    kind: EventKind<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Counters describing one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages submitted to the network.
    pub sent: usize,
    /// Logical payloads submitted: like `sent`, but a batch envelope sent
    /// with [`Io::send_weighted`] counts its full weight. Equal to
    /// `sent` when nothing batches.
    pub payload_msgs: usize,
    /// Messages delivered.
    pub delivered: usize,
    /// Messages lost (random drop, partition, or crashed endpoint).
    pub dropped: usize,
    /// Messages delivered a second time (`NetworkConfig::dup_prob`).
    pub duplicated: usize,
    /// Messages that drew a non-zero reorder penalty
    /// (`NetworkConfig::reorder_window`).
    pub reordered: usize,
    /// Timer events fired.
    pub timers: usize,
    /// Final simulated time.
    pub end_time: SimTime,
}

/// The simulator.
///
/// # Example
///
/// ```
/// use quorumcc_sim::engine::{NetworkConfig, Sim};
/// use quorumcc_sim::fault::FaultPlan;
/// use quorumcc_sim::node::{Driver, Input, Io};
///
/// /// Ping-pong: node 0 sends `n`; everyone replies `n - 1` until 0.
/// struct Pong(u32);
/// impl Driver<u32> for Pong {
///     fn handle<IO: Io<u32> + ?Sized>(&mut self, io: &mut IO, input: Input<u32>) {
///         match input {
///             Input::Start if io.me() == 0 => io.send(1, 4),
///             Input::Deliver { from, msg: n } => {
///                 self.0 = n;
///                 if n > 0 {
///                     io.send(from, n - 1);
///                 }
///             }
///             _ => {}
///         }
///     }
/// }
///
/// let mut sim = Sim::new(
///     vec![Pong(99), Pong(99)],
///     NetworkConfig::default(),
///     FaultPlan::none(),
///     42,
/// );
/// let stats = sim.run(1_000);
/// assert_eq!(stats.delivered, 5);
/// assert_eq!(sim.process(0).0 + sim.process(1).0, 1); // 1 and 0
/// ```
#[derive(Debug)]
pub struct Sim<M, D> {
    procs: Vec<D>,
    queue: BinaryHeap<Reverse<Scheduled<M>>>,
    now: SimTime,
    seq: u64,
    rng: StdRng,
    net: NetworkConfig,
    faults: FaultPlan,
    stats: SimStats,
    tracer: Tracer,
    /// Whether every driver has had its [`Input::Start`].
    started: bool,
}

impl<M: Clone, D: Driver<M>> Sim<M, D> {
    /// Builds a simulation over the given drivers (ids are their
    /// indices). Tracing is disabled; use [`Sim::with_trace`] to capture.
    pub fn new(procs: Vec<D>, net: NetworkConfig, faults: FaultPlan, seed: u64) -> Self {
        Sim::with_trace(procs, net, faults, seed, TraceConfig::disabled())
    }

    /// Like [`Sim::new`] but with an explicit trace-capture policy. When
    /// enabled, the fault schedule is recorded up front as a prologue and
    /// every network, timer, and process-level event thereafter.
    pub fn with_trace(
        procs: Vec<D>,
        net: NetworkConfig,
        faults: FaultPlan,
        seed: u64,
        trace: TraceConfig,
    ) -> Self {
        assert!(net.min_delay <= net.max_delay, "min_delay > max_delay");
        assert!(
            net.probabilities_valid(),
            "drop_prob / dup_prob outside [0, 1]"
        );
        let mut tracer = Tracer::new(trace, procs.len());
        tracer.prologue(&faults);
        let mut sim = Sim {
            procs,
            queue: BinaryHeap::new(),
            now: 0,
            seq: 0,
            rng: StdRng::seed_from_u64(seed),
            net,
            faults,
            stats: SimStats::default(),
            tracer,
            started: false,
        };
        // Schedule one recovery event per crash interval up front. The low
        // sequence numbers make recoveries run before any same-tick
        // delivery, so a recovering driver rebuilds state first.
        let crashes: Vec<_> = sim.faults.crashes().to_vec();
        for c in crashes {
            sim.seq += 1;
            sim.queue.push(Reverse(Scheduled {
                at: c.until,
                seq: sim.seq,
                to: c.proc,
                kind: EventKind::Recover,
            }));
        }
        sim
    }

    /// Takes the captured trace out of the simulator (`None` when tracing
    /// was disabled). Call after [`Sim::run`].
    pub fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.tracer.take()
    }

    /// Immutable access to a driver (e.g. to read results after `run`).
    pub fn process(&self, id: ProcId) -> &D {
        &self.procs[id as usize]
    }

    /// All drivers, in id order.
    pub fn processes(&self) -> &[D] {
        &self.procs
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Drains events until the queue is empty or `max_time` is reached,
    /// first delivering [`Input::Start`] to every driver in id order if no
    /// earlier call has. May be called again to resume. Returns the run's
    /// statistics so far.
    pub fn run(&mut self, max_time: SimTime) -> SimStats {
        if !self.started {
            self.started = true;
            for id in 0..self.procs.len() as ProcId {
                self.step(id, Input::Start);
            }
        }
        while let Some(Reverse(ev)) = self.queue.pop() {
            if ev.at > max_time {
                // Leave the event unprocessed; time stops at max_time.
                self.queue.push(Reverse(ev));
                break;
            }
            self.now = ev.at;
            let to = ev.to;
            if self.faults.is_crashed(to, self.now) {
                // A recovery swallowed by an overlapping crash interval is
                // not an occurrence at all: skip it without counting.
                if matches!(ev.kind, EventKind::Recover) {
                    continue;
                }
                self.stats.dropped += 1;
                if let EventKind::Deliver { .. } = ev.kind {
                    self.tracer.record_local(
                        self.now,
                        to,
                        TraceAction::Drop {
                            to,
                            cause: DropCause::Crashed,
                        },
                    );
                }
                continue;
            }
            match ev.kind {
                EventKind::Deliver { from, msg, stamp } => {
                    self.stats.delivered += 1;
                    self.tracer.record_deliver(self.now, to, from, stamp);
                    self.step(to, Input::Deliver { from, msg });
                }
                EventKind::Timer { token } => {
                    self.stats.timers += 1;
                    self.tracer
                        .record_local(self.now, to, TraceAction::TimerFire { token });
                    self.step(to, Input::Timer { token });
                }
                EventKind::Recover => {
                    self.tracer.record_local(self.now, to, TraceAction::Recover);
                    self.step(to, Input::Recover);
                }
            }
        }
        self.stats.end_time = self.now;
        self.stats
    }

    /// Hands `input` to driver `id`, then applies the sends and timers it
    /// buffered.
    fn step(&mut self, id: ProcId, input: Input<M>) {
        let mut ctx = Ctx::new(self.now, id, &mut self.rng, &mut self.tracer);
        self.procs[id as usize].handle(&mut ctx, input);
        let (outbox, timers) = ctx.into_effects();
        for (to, msg, weight) in outbox {
            self.stats.sent += 1;
            self.stats.payload_msgs += weight as usize;
            // Random loss and partitions are assessed at send time,
            // receiver crashes at delivery time.
            let dropped = if self.rng.gen_bool(self.net.drop_prob) {
                Some(DropCause::Random)
            } else if self.faults.is_partitioned(id, to, self.now) {
                Some(DropCause::Partition)
            } else {
                None
            };
            if let Some(cause) = dropped {
                self.stats.dropped += 1;
                self.tracer
                    .record_local(self.now, id, TraceAction::Drop { to, cause });
                continue;
            }
            let stamp = self.tracer.record_send(self.now, id, to);
            let mut delay = self.rng.gen_range(self.net.min_delay..=self.net.max_delay);
            // Chaos draws are gated on their knobs being set so the RNG
            // stream — and thus every existing seed's execution — is
            // untouched under the default configuration.
            if self.net.reorder_window > 0 {
                let penalty = self.rng.gen_range(0..=self.net.reorder_window);
                if penalty > 0 {
                    self.stats.reordered += 1;
                    self.tracer
                        .record_local(self.now, id, TraceAction::NetReorder { to });
                    delay += penalty;
                }
            }
            if self.net.dup_prob > 0.0 && self.rng.gen_bool(self.net.dup_prob) {
                let dup_delay = self.rng.gen_range(self.net.min_delay..=self.net.max_delay);
                self.stats.duplicated += 1;
                self.tracer
                    .record_local(self.now, id, TraceAction::NetDup { to });
                self.seq += 1;
                self.queue.push(Reverse(Scheduled {
                    at: self.now + dup_delay,
                    seq: self.seq,
                    to,
                    kind: EventKind::Deliver {
                        from: id,
                        msg: msg.clone(),
                        stamp,
                    },
                }));
            }
            self.seq += 1;
            self.queue.push(Reverse(Scheduled {
                at: self.now + delay,
                seq: self.seq,
                to,
                kind: EventKind::Deliver {
                    from: id,
                    msg,
                    stamp,
                },
            }));
        }
        for (delay, token) in timers {
            self.seq += 1;
            self.queue.push(Reverse(Scheduled {
                at: self.now + delay,
                seq: self.seq,
                to: id,
                kind: EventKind::Timer { token },
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flood: node 0 broadcasts; others record receipt time.
    struct Flood {
        got: Option<SimTime>,
        n: u32,
    }

    impl Driver<()> for Flood {
        fn handle<IO: Io<()> + ?Sized>(&mut self, io: &mut IO, input: Input<()>) {
            match input {
                Input::Start if io.me() == 0 => {
                    for i in 1..self.n {
                        io.send(i, ());
                    }
                }
                Input::Deliver { .. } => self.got = Some(io.now()),
                _ => {}
            }
        }
    }

    fn flood(n: u32) -> Vec<Flood> {
        (0..n).map(|_| Flood { got: None, n }).collect()
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let mut sim = Sim::new(flood(5), NetworkConfig::default(), FaultPlan::none(), 1);
        let stats = sim.run(1_000);
        assert_eq!(stats.sent, 4);
        assert_eq!(stats.delivered, 4);
        for i in 1..5 {
            assert!(sim.process(i).got.is_some());
        }
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut sim = Sim::new(flood(5), NetworkConfig::default(), FaultPlan::none(), seed);
            sim.run(1_000);
            (0..5).map(|i| sim.process(i).got).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        // Different seeds almost surely differ in some delivery time.
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn crashed_receiver_drops_messages() {
        let mut faults = FaultPlan::none();
        faults.crash(2, 0, 1_000_000);
        let mut sim = Sim::new(flood(4), NetworkConfig::default(), faults, 1);
        let stats = sim.run(1_000);
        assert_eq!(stats.delivered, 2);
        assert_eq!(stats.dropped, 1);
        assert!(sim.process(2).got.is_none());
    }

    #[test]
    fn partition_severs_cross_block_traffic() {
        let mut faults = FaultPlan::none();
        faults.partition([0, 1], 0, 1_000_000);
        let mut sim = Sim::new(flood(4), NetworkConfig::default(), faults, 1);
        let stats = sim.run(1_000);
        // Only node 1 shares node 0's block.
        assert_eq!(stats.delivered, 1);
        assert!(sim.process(1).got.is_some());
        assert!(sim.process(2).got.is_none());
    }

    #[test]
    fn random_drops_lose_messages() {
        let net = NetworkConfig {
            drop_prob: 1.0,
            ..NetworkConfig::default()
        };
        let mut sim = Sim::new(flood(3), net, FaultPlan::none(), 1);
        let stats = sim.run(1_000);
        assert_eq!(stats.delivered, 0);
        assert_eq!(stats.dropped, 2);
    }

    /// Timers fire at the right times and respect crashes.
    struct Ticker {
        fired: Vec<(SimTime, u64)>,
    }
    impl Driver<()> for Ticker {
        fn handle<IO: Io<()> + ?Sized>(&mut self, io: &mut IO, input: Input<()>) {
            match input {
                Input::Start => {
                    io.set_timer(5, 1);
                    io.set_timer(10, 2);
                }
                Input::Timer { token } => self.fired.push((io.now(), token)),
                _ => {}
            }
        }
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = Sim::new(
            vec![Ticker { fired: Vec::new() }],
            NetworkConfig::default(),
            FaultPlan::none(),
            1,
        );
        sim.run(1_000);
        assert_eq!(sim.process(0).fired, vec![(5, 1), (10, 2)]);
    }

    #[test]
    fn timers_skipped_while_crashed() {
        let mut faults = FaultPlan::none();
        faults.crash(0, 4, 6); // swallow the t=5 timer
        let mut sim = Sim::new(
            vec![Ticker { fired: Vec::new() }],
            NetworkConfig::default(),
            faults,
            1,
        );
        sim.run(1_000);
        assert_eq!(sim.process(0).fired, vec![(10, 2)]);
    }

    #[test]
    fn duplication_delivers_twice() {
        let net = NetworkConfig {
            dup_prob: 1.0,
            ..NetworkConfig::default()
        };
        let mut sim = Sim::new(flood(3), net, FaultPlan::none(), 1);
        let stats = sim.run(1_000);
        assert_eq!(stats.sent, 2);
        assert_eq!(stats.duplicated, 2);
        assert_eq!(stats.delivered, 4);
    }

    #[test]
    fn reorder_window_defers_some_messages() {
        let net = NetworkConfig {
            reorder_window: 50,
            ..NetworkConfig::default()
        };
        let run = |seed| {
            let mut sim = Sim::new(flood(8), net, FaultPlan::none(), seed);
            let stats = sim.run(1_000);
            let got: Vec<_> = (0..8).map(|i| sim.process(i).got).collect();
            (stats, got)
        };
        let (stats, _) = run(5);
        assert!(stats.reordered > 0, "window 50 over 7 sends must defer one");
        assert_eq!(stats.delivered, 7);
        // Still a pure function of the seed.
        assert_eq!(run(5), run(5));
    }

    /// Records recovery times.
    struct Phoenix {
        recovered: Vec<SimTime>,
    }
    impl Driver<()> for Phoenix {
        fn handle<IO: Io<()> + ?Sized>(&mut self, io: &mut IO, input: Input<()>) {
            match input {
                // Keep the queue non-empty past the crash window.
                Input::Start => io.set_timer(100, 0),
                Input::Recover => self.recovered.push(io.now()),
                _ => {}
            }
        }
    }

    #[test]
    fn recovery_hook_fires_at_crash_end() {
        let mut faults = FaultPlan::none();
        faults.crash(0, 4, 6);
        let mut sim = Sim::new(
            vec![Phoenix {
                recovered: Vec::new(),
            }],
            NetworkConfig::default(),
            faults,
            1,
        );
        sim.run(1_000);
        assert_eq!(sim.process(0).recovered, vec![6]);
    }

    #[test]
    fn overlapping_crash_swallows_inner_recovery() {
        let mut faults = FaultPlan::none();
        faults.crash(0, 4, 6).crash(0, 5, 20);
        let mut sim = Sim::new(
            vec![Phoenix {
                recovered: Vec::new(),
            }],
            NetworkConfig::default(),
            faults,
            1,
        );
        let stats = sim.run(1_000);
        // The t=6 recovery lands inside the second interval: suppressed,
        // and not counted as a drop.
        assert_eq!(sim.process(0).recovered, vec![20]);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn traced_run_captures_sends_and_delivers() {
        let mut sim = Sim::with_trace(
            flood(3),
            NetworkConfig::default(),
            FaultPlan::none(),
            1,
            TraceConfig::unbounded(),
        );
        sim.run(1_000);
        let buf = sim.take_trace().expect("tracing enabled");
        let sends = buf.events().iter().filter(|e| e.action.kind() == "send");
        let delivers = buf.events().iter().filter(|e| e.action.kind() == "deliver");
        assert_eq!(sends.count(), 2);
        assert_eq!(delivers.count(), 2);
        // Delivery Lamport stamps exceed their matching send stamps.
        for e in buf.events() {
            if let TraceAction::Deliver { from } = e.action {
                let send_stamp = buf
                    .events()
                    .iter()
                    .find(|s| {
                        s.site == from
                            && matches!(s.action, TraceAction::Send { to } if to == e.site)
                    })
                    .unwrap()
                    .lamport;
                assert!(e.lamport > send_stamp);
            }
        }
    }

    #[test]
    fn untraced_run_yields_no_trace() {
        let mut sim = Sim::new(flood(3), NetworkConfig::default(), FaultPlan::none(), 1);
        sim.run(1_000);
        assert!(sim.take_trace().is_none());
    }

    #[test]
    fn traced_and_untraced_runs_are_identical() {
        // Capturing a trace must not perturb the execution: the RNG stream
        // is consumed identically either way.
        let run = |trace| {
            let mut sim = Sim::with_trace(
                flood(5),
                NetworkConfig::default(),
                FaultPlan::none(),
                3,
                trace,
            );
            let stats = sim.run(1_000);
            let got: Vec<_> = (0..5).map(|i| sim.process(i).got).collect();
            (stats, got)
        };
        assert_eq!(run(TraceConfig::disabled()), run(TraceConfig::unbounded()));
    }

    #[test]
    fn trace_render_is_deterministic() {
        let render = || {
            let mut faults = FaultPlan::none();
            faults.crash(2, 5, 30);
            let mut sim = Sim::with_trace(
                flood(5),
                NetworkConfig::default(),
                faults,
                9,
                TraceConfig::unbounded(),
            );
            sim.run(1_000);
            sim.take_trace().unwrap().render()
        };
        assert_eq!(render(), render());
    }

    #[test]
    fn max_time_stops_the_run() {
        let mut sim = Sim::new(
            vec![Ticker { fired: Vec::new() }],
            NetworkConfig::default(),
            FaultPlan::none(),
            1,
        );
        let stats = sim.run(7);
        assert_eq!(sim.process(0).fired, vec![(5, 1)]);
        assert_eq!(stats.timers, 1);
        // Resuming picks the pending timer back up.
        sim.run(1_000);
        assert_eq!(sim.process(0).fired.len(), 2);
    }

    /// Counts its boots and arms one timer per boot.
    struct Boots(u32);
    impl Driver<()> for Boots {
        fn handle<IO: Io<()> + ?Sized>(&mut self, io: &mut IO, input: Input<()>) {
            if let Input::Start = input {
                self.0 += 1;
                io.set_timer(5, 0);
            }
        }
    }

    #[test]
    fn start_is_delivered_once_across_resumed_runs() {
        // The first call processes no event (the timer is due at t=5), so
        // nothing but a flag can tell the second call the drivers booted.
        let mut sim = Sim::new(
            vec![Boots(0)],
            NetworkConfig::default(),
            FaultPlan::none(),
            1,
        );
        sim.run(0);
        let stats = sim.run(1_000);
        assert_eq!(sim.process(0).0, 1);
        assert_eq!(stats.timers, 1);
    }
}
