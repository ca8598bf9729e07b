//! The deterministic discrete-event simulator: [`Driver`]s exchange
//! messages over a lossy, delaying, crash- and partition-prone network.
//! [`Sim`] runs the loop that serves sockets, [`host::run`], over a
//! [`Loopback`] (the network model [`NetworkConfig::fate`], virtual
//! time), with the fault plan's crash windows as its [`CrashScript`].
//!
//! Determinism: executions are a pure function of (drivers, network
//! config, fault plan, seed). The network draws from one stream seeded
//! with the seed; node `k`'s collector from its own, seeded
//! `seed ^ splitmix64(k + 1)`.

use crate::fault::{FaultPlan, ProcId, SimTime};
use crate::host::{self, CrashScript, Loopback};
use crate::node::{CollectIo, Driver};
use crate::splitmix64;
use crate::trace::{DropCause, TraceBuffer, TraceConfig, Tracer};
use rand::Rng;
use std::rc::Rc;

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

    /// Decides at send time what the network does with one message —
    /// the one network model, drawn by the [`Loopback`] transport
    /// [`Sim`] runs over: `Err` with why it is lost (`severed`
    /// says a partition cuts the link now), or `Ok((delay, reordered,
    /// dup))` — ticks in flight, whether a reorder penalty is part of
    /// them, and a duplicate's own ticks in flight. The draws come from
    /// `rng` in a fixed order: the drop, then (past the partition) the
    /// delay, the reorder penalty and the duplicate with its delay. The
    /// last two are drawn only when their knob is set, so the default
    /// configuration's stream — every seed's execution — is unmoved.
    pub fn fate<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        severed: bool,
    ) -> Result<(SimTime, bool, Option<SimTime>), DropCause> {
        if rng.gen_bool(self.drop_prob) {
            return Err(DropCause::Random);
        }
        if severed {
            return Err(DropCause::Partition);
        }
        let mut delay = rng.gen_range(self.min_delay..=self.max_delay);
        let mut reordered = false;
        if self.reorder_window > 0 {
            let penalty = rng.gen_range(0..=self.reorder_window);
            reordered = penalty > 0;
            delay += penalty;
        }
        let dup = (self.dup_prob > 0.0 && rng.gen_bool(self.dup_prob))
            .then(|| rng.gen_range(self.min_delay..=self.max_delay));
        Ok((delay, reordered, dup))
    }
}

/// Counters describing one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Messages submitted to the network.
    pub sent: usize,
    /// Logical payloads submitted: like `sent`, but a batch envelope sent
    /// with [`Io::send_weighted`](crate::node::Io::send_weighted) counts its full weight. Equal to
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
    /// Final simulated time: the tick of the run's last event (a
    /// delivery, drop, timer, or crash window opening or closing).
    pub end_time: SimTime,
}

impl SimStats {
    /// Folds the counters of one run's loops (one per thread): the run
    /// ends when the last of them stopped.
    pub fn total<'a>(ran: impl IntoIterator<Item = &'a SimStats>) -> SimStats {
        ran.into_iter().fold(SimStats::default(), |t, r| SimStats {
            sent: t.sent + r.sent,
            payload_msgs: t.payload_msgs + r.payload_msgs,
            delivered: t.delivered + r.delivered,
            dropped: t.dropped + r.dropped,
            duplicated: t.duplicated + r.duplicated,
            reordered: t.reordered + r.reordered,
            timers: t.timers + r.timers,
            end_time: t.end_time.max(r.end_time),
        })
    }
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
    nodes: Vec<(D, CollectIo<M>)>,
    net: Loopback<M>,
    /// The crash windows, until [`Sim::run`] hands them to the loop.
    script: Option<CrashScript>,
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
        let nodes: Vec<_> = (0..)
            .zip(procs)
            .map(|(k, d): (ProcId, D)| {
                let io = CollectIo::new(k, seed ^ splitmix64(u64::from(k) + 1));
                (d, io.traced(trace.is_enabled()))
            })
            .collect();
        let crashes = faults.crashes().iter();
        let script = CrashScript::new(crashes.map(|c| (c.proc as usize, c.from, c.until)));
        let mut tracer = Tracer::new(trace, nodes.len());
        tracer.prologue(&faults);
        let mut net = Loopback::new(net, faults, seed, 0);
        net.tracer = tracer;
        Sim {
            nodes,
            net,
            script: Some(script),
        }
    }

    /// Takes the captured trace out of the simulator (`None` when tracing
    /// was disabled). Call after [`Sim::run`].
    pub fn take_trace(&mut self) -> Option<TraceBuffer> {
        self.net.tracer.take()
    }

    /// Immutable access to a driver (e.g. to read results after `run`).
    pub fn process(&self, id: ProcId) -> &D {
        &self.nodes[id as usize].0
    }

    /// All drivers, in id order.
    pub fn processes(&self) -> impl Iterator<Item = &D> {
        self.nodes.iter().map(|(d, _)| d)
    }

    /// Delivers [`Input::Start`](crate::node::Input::Start) to every
    /// driver in id order, then steps the run until nothing is in flight,
    /// no timer is armed and no crash window is left to open or close —
    /// or until all that is left lies past `max_time`. Returns the run's
    /// statistics.
    ///
    /// # Panics
    ///
    /// On a second call: a run does not resume.
    pub fn run(&mut self, max_time: SimTime) -> SimStats {
        let script = self.script.take().expect("a simulation runs once");
        self.net.horizon = max_time;
        let clock = self.net.clock.clone();
        let idle = Rc::clone(&self.net.idle);
        let ran = host::run(
            &mut self.nodes,
            &mut self.net,
            &clock,
            script,
            |_| 0,
            |_, _| idle.get(),
        );
        SimStats::total([&ran, &self.net.stats])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Input, Io};
    use crate::trace::TraceAction;

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

    /// Arms a timer and traces at every input; node 0 messages node 1.
    struct Tattler;
    impl Driver<()> for Tattler {
        fn handle<IO: Io<()> + ?Sized>(&mut self, io: &mut IO, input: Input<()>) {
            io.trace(TraceAction::Commit {
                action: u64::from(io.me()),
            });
            if let Input::Start = input {
                io.set_timer(3, 7);
                if io.me() == 0 {
                    io.send(1, ());
                }
            }
        }
    }

    #[test]
    fn traced_run_records_what_the_loop_and_the_drivers_do() {
        let mut faults = FaultPlan::none();
        faults.crash(1, 0, 20);
        let mut sim = Sim::with_trace(
            vec![Tattler, Tattler],
            NetworkConfig::default(),
            faults,
            1,
            TraceConfig::unbounded(),
        );
        sim.run(1_000);
        let buf = sim.take_trace().expect("tracing enabled");
        let lines: Vec<String> = buf
            .events()
            .iter()
            .filter(|e| e.lamport > 0)
            .map(|e| format!("{} {}", e.site, e.action))
            .collect();
        let at = |line: &str| lines.iter().position(|l| l == line);
        // A driver's own record lands after its input and before its sends.
        assert!(at("0 commit action=0") < at("0 send to=1"), "{lines:?}");
        assert!(at("0 timer token=7").is_some(), "{lines:?}");
        // Node 1 is dark until t=20: the message and the timer are lost.
        assert!(at("1 net-drop to=1 cause=crashed").is_some(), "{lines:?}");
        assert!(at("1 timer token=7").is_none(), "{lines:?}");
        // It recovers once, and traces that input right after the record.
        let recover = at("1 recover").expect("node 1 recovers");
        assert_eq!(lines[recover + 1], "1 commit action=1");
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
        // Time stops at the last event, not at the horizon.
        assert_eq!(stats.end_time, 5);
    }
}
