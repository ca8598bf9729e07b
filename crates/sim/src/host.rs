//! The one stepping loop: [`run`] steps sans-I/O [`Driver`]s over any
//! [`Transport`], in virtual time or on the wall clock.
//!
//! Hosting is a detail of the protocol core (DESIGN §3.14), so it is
//! written once. [`run`] owns the `set_now → handle → drain outputs` turn,
//! the `(due, seq)`-ordered [`Timers`], staggered [`Input::Start`]s, the
//! [`CrashScript`], the stop check and idle parking; a [`Transport`] hides
//! only *who carries the messages*: the in-memory [`Loopback`] on a
//! [`ManualClock`] (the simulator, [`Sim`](crate::engine::Sim)), framed
//! nonblocking sockets, or supervised reconnecting links
//! (`quorumcc_net::load`).

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::engine::{NetworkConfig, SimStats};
use crate::fault::{FaultPlan, ProcId, SimTime};
use crate::node::{CollectIo, Driver, Input, Io as _, Output};
use crate::trace::{DropCause, TraceAction, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Who carries the messages. [`run`] calls `poll` until it returns `None`
/// (the whole ready backlog), fires due timers, then `flush`es once and
/// `park`s — so an implementation may batch writes behind `send` and pay
/// for them once per turn.
pub trait Transport<M> {
    /// The next ready delivery as `(to, from, msg)`, without blocking.
    /// `to` must be the id of a hosted node.
    fn poll(&mut self) -> Option<(ProcId, ProcId, M)>;

    /// Carries `msg` from hosted node `from` towards `to`. Undeliverable
    /// messages are dropped, as a lossy link would.
    fn send(&mut self, from: ProcId, to: ProcId, msg: M);

    /// Pushes out everything `send` buffered this turn.
    fn flush(&mut self);

    /// Idles until a delivery is ready or `max` elapses, whichever comes
    /// first (a transport may wake earlier on its own schedule).
    fn park(&mut self, max: Duration);

    /// Hosted node `node` entered a scripted crash window: sever what a
    /// dead process would lose.
    fn crashed(&mut self, _node: ProcId) {}

    /// Hosted node `node` left its crash window.
    fn recovered(&mut self, _node: ProcId) {}

    /// Whether this is the simulator's transport: one that keeps the run's
    /// trace and puts its deliveries and the loop's timers on one
    /// `(tick, sequence)` line. Known at compile time, so a socket host's
    /// step pays for neither.
    const SIMULATED: bool = false;

    /// Records `action` at `site` in the run's trace (only a traced
    /// [`Loopback`] keeps one): what a node traced, and what the loop fed
    /// it or dropped. A `Deliver` is the delivery `poll` handed out last.
    fn record(&mut self, _t: SimTime, _site: ProcId, _action: TraceAction) {}

    /// How many messages a [`SIMULATED`](Transport::SIMULATED) transport
    /// has queued so far: a timer armed now goes after those of them due
    /// at its tick and before the rest.
    fn queued(&self) -> u64 {
        0
    }

    /// The `(tick, sequence)` of the next ready delivery of a
    /// [`SIMULATED`](Transport::SIMULATED) transport, whose sequence
    /// counts [`queued`](Transport::queued) messages.
    fn next_ready(&self) -> Option<(SimTime, u64)> {
        None
    }
}

/// The host's notion of time: a monotonic count of one-microsecond ticks
/// since the run's epoch, the unit [`run`] parks in.
pub trait Clock {
    /// Ticks since the run's epoch.
    fn now(&self) -> SimTime;
}

/// Wall-clock microseconds since a shared epoch.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// A clock whose tick 0 is `epoch`.
    pub fn new(epoch: Instant) -> Self {
        WallClock { epoch }
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        self.epoch.elapsed().as_micros() as SimTime
    }
}

/// Virtual time, moved only by a [`Loopback`]'s `park`. Clones share one
/// reading.
#[derive(Debug, Clone, Default)]
pub struct ManualClock(Rc<Cell<SimTime>>);

impl Clock for ManualClock {
    fn now(&self) -> SimTime {
        self.0.get()
    }
}

/// One pending timer: `(due, transport sequence, arming order, node,
/// token)`.
type Armed = (SimTime, u64, u64, usize, u64);

/// Pending timers, fired in `(due, transport sequence, arming order)`
/// order: a timer goes after the messages its transport had queued when
/// it was armed ([`Transport::queued`]; always 0 on the socket
/// transports).
#[derive(Debug, Default)]
pub struct Timers {
    heap: BinaryHeap<Reverse<Armed>>,
    seq: u64,
}

impl Timers {
    /// Arms a timer for node index `node`, due at tick `due`, after the
    /// `queued` messages its transport holds.
    pub fn arm(&mut self, due: SimTime, queued: u64, node: usize, token: u64) {
        self.heap
            .push(Reverse((due, queued, self.seq, node, token)));
        self.seq += 1;
    }

    /// The earliest due tick, if any timer is pending.
    pub fn next_due(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((due, ..))| *due)
    }

    /// Whether the next timer is due at `now` and goes before `delivery`,
    /// the `(tick, sequence)` of the next ready delivery (`None`: there is
    /// none, or its transport keeps no such line).
    fn precedes(&self, now: SimTime, delivery: Option<(SimTime, u64)>) -> bool {
        match self.heap.peek() {
            Some(Reverse((due, queued, ..))) if *due <= now => {
                delivery.is_none_or(|at| (*due, *queued) < at)
            }
            _ => false,
        }
    }

    /// Pops the next timer due at or before `now` and ordered before
    /// `delivery`, the `(tick, sequence)` of the next ready delivery, as
    /// `(node, token)`.
    pub fn pop_due(
        &mut self,
        now: SimTime,
        delivery: Option<(SimTime, u64)>,
    ) -> Option<(usize, u64)> {
        if !self.precedes(now, delivery) {
            return None;
        }
        self.heap
            .pop()
            .map(|Reverse((_, _, _, node, token))| (node, token))
    }

    /// Drops `node`'s timers due inside `[from, until)`; returns how many.
    fn drop_window(&mut self, node: usize, from: SimTime, until: SimTime) -> usize {
        let before = self.heap.len();
        self.heap
            .retain(|Reverse((due, _, _, n, _))| *n != node || *due < from || *due >= until);
        before - self.heap.len()
    }
}

/// Scripted crash windows (none by default): while a node is dark every
/// delivery to it and every timer of its that comes due is dropped, and it
/// receives exactly one [`Input::Recover`] when the window closes — also
/// when the loop slept across the whole window.
#[derive(Debug, Default)]
pub struct CrashScript {
    victims: Vec<Victim>,
}

#[derive(Debug)]
struct Victim {
    node: usize,
    /// Sorted, disjoint `[from, until)` windows in ticks.
    windows: Vec<(SimTime, SimTime)>,
    next: usize,
    dark: bool,
}

impl CrashScript {
    /// A script from `(node index, from, until)` windows in ticks.
    /// Overlapping windows of one node merge (one recovery at the end of
    /// the union, as under the DES).
    pub fn new(windows: impl IntoIterator<Item = (usize, SimTime, SimTime)>) -> Self {
        let mut all: Vec<_> = windows.into_iter().collect();
        all.sort_unstable();
        let mut victims: Vec<Victim> = Vec::new();
        for (node, from, until) in all {
            match victims.last_mut() {
                Some(v) if v.node == node => match v.windows.last_mut() {
                    Some(last) if from <= last.1 => last.1 = last.1.max(until),
                    _ => v.windows.push((from, until)),
                },
                _ => victims.push(Victim {
                    node,
                    windows: vec![(from, until)],
                    next: 0,
                    dark: false,
                }),
            }
        }
        CrashScript { victims }
    }

    fn is_dark(&self, node: usize) -> bool {
        self.victims.iter().any(|v| v.dark && v.node == node)
    }

    /// The next tick at which some node crashes or recovers.
    fn next_edge(&self) -> Option<SimTime> {
        self.victims
            .iter()
            .filter_map(|v| {
                let (from, until) = *v.windows.get(v.next)?;
                Some(if v.dark { until } else { from })
            })
            .min()
    }
}

/// The nodes being stepped plus everything a step touches.
struct Stepper<'a, M, N, T> {
    nodes: &'a mut [(N, CollectIo<M>)],
    transport: &'a mut T,
    timers: Timers,
    done: Vec<bool>,
    /// How many nodes reported [`Driver::is_done`].
    finished: usize,
    stats: SimStats,
}

impl<M, N: Driver<M>, T: Transport<M>> Stepper<'_, M, N, T> {
    /// The driver-stepping turn: stamp the time, feed one input, record
    /// what the node traced, route the buffered effects. Inlined into the
    /// loop: the ~230-byte inputs and outputs are otherwise copied at each
    /// call boundary (measured ~2% of the socket host's throughput on its
    /// per-message-bound workload).
    #[inline]
    fn step(&mut self, k: usize, now: SimTime, input: Input<M>) {
        let (node, io) = &mut self.nodes[k];
        io.set_now(now);
        node.handle(io, input);
        let me = io.me();
        if T::SIMULATED && io.tracing() {
            for action in io.drain_traces() {
                self.transport.record(now, me, action);
            }
        }
        for out in io.take_outputs() {
            match out {
                Output::Send { to, msg, weight } => {
                    self.stats.sent += 1;
                    self.stats.payload_msgs += weight as usize;
                    self.transport.send(me, to, msg);
                }
                Output::SetTimer { delay, token } => {
                    let queued = self.transport.queued();
                    self.timers.arm(now.saturating_add(delay), queued, k, token);
                }
            }
        }
        if !self.done[k] && node.is_done() {
            self.done[k] = true;
            self.finished += 1;
        }
    }
}

/// Hosts `nodes` (consecutive process ids, each with its own collector)
/// over `transport` until `until` says stop.
///
/// Node `k` receives [`Input::Start`] once `start_at(k)` (nondecreasing in
/// `k`) has passed. Each turn drains the transport's ready backlog, fires
/// the timers that came due (interleaved with the deliveries in one
/// `(tick, sequence)` order on a [`SIMULATED`](Transport::SIMULATED)
/// transport, as a discrete-event queue would), flushes once, asks
/// `until` (handed the count of finished nodes and the tick the turn
/// began at, so every start and window edge due by then has been
/// handled) whether to stop — so nothing a node emitted is ever left
/// unflushed — and otherwise parks until the next timer, start or
/// crash-window edge.
///
/// Returns what the loop counted: messages handed to the transport,
/// deliveries and timers handed to a node, those a crash window swallowed
/// (`dropped`), and the tick it stopped at (`end_time`). Loss and
/// duplication inside a transport are the transport's to add.
pub fn run<M, N, T, C>(
    nodes: &mut [(N, CollectIo<M>)],
    transport: &mut T,
    clock: &C,
    mut script: CrashScript,
    start_at: impl Fn(usize) -> SimTime,
    mut until: impl FnMut(usize, SimTime) -> bool,
) -> SimStats
where
    N: Driver<M>,
    T: Transport<M>,
    C: Clock,
{
    let n = nodes.len();
    let base = nodes.first().map_or(0, |(_, io)| io.me());
    let mut h = Stepper {
        nodes,
        transport,
        timers: Timers::default(),
        done: vec![false; n],
        finished: 0,
        stats: SimStats::default(),
    };
    let mut next_start = 0usize;
    loop {
        let turn = clock.now();
        while next_start < n && start_at(next_start) <= turn {
            h.step(next_start, turn, Input::Start);
            next_start += 1;
        }
        for v in &mut script.victims {
            while let Some(&(from, until)) = v.windows.get(v.next) {
                if turn < from {
                    break;
                }
                let id = base + v.node as ProcId;
                if !v.dark {
                    v.dark = true;
                    h.transport.crashed(id);
                }
                if turn < until {
                    break;
                }
                v.dark = false;
                v.next += 1;
                h.stats.dropped += h.timers.drop_window(v.node, from, until);
                h.transport.recovered(id);
                h.transport.record(turn, id, TraceAction::Recover);
                h.step(v.node, turn, Input::Recover);
            }
        }
        // On a simulated transport a due timer goes before a ready
        // delivery queued after it was armed; the socket transports hand
        // out their whole backlog first.
        let mut now = turn;
        loop {
            while !(T::SIMULATED && h.timers.precedes(now, h.transport.next_ready())) {
                let Some((to, from, msg)) = h.transport.poll() else {
                    break;
                };
                let (k, now) = ((to - base) as usize, clock.now());
                if script.is_dark(k) {
                    h.stats.dropped += 1;
                    let cause = DropCause::Crashed;
                    h.transport.record(now, to, TraceAction::Drop { to, cause });
                    continue;
                }
                h.transport.record(now, to, TraceAction::Deliver { from });
                h.step(k, now, Input::Deliver { from, msg });
                h.stats.delivered += 1;
            }
            now = clock.now();
            while let Some((k, token)) = h.timers.pop_due(now, h.transport.next_ready()) {
                if script.is_dark(k) {
                    h.stats.dropped += 1;
                    continue;
                }
                h.transport
                    .record(now, base + k as ProcId, TraceAction::TimerFire { token });
                h.step(k, now, Input::Timer { token });
                h.stats.timers += 1;
            }
            if h.transport.next_ready().is_none() {
                break;
            }
        }
        h.transport.flush();
        if until(h.finished, turn) {
            h.stats.end_time = turn;
            return h.stats;
        }
        let wake = [
            h.timers.next_due(),
            (next_start < n).then(|| start_at(next_start)),
            script.next_edge(),
        ]
        .into_iter()
        .flatten()
        .min();
        let wait = wake.map_or(Duration::MAX, |due| {
            Duration::from_micros(due.saturating_sub(now))
        });
        h.transport.park(wait);
    }
}

/// The deterministic in-memory network: one thread, a [`ManualClock`] and
/// the network model of [`NetworkConfig`]. A send's fate is
/// [`NetworkConfig::fate`] on a stream seeded with the run seed, with
/// partitions cut at send time; what survives waits in one queue by
/// `(arrival, send order)`. `park` moves the clock to the next arrival
/// or the loop's wake-up; when that lies past the horizon the clock stays
/// at the last event and [`Loopback::idle`] is set. A traced loopback
/// keeps the run's one recorder: it records each send's fate as it draws
/// it, and [`Transport::record`] takes what the loop records.
#[derive(Debug)]
pub struct Loopback<M> {
    /// The clock `park` moves; hand it to [`run`].
    pub clock: ManualClock,
    /// Set once nothing is left at or before the horizon: the
    /// simulator's stop condition, readable while [`run`] holds the
    /// transport.
    pub idle: Rc<Cell<bool>>,
    /// The network's own counters — `dropped` (random loss and
    /// partitions), `duplicated` and `reordered`; the loop counts the rest.
    pub stats: SimStats,
    net: NetworkConfig,
    faults: FaultPlan,
    rng: StdRng,
    pub(crate) horizon: SimTime,
    pub(crate) tracer: Tracer,
    /// In flight: `(to, from, msg, Lamport stamp of the send)`.
    queue: BTreeMap<(SimTime, u64), (ProcId, ProcId, M, u64)>,
    sends: u64,
    /// The stamp of the delivery `poll` handed out last.
    polled: u64,
}

impl<M> Loopback<M> {
    /// An empty, untraced network at tick 0 whose clock stops at
    /// `horizon`.
    pub fn new(net: NetworkConfig, faults: FaultPlan, seed: u64, horizon: SimTime) -> Self {
        let (clock, idle, stats, queue, sends, polled) = Default::default();
        Loopback {
            clock,
            idle,
            stats,
            net,
            faults,
            rng: StdRng::seed_from_u64(seed),
            horizon,
            tracer: Tracer::default(),
            queue,
            sends,
            polled,
        }
    }

    fn push(&mut self, at: SimTime, to: ProcId, from: ProcId, msg: M, stamp: u64) {
        self.sends += 1;
        self.queue.insert((at, self.sends), (to, from, msg, stamp));
    }
}

impl<M: Clone> Transport<M> for Loopback<M> {
    const SIMULATED: bool = true;

    fn poll(&mut self) -> Option<(ProcId, ProcId, M)> {
        let now = self.clock.now();
        let due = self.queue.first_entry().filter(|e| e.key().0 <= now)?;
        let (to, from, msg, stamp) = due.remove();
        self.polled = stamp;
        Some((to, from, msg))
    }

    fn send(&mut self, from: ProcId, to: ProcId, msg: M) {
        let now = self.clock.now();
        let severed = self.faults.is_partitioned(from, to, now);
        let (delay, reordered, dup) = match self.net.fate(&mut self.rng, severed) {
            Ok(fate) => fate,
            Err(cause) => {
                self.stats.dropped += 1;
                self.tracer
                    .record_local(now, from, TraceAction::Drop { to, cause });
                return;
            }
        };
        let stamp = self.tracer.record_send(now, from, to);
        if reordered {
            self.stats.reordered += 1;
            self.tracer
                .record_local(now, from, TraceAction::NetReorder { to });
        }
        if let Some(dup_delay) = dup {
            self.stats.duplicated += 1;
            self.tracer
                .record_local(now, from, TraceAction::NetDup { to });
            self.push(now + dup_delay, to, from, msg.clone(), stamp);
        }
        self.push(now + delay, to, from, msg, stamp);
    }

    /// Nothing is buffered: a send is in the queue at once.
    fn flush(&mut self) {}

    fn park(&mut self, max: Duration) {
        let now = self.clock.now();
        let wake = now.saturating_add(u64::try_from(max.as_micros()).unwrap_or(u64::MAX));
        let next = self.queue.keys().next().map_or(SimTime::MAX, |&(at, _)| at);
        match wake.min(next) {
            at if at > self.horizon => self.idle.set(true),
            at => self.clock.0.set(at.max(now)),
        }
    }

    fn record(&mut self, t: SimTime, site: ProcId, action: TraceAction) {
        match action {
            TraceAction::Deliver { from } => {
                self.tracer.record_deliver(t, site, from, self.polled);
            }
            _ => self.tracer.record_local(t, site, action),
        }
    }

    fn queued(&self) -> u64 {
        self.sends
    }

    fn next_ready(&self) -> Option<(SimTime, u64)> {
        let now = self.clock.now();
        self.queue
            .keys()
            .next()
            .copied()
            .filter(|&(at, _)| at <= now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Io;

    #[derive(Debug, PartialEq)]
    enum Call {
        Send,
        Flush,
        Park,
        Crashed(ProcId),
        Recovered(ProcId),
    }

    /// A [`Loopback`] on a zero-delay network (a send to a hosted node is
    /// ready in the same turn) that records what the loop asked of it.
    struct Mem {
        net: Loopback<u32>,
        /// One-shot: the next park overshoots to this tick, whatever `max`.
        oversleep_to: Option<SimTime>,
        calls: Vec<Call>,
        parks: Vec<Duration>,
    }

    impl Default for Mem {
        fn default() -> Self {
            let instant = NetworkConfig {
                min_delay: 0,
                max_delay: 0,
                ..NetworkConfig::default()
            };
            Mem {
                net: Loopback::new(instant, FaultPlan::none(), 0, SimTime::MAX),
                oversleep_to: None,
                calls: Vec::new(),
                parks: Vec::new(),
            }
        }
    }

    impl Mem {
        /// Mem with outside deliveries `(at, to, from, msg)` in flight.
        fn with_arrivals(arrivals: &[(SimTime, ProcId, ProcId, u32)]) -> Self {
            let mut mem = Mem::default();
            for &(at, to, from, msg) in arrivals {
                mem.net.push(at, to, from, msg, 0);
            }
            mem
        }

        /// The crash/recovery notices the host sent, in order.
        fn edges(&self) -> Vec<&Call> {
            self.calls
                .iter()
                .filter(|c| matches!(c, Call::Crashed(_) | Call::Recovered(_)))
                .collect()
        }
    }

    impl Transport<u32> for Mem {
        const SIMULATED: bool = true;

        fn poll(&mut self) -> Option<(ProcId, ProcId, u32)> {
            self.net.poll()
        }
        fn queued(&self) -> u64 {
            self.net.queued()
        }
        fn next_ready(&self) -> Option<(SimTime, u64)> {
            self.net.next_ready()
        }
        fn send(&mut self, from: ProcId, to: ProcId, msg: u32) {
            self.calls.push(Call::Send);
            self.net.send(from, to, msg);
        }
        fn flush(&mut self) {
            self.calls.push(Call::Flush);
        }
        fn park(&mut self, max: Duration) {
            self.calls.push(Call::Park);
            self.parks.push(max);
            match self.oversleep_to.take() {
                Some(t) => self.net.clock.0.set(t),
                None => self.net.park(max),
            }
        }
        fn crashed(&mut self, node: ProcId) {
            self.calls.push(Call::Crashed(node));
        }
        fn recovered(&mut self, node: ProcId) {
            self.calls.push(Call::Recovered(node));
        }
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Seen {
        Start,
        Msg(ProcId, u32),
        Timer(u64),
        Recover,
    }

    /// Records every input with its tick; on start arms `arm` as
    /// `(delay, token)` timers and sends `greet` to node 0.
    #[derive(Default)]
    struct Probe {
        arm: Vec<(SimTime, u64)>,
        greet: bool,
        seen: Vec<(SimTime, Seen)>,
        /// Done once this many inputs were seen (0 = never).
        done_after: usize,
    }

    impl Driver<u32> for Probe {
        fn handle<IO: Io<u32> + ?Sized>(&mut self, io: &mut IO, input: Input<u32>) {
            let seen = match input {
                Input::Start => {
                    for &(delay, token) in &self.arm {
                        io.set_timer(delay, token);
                    }
                    if self.greet {
                        io.send(0, 7);
                    }
                    Seen::Start
                }
                Input::Deliver { from, msg } => Seen::Msg(from, msg),
                Input::Timer { token } => Seen::Timer(token),
                Input::Recover => Seen::Recover,
            };
            self.seen.push((io.now(), seen));
        }
        fn is_done(&self) -> bool {
            self.done_after > 0 && self.seen.len() >= self.done_after
        }
    }

    fn hosted(probes: Vec<Probe>) -> Vec<(Probe, CollectIo<u32>)> {
        probes
            .into_iter()
            .enumerate()
            .map(|(i, p)| (p, CollectIo::new(i as ProcId, i as u64)))
            .collect()
    }

    /// Runs until the clock passes `horizon`.
    fn run_to(
        nodes: &mut [(Probe, CollectIo<u32>)],
        mem: &mut Mem,
        script: CrashScript,
        horizon: SimTime,
    ) -> SimStats {
        let clock = mem.net.clock.clone();
        run(
            nodes,
            mem,
            &clock,
            script,
            |_| 0,
            move |_, now| now > horizon,
        )
    }

    #[test]
    fn timers_fire_in_due_then_arming_order() {
        let mut nodes = hosted(vec![Probe {
            arm: vec![(5, 1), (3, 2), (5, 3), (3, 4)],
            ..Probe::default()
        }]);
        let mut mem = Mem::default();
        let stats = run_to(&mut nodes, &mut mem, CrashScript::default(), 10);
        assert_eq!(
            nodes[0].0.seen,
            [
                (0, Seen::Start),
                (3, Seen::Timer(2)),
                (3, Seen::Timer(4)),
                (5, Seen::Timer(1)),
                (5, Seen::Timer(3)),
            ]
        );
        assert_eq!(stats.timers, 4);
        // The loop slept exactly to each due tick, never polled.
        assert_eq!(
            mem.parks[..2],
            [Duration::from_micros(3), Duration::from_micros(2)]
        );
    }

    #[test]
    fn same_tick_timers_and_deliveries_run_in_queue_order() {
        // Node 0 arms a timer due at 5, then greets itself over a
        // five-tick network; a delivery from outside, due at 5 too, was
        // queued before either.
        let mut nodes = hosted(vec![Probe {
            arm: vec![(5, 1)],
            greet: true,
            ..Probe::default()
        }]);
        let five = NetworkConfig {
            min_delay: 5,
            max_delay: 5,
            ..NetworkConfig::default()
        };
        let mut mem = Mem {
            net: Loopback::new(five, FaultPlan::none(), 0, SimTime::MAX),
            ..Mem::default()
        };
        mem.net.push(5, 0, 9, 50, 0);
        run_to(&mut nodes, &mut mem, CrashScript::default(), 10);
        assert_eq!(
            nodes[0].0.seen,
            [
                (0, Seen::Start),
                (5, Seen::Msg(9, 50)),
                (5, Seen::Timer(1)),
                (5, Seen::Msg(0, 7)),
            ]
        );
    }

    fn crash_probe() -> Vec<(Probe, CollectIo<u32>)> {
        hosted(vec![Probe {
            arm: vec![(5, 5), (15, 15), (25, 25)],
            ..Probe::default()
        }])
    }

    #[test]
    fn crash_window_drops_what_falls_inside_and_recovers_once() {
        let mut nodes = crash_probe();
        let mut mem = Mem::with_arrivals(&[(12, 0, 9, 120), (22, 0, 9, 220)]);
        let stats = run_to(&mut nodes, &mut mem, CrashScript::new([(0, 10, 20)]), 30);
        assert_eq!(
            nodes[0].0.seen,
            [
                (0, Seen::Start),
                (5, Seen::Timer(5)),
                (20, Seen::Recover),
                (22, Seen::Msg(9, 220)),
                (25, Seen::Timer(25)),
            ]
        );
        assert_eq!(stats.dropped, 2, "the t=12 delivery and the t=15 timer");
        assert_eq!((stats.delivered, stats.timers), (1, 2));
        assert_eq!(mem.edges(), [&Call::Crashed(0), &Call::Recovered(0)]);
    }

    #[test]
    fn sleeping_across_the_whole_window_still_recovers_exactly_once() {
        let mut nodes = crash_probe();
        // Two overlapping windows merge into [10, 20); the first park
        // overshoots to t=30, so the loop never wakes inside it.
        let script = CrashScript::new([(0, 10, 16), (0, 14, 20)]);
        let mut mem = Mem {
            oversleep_to: Some(30),
            ..Mem::default()
        };
        let stats = run_to(&mut nodes, &mut mem, script, 30);
        assert_eq!(
            nodes[0].0.seen,
            [
                (0, Seen::Start),
                (30, Seen::Recover),
                (30, Seen::Timer(5)),
                (30, Seen::Timer(25)),
            ]
        );
        assert_eq!(stats.dropped, 1, "the t=15 timer fell inside the window");
        assert_eq!(mem.edges(), [&Call::Crashed(0), &Call::Recovered(0)]);
    }

    #[test]
    fn staggered_starts_honour_start_at() {
        let mut nodes = hosted(vec![Probe::default(), Probe::default(), Probe::default()]);
        let mut mem = Mem::default();
        let clock = mem.net.clock.clone();
        run(
            &mut nodes,
            &mut mem,
            &clock,
            CrashScript::default(),
            |k| 10 * k as SimTime,
            |_, now| now >= 20,
        );
        let starts: Vec<_> = nodes.iter().map(|(p, _)| p.seen.clone()).collect();
        assert_eq!(
            starts,
            [[(0, Seen::Start)], [(10, Seen::Start)], [(20, Seen::Start)]]
        );
    }

    #[test]
    fn until_ends_the_loop_only_after_a_flush() {
        let mut nodes = hosted(vec![Probe {
            greet: true,
            done_after: 2,
            ..Probe::default()
        }]);
        let mut mem = Mem::default();
        let clock = mem.net.clock.clone();
        let stats = run(
            &mut nodes,
            &mut mem,
            &clock,
            CrashScript::default(),
            |_| 0,
            |done, _| done == 1,
        );
        // Start → send to self → delivered in the same turn → done.
        assert_eq!(stats.end_time, 0);
        assert_eq!(mem.calls, [Call::Send, Call::Flush]);
        // The loop, not the transport, counts what was sent.
        assert_eq!((stats.sent, stats.payload_msgs, stats.delivered), (1, 1, 1));
        let sim = SimStats::total([
            &stats,
            &SimStats {
                end_time: 9,
                ..stats
            },
        ]);
        assert_eq!((sim.sent, sim.delivered, sim.end_time), (2, 2, 9));
    }

    #[test]
    fn far_future_timer_parks_long_instead_of_spinning() {
        // 2^33 ticks wraps a u32 tick count to zero.
        let far: SimTime = 1 << 33;
        let mut nodes = hosted(vec![Probe {
            arm: vec![(far, 1)],
            ..Probe::default()
        }]);
        let mut mem = Mem::default();
        let clock = mem.net.clock.clone();
        let mut turns = 0;
        run(
            &mut nodes,
            &mut mem,
            &clock,
            CrashScript::default(),
            |_| 0,
            |_, _| {
                turns += 1;
                turns == 2
            },
        );
        assert_eq!(mem.parks, [Duration::from_micros(far)]);
        assert_eq!(nodes[0].0.seen.last(), Some(&(far, Seen::Timer(1))));
    }
}
