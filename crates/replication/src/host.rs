//! The one real-time host: a single loop that steps sans-I/O [`Driver`]s
//! over any [`Transport`].
//!
//! Hosting is a detail of the protocol core (DESIGN §3.14), so it is
//! written once. [`run`] owns everything a host has to get right — the
//! `set_now → handle → drain outputs` turn, the `(due, seq)`-ordered
//! [`Timers`], staggered [`Input::Start`]s, the [`CrashScript`] (DES crash
//! semantics on a wall clock), the stop check and idle parking — and a
//! [`Transport`] hides only *who carries the messages*: mpsc envelopes
//! between threads ([`crate::backend`]), framed nonblocking sockets, or
//! supervised reconnecting links (`quorumcc_net::load`). Tests substitute
//! an in-memory transport on a manual [`Clock`] and run the loop without
//! threads or sleeps.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use quorumcc_sim::{CollectIo, Driver, Input, Io as _, Output, ProcId, SimStats, SimTime};

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
}

/// The host's notion of time: a monotonic tick count and its wall-clock
/// scale.
pub trait Clock {
    /// Ticks since the run's epoch.
    fn now(&self) -> SimTime;

    /// The wall-clock length of `ticks` ticks, saturating.
    fn span(&self, ticks: SimTime) -> Duration;
}

/// Ticks of a fixed length counted from a shared epoch.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    epoch: Instant,
    tick_us: u64,
}

impl WallClock {
    /// A clock whose tick 0 is `epoch` and whose tick lasts `tick_us`
    /// microseconds (at least one).
    pub fn new(epoch: Instant, tick_us: u64) -> Self {
        WallClock {
            epoch,
            tick_us: tick_us.max(1),
        }
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        self.epoch.elapsed().as_micros() as SimTime / self.tick_us
    }

    fn span(&self, ticks: SimTime) -> Duration {
        Duration::from_micros(ticks.saturating_mul(self.tick_us))
    }
}

/// Pending timers, fired in `(due, arming order)` order.
#[derive(Debug, Default)]
pub struct Timers {
    heap: BinaryHeap<Reverse<(SimTime, u64, usize, u64)>>,
    seq: u64,
}

impl Timers {
    /// Arms a timer for node index `node`, due at tick `due`.
    pub fn arm(&mut self, due: SimTime, node: usize, token: u64) {
        self.heap.push(Reverse((due, self.seq, node, token)));
        self.seq += 1;
    }

    /// The earliest due tick, if any timer is pending.
    pub fn next_due(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((due, ..))| *due)
    }

    /// Pops the next timer due at or before `now` as `(node, token)`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(usize, u64)> {
        if self.next_due()? > now {
            return None;
        }
        self.heap
            .pop()
            .map(|Reverse((_, _, node, token))| (node, token))
    }

    /// Drops `node`'s timers due inside `[from, until)`; returns how many.
    fn drop_window(&mut self, node: usize, from: SimTime, until: SimTime) -> usize {
        let before = self.heap.len();
        self.heap
            .retain(|Reverse((due, _, n, _))| *n != node || *due < from || *due >= until);
        before - self.heap.len()
    }
}

/// Scripted crash windows with the DES engine's semantics: while a node is
/// dark every delivery to it and every timer of its that comes due is
/// dropped, and it receives exactly one [`Input::Recover`] when the window
/// closes — also when the loop slept across the whole window.
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
    /// No crashes.
    pub fn none() -> Self {
        CrashScript::default()
    }

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

/// What one [`run`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Nodes that reported [`Driver::is_done`].
    pub done: usize,
    /// Messages handed to the transport.
    pub sent: usize,
    /// Logical payloads those messages stood for (a batch envelope counts
    /// at its full weight).
    pub payload_msgs: usize,
    /// Deliveries handed to a node.
    pub delivered: usize,
    /// Timers fired.
    pub timers: usize,
    /// Deliveries and timers swallowed by a crash window.
    pub dropped: usize,
}

impl HostStats {
    /// Folds the loops of one run (one per thread) into the counters a
    /// [`RunReport`](crate::cluster::RunReport) carries. Loss and
    /// duplication inside a transport are the transport's to add.
    pub fn sim_stats<'a>(
        ran: impl IntoIterator<Item = &'a HostStats>,
        end_time: SimTime,
    ) -> SimStats {
        let mut out = SimStats {
            end_time,
            ..SimStats::default()
        };
        for r in ran {
            out.sent += r.sent;
            out.payload_msgs += r.payload_msgs;
            out.delivered += r.delivered;
            out.dropped += r.dropped;
            out.timers += r.timers;
        }
        out
    }
}

/// The nodes being stepped plus everything a step touches.
struct Stepper<'a, M, N, T> {
    nodes: &'a mut [(N, CollectIo<M>)],
    transport: &'a mut T,
    timers: Timers,
    done: Vec<bool>,
    stats: HostStats,
}

impl<M, N: Driver<M>, T: Transport<M>> Stepper<'_, M, N, T> {
    /// The driver-stepping turn: stamp the time, feed one input, route the
    /// buffered effects. Inlined into the loop: the ~230-byte inputs and
    /// outputs are otherwise copied at each call boundary (measured ~2% of
    /// the socket host's throughput on its per-message-bound workload).
    #[inline]
    fn step(&mut self, k: usize, now: SimTime, input: Input<M>) {
        let (node, io) = &mut self.nodes[k];
        io.set_now(now);
        node.handle(io, input);
        let me = io.me();
        for out in io.take_outputs() {
            match out {
                Output::Send { to, msg, weight } => {
                    self.stats.sent += 1;
                    self.stats.payload_msgs += weight as usize;
                    self.transport.send(me, to, msg);
                }
                Output::SetTimer { delay, token } => {
                    self.timers.arm(now.saturating_add(delay), k, token);
                }
            }
        }
        if !self.done[k] && node.is_done() {
            self.done[k] = true;
            self.stats.done += 1;
        }
    }
}

/// Hosts `nodes` (consecutive process ids, each with its own collector)
/// over `transport` until `until` says stop.
///
/// Node `k` receives [`Input::Start`] once `start_at(k)` (nondecreasing in
/// `k`) has passed. Each turn drains the transport's ready backlog, fires
/// the timers that came due, flushes once, asks `until` (handed the count
/// of finished nodes and the turn's tick) whether to stop — so nothing a
/// node emitted is ever left unflushed — and otherwise parks until the
/// next timer, start or crash-window edge.
pub fn run<M, N, T, C>(
    nodes: &mut [(N, CollectIo<M>)],
    transport: &mut T,
    clock: &C,
    mut script: CrashScript,
    start_at: impl Fn(usize) -> SimTime,
    mut until: impl FnMut(usize, SimTime) -> bool,
) -> HostStats
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
        stats: HostStats::default(),
    };
    let mut next_start = 0usize;
    loop {
        let now = clock.now();
        while next_start < n && start_at(next_start) <= now {
            h.step(next_start, now, Input::Start);
            next_start += 1;
        }
        for v in &mut script.victims {
            while let Some(&(from, until)) = v.windows.get(v.next) {
                if now < from {
                    break;
                }
                let id = base + v.node as ProcId;
                if !v.dark {
                    v.dark = true;
                    h.transport.crashed(id);
                }
                if now < until {
                    break;
                }
                v.dark = false;
                v.next += 1;
                h.stats.dropped += h.timers.drop_window(v.node, from, until);
                h.transport.recovered(id);
                h.step(v.node, now, Input::Recover);
            }
        }
        while let Some((to, from, msg)) = h.transport.poll() {
            let k = (to - base) as usize;
            if script.is_dark(k) {
                h.stats.dropped += 1;
                continue;
            }
            h.step(k, clock.now(), Input::Deliver { from, msg });
            h.stats.delivered += 1;
        }
        let now = clock.now();
        while let Some((k, token)) = h.timers.pop_due(now) {
            if script.is_dark(k) {
                h.stats.dropped += 1;
                continue;
            }
            h.step(k, now, Input::Timer { token });
            h.stats.timers += 1;
        }
        h.transport.flush();
        if until(h.stats.done, now) {
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
        let wait = wake.map_or(Duration::MAX, |due| clock.span(due.saturating_sub(now)));
        h.transport.park(wait);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorumcc_sim::Io;
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::rc::Rc;

    /// One tick = 1µs, advanced only by the transport's `park`.
    #[derive(Clone, Default)]
    struct ManualClock(Rc<Cell<SimTime>>);

    impl Clock for ManualClock {
        fn now(&self) -> SimTime {
            self.0.get()
        }
        fn span(&self, ticks: SimTime) -> Duration {
            Duration::from_micros(ticks)
        }
    }

    #[derive(Debug, PartialEq)]
    enum Call {
        Send,
        Flush,
        Park,
        Crashed(ProcId),
        Recovered(ProcId),
    }

    /// Deterministic in-memory transport: sends between hosted nodes loop
    /// back, `arrivals` inject outside deliveries at scripted ticks, and
    /// `park` *is* the passage of time.
    #[derive(Default)]
    struct Mem {
        clock: ManualClock,
        queue: VecDeque<(ProcId, ProcId, u32)>,
        /// `(at, to, from, msg)`, sorted by `at`.
        arrivals: VecDeque<(SimTime, ProcId, ProcId, u32)>,
        /// One-shot: the next park overshoots to this tick, whatever `max`.
        oversleep_to: Option<SimTime>,
        calls: Vec<Call>,
        parks: Vec<Duration>,
    }

    impl Mem {
        /// The crash/recovery notices the host sent, in order.
        fn edges(&self) -> Vec<&Call> {
            self.calls
                .iter()
                .filter(|c| matches!(c, Call::Crashed(_) | Call::Recovered(_)))
                .collect()
        }
    }

    impl Transport<u32> for Mem {
        fn poll(&mut self) -> Option<(ProcId, ProcId, u32)> {
            while self
                .arrivals
                .front()
                .is_some_and(|a| a.0 <= self.clock.now())
            {
                let (_, to, from, msg) = self.arrivals.pop_front().unwrap();
                self.queue.push_back((to, from, msg));
            }
            self.queue.pop_front()
        }
        fn send(&mut self, from: ProcId, to: ProcId, msg: u32) {
            self.calls.push(Call::Send);
            self.queue.push_back((to, from, msg));
        }
        fn flush(&mut self) {
            self.calls.push(Call::Flush);
        }
        fn park(&mut self, max: Duration) {
            self.calls.push(Call::Park);
            self.parks.push(max);
            let now = self.clock.now();
            let mut target = now.saturating_add(max.as_micros().min(1 << 40) as SimTime);
            if let Some(a) = self.arrivals.front() {
                target = target.min(a.0.max(now));
            }
            self.clock.0.set(self.oversleep_to.take().unwrap_or(target));
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
    ) -> HostStats {
        let clock = mem.clock.clone();
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
        let stats = run_to(&mut nodes, &mut mem, CrashScript::none(), 10);
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

    fn crash_probe() -> Vec<(Probe, CollectIo<u32>)> {
        hosted(vec![Probe {
            arm: vec![(5, 5), (15, 15), (25, 25)],
            ..Probe::default()
        }])
    }

    #[test]
    fn crash_window_drops_what_falls_inside_and_recovers_once() {
        let mut nodes = crash_probe();
        let mut mem = Mem {
            arrivals: [(12, 0, 9, 120), (22, 0, 9, 220)].into(),
            ..Mem::default()
        };
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
        let clock = mem.clock.clone();
        run(
            &mut nodes,
            &mut mem,
            &clock,
            CrashScript::none(),
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
        let clock = mem.clock.clone();
        let stats = run(
            &mut nodes,
            &mut mem,
            &clock,
            CrashScript::none(),
            |_| 0,
            |done, _| done == 1,
        );
        // Start → send to self → delivered in the same turn → done.
        assert_eq!(stats.done, 1);
        assert_eq!(mem.calls, [Call::Send, Call::Flush]);
        // The loop, not the transport, counts what was sent.
        assert_eq!((stats.sent, stats.payload_msgs, stats.delivered), (1, 1, 1));
        let sim = HostStats::sim_stats([&stats, &stats], 9);
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
        let clock = mem.clock.clone();
        let mut turns = 0;
        run(
            &mut nodes,
            &mut mem,
            &clock,
            CrashScript::none(),
            |_| 0,
            |_, _| {
                turns += 1;
                turns == 2
            },
        );
        assert_eq!(mem.parks, [Duration::from_micros(far)]);
        assert_eq!(nodes[0].0.seen.last(), Some(&(far, Seen::Timer(1))));
        // The wall clock scales and saturates in 64 bits.
        let wall = WallClock::new(Instant::now(), 50);
        assert_eq!(wall.span(far), Duration::from_micros(50 * far));
        assert_eq!(wall.span(u64::MAX), Duration::from_micros(u64::MAX));
    }
}
