//! Execution backends for the sans-I/O cluster.
//!
//! The protocol core ([`Driver`](quorumcc_sim::Driver) implementations in
//! `client`, `repository`, and `reconfig`) never touches a clock, socket, or
//! RNG directly — everything flows through the [`Io`](quorumcc_sim::Io)
//! surface. That makes the choice of *host* a swappable detail:
//!
//! * [`BackendKind::Des`] — the deterministic discrete-event simulator
//!   (`quorumcc_sim::Sim`), which steps the drivers itself with its `Ctx`
//!   as their `Io`. Fully reproducible; supports fault plans, tracing, and
//!   chaos.
//! * [`BackendKind::Channels`] — a real-concurrency host: one OS thread per
//!   node running [`host::run`] over an `std::sync::mpsc`
//!   [`Transport`], wall-clock timers.
//!   Messages race for real; scheduling is whatever the OS does. Supports
//!   probabilistic loss/duplication and scripted crash windows (mapped
//!   tick-for-tick onto the wall clock) but not scripted partitions or
//!   traces.
//!
//! Both backends run byte-for-byte the same `Driver` code and are harvested
//! into the same [`RunReport`](crate::cluster::RunReport) shape, which is
//! what makes the DES-vs-real equivalence suite (`tests/backends.rs`)
//! meaningful.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::time::{Duration, Instant};

use quorumcc_model::Classified;
use quorumcc_sim::{
    chance, splitmix64, CollectIo, FaultPlan, NetworkConfig, ProcId, SimStats, SimTime,
};

use crate::cluster::Node;
use crate::host::{self, Clock as _, CrashScript, HostStats, Transport, WallClock};
use crate::messages::Msg;

/// Which host executes the sans-I/O drivers for a
/// [`RunBuilder`](crate::cluster::RunBuilder) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// Deterministic discrete-event simulation (the default). Supports
    /// every feature: fault plans, traces, chaos profiles, reproducible
    /// seeds.
    #[default]
    Des,
    /// Real concurrency over in-process channels: one thread per node,
    /// OS scheduling, wall-clock timers. Rejects scripted partitions and
    /// trace capture ([`ReplicationError::Unsupported`]); probabilistic
    /// drop/duplication from [`NetworkConfig`] still applies, and scripted
    /// crash windows from a [`FaultPlan`] map tick-for-tick onto the wall
    /// clock (deliveries and timers due while a site is dark are dropped,
    /// `Input::Recover` fires at the window end — the DES semantics).
    ///
    /// [`ReplicationError::Unsupported`]: crate::error::ReplicationError::Unsupported
    Channels,
}

/// Wall-clock microseconds per logical tick under the channels backend.
///
/// Protocol timeouts are stated in simulator ticks; the real-time host maps
/// them onto the wall clock at this rate. 50µs keeps a default 1M-tick run
/// under a minute while leaving timer math in the same units everywhere.
const TICK_US: u64 = 50;

/// Hard wall-clock cap for a channels run, applied on top of the tick-scaled
/// `max_time` deadline so a wedged cluster cannot hang the host forever.
const WALL_CAP: Duration = Duration::from_secs(30);

/// Idle wakeup cap: bounds how stale a node thread's stop check can get.
const IDLE_POLL: Duration = Duration::from_millis(1);

/// A message in flight between two node threads.
struct Envelope<M> {
    from: ProcId,
    msg: M,
}

/// Cross-thread network counters, added to [`SimStats`] at the end (each
/// thread's host loop counts its own sends, deliveries and timers).
#[derive(Default)]
struct SharedStats {
    dropped: AtomicUsize,
    duplicated: AtomicUsize,
    /// Messages enqueued but not yet fully processed by their receiver. A
    /// send increments *before* the envelope being handled is settled, so
    /// this can only read zero when the cluster is truly quiescent.
    in_flight: AtomicUsize,
}

/// One node thread's end of the mesh: its inbox, every node's outbox, and
/// the lossy-network draws ([`NetworkConfig`] drop/dup) on the send side.
struct ChannelTransport<'a, M> {
    me: ProcId,
    rx: Receiver<Envelope<M>>,
    txs: Vec<Sender<Envelope<M>>>,
    net: NetworkConfig,
    chaos: u64,
    stats: &'a SharedStats,
    /// The envelope `park` woke up on, owed to the next `poll`.
    woke_on: Option<Envelope<M>>,
    /// Whether the last polled envelope still counts as in flight.
    handling: bool,
}

impl<M> ChannelTransport<'_, M> {
    /// The previously polled envelope has been fully processed (its
    /// handler's sends are already counted): retire it.
    fn settle(&mut self) {
        if std::mem::take(&mut self.handling) {
            self.stats.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }

    fn enqueue(&self, to: ProcId, env: Envelope<M>) {
        self.stats.in_flight.fetch_add(1, Ordering::SeqCst);
        if self.txs[to as usize].send(env).is_err() {
            self.stats.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl<M: Clone> Transport<M> for ChannelTransport<'_, M> {
    fn poll(&mut self) -> Option<(ProcId, ProcId, M)> {
        self.settle();
        let env = self.woke_on.take().or_else(|| self.rx.try_recv().ok())?;
        self.handling = true;
        Some((self.me, env.from, env.msg))
    }

    fn send(&mut self, from: ProcId, to: ProcId, msg: M) {
        let stats = self.stats;
        if chance(&mut self.chaos, self.net.drop_prob) {
            stats.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if chance(&mut self.chaos, self.net.dup_prob) {
            stats.duplicated.fetch_add(1, Ordering::Relaxed);
            let copy = Envelope {
                from,
                msg: msg.clone(),
            };
            self.enqueue(to, copy);
        }
        self.enqueue(to, Envelope { from, msg });
    }

    /// Nothing is buffered, and the `poll` that ended the turn's backlog
    /// already settled the last envelope.
    fn flush(&mut self) {}

    fn park(&mut self, max: Duration) {
        // Every transport holds a sender to every inbox (its own included),
        // so the only error here is the timeout.
        self.woke_on = self.rx.recv_timeout(max.min(IDLE_POLL)).ok();
    }
}

/// Runs the node set to quiescence under real concurrency and returns the
/// finished drivers (in the same process-id order) plus transport stats.
///
/// One thread per node runs [`host::run`] over a [`ChannelTransport`]. The
/// run ends when every client reports [`Client::is_done`] and the network
/// has drained, or when the tick-scaled `max_time` deadline (capped at
/// [`WALL_CAP`]) expires — mirroring the DES engine's `run(max_time)`
/// horizon. Scripted crash windows in `faults` become each thread's
/// [`CrashScript`]; what they swallow is counted in `SimStats::dropped`.
///
/// [`Client::is_done`]: crate::client::Client::is_done
pub(crate) fn run_channels<S>(
    nodes: Vec<Node<S>>,
    net: NetworkConfig,
    faults: &FaultPlan,
    seed: u64,
    max_time: SimTime,
) -> (Vec<Node<S>>, SimStats)
where
    S: Classified,
    Node<S>: Send,
{
    let n = nodes.len();
    let n_clients = nodes
        .iter()
        .filter(|node| matches!(node, Node::Client(_)))
        .count();
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..n)
        .map(|_| mpsc::channel::<Envelope<Msg<S::Inv, S::Res>>>())
        .unzip();

    let stats = SharedStats::default();
    let done_clients = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let epoch = Instant::now();
    let clock = WallClock::new(epoch, TICK_US);
    let deadline = clock.span(max_time).min(WALL_CAP);

    let (finished, ran): (Vec<Node<S>>, Vec<HostStats>) = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (i, (node, rx)) in nodes.into_iter().zip(rxs).enumerate() {
            let me = i as ProcId;
            let mut transport = ChannelTransport {
                me,
                rx,
                txs: txs.clone(),
                net,
                chaos: splitmix64(seed ^ (0x517c_c1b7_2722_0a95 ^ u64::from(me))),
                stats: &stats,
                woke_on: None,
                handling: false,
            };
            let script = CrashScript::new(
                faults
                    .crashes()
                    .iter()
                    .filter(|c| c.proc == me)
                    .map(|c| (0, c.from, c.until)),
            );
            let (done_clients, stop, clock) = (&done_clients, &stop, &clock);
            handles.push(scope.spawn(move || {
                let io = CollectIo::new(me, seed ^ splitmix64(u64::from(me) + 1));
                let mut hosted = [(node, io)];
                let mut done_flagged = false;
                let ran = host::run(
                    &mut hosted,
                    &mut transport,
                    clock,
                    script,
                    |_| 0,
                    |done, _| {
                        if done == 1 && !done_flagged {
                            done_flagged = true;
                            done_clients.fetch_add(1, Ordering::SeqCst);
                        }
                        stop.load(Ordering::Relaxed)
                    },
                );
                let [(node, _)] = hosted;
                (node, ran)
            }));
        }
        drop(txs);

        // Supervisor: wait for every client to finish and the network to
        // drain (two consecutive empty observations), or for the deadline.
        loop {
            std::thread::sleep(Duration::from_millis(1));
            if epoch.elapsed() >= deadline {
                break;
            }
            if done_clients.load(Ordering::SeqCst) == n_clients {
                let drain_cap = Instant::now() + Duration::from_secs(2);
                let mut calm = 0;
                while Instant::now() < drain_cap && calm < 2 {
                    if stats.in_flight.load(Ordering::SeqCst) == 0 {
                        calm += 1;
                    } else {
                        calm = 0;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                break;
            }
        }
        stop.store(true, Ordering::SeqCst);
        handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .unzip()
    });

    let mut sim_stats = HostStats::sim_stats(&ran, clock.now());
    sim_stats.dropped += stats.dropped.load(Ordering::Relaxed);
    sim_stats.duplicated = stats.duplicated.load(Ordering::Relaxed);
    (finished, sim_stats)
}
