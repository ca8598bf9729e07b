//! The sans-I/O boundary: protocol logic talks to the world only through
//! [`Io`], and a whole node is a [`Driver`] — a pure state machine fed
//! [`Input`]s that emits effects ([`Output`]s) through whatever backend
//! hosts it.
//!
//! The client, repository, and reconfigurer state machines in this crate
//! never touch `sim::engine`, wall clocks, sockets, or an RNG directly:
//! every observation (time, own id, entropy) and every effect (message
//! sends, timers, trace records) goes through the [`Io`] trait. Two hosts
//! implement it:
//!
//! * the deterministic simulator's [`Ctx`] — drivers running under the
//!   DES make **exactly** the same calls in the same order as the
//!   pre-extraction code, so traces, RNG streams, and bench outputs stay
//!   byte-identical (verified by the golden gates in `verify.sh`). `Ctx`
//!   buffers sends and timers (`outbox`, `timers`) and the engine applies
//!   them when the handler returns;
//! * [`CollectIo`] — the same buffering for real-time backends
//!   (threads + channels, TCP): the host stamps in the current time and
//!   entropy, lets the driver run, and drains the emitted [`Output`]s to
//!   its transport. This is the pure `handle(Input) -> Vec<Output>` form.
//!
//! [`DesAdapter`] is the thin shim welding a [`Driver`] back onto the
//! simulator's [`Process`] trait; [`crate::host::run`] steps the same
//! drivers over any real-time [`Transport`](crate::host::Transport).

use quorumcc_sim::trace::TraceAction;
use quorumcc_sim::{splitmix64, Ctx, ProcId, Process, SimTime, SPLITMIX64_GAMMA};
use rand::Rng as _;

/// Everything a protocol state machine may observe or effect. The only
/// window protocol code has onto the outside world — no simulator
/// handles, no clocks, no ambient randomness.
///
/// Implementations: the simulator's [`Ctx`] (live, deterministic) and
/// [`CollectIo`] (buffered, for real-time backends).
pub trait Io<M> {
    /// The current logical time: simulated ticks under the DES, a
    /// host-supplied monotonic tick count on real backends.
    fn now(&self) -> SimTime;

    /// This node's process id.
    fn me(&self) -> ProcId;

    /// Sends `msg` to `to` (delivery is the backend's business).
    fn send(&mut self, to: ProcId, msg: M);

    /// Sends a message standing for `weight` logical payloads — a batch
    /// envelope. Backends deliver it as one message but may account for
    /// the logical payload count separately.
    fn send_weighted(&mut self, to: ProcId, msg: M, weight: u64);

    /// Requests a [`Input::Timer`] callback with `token` after `delay`
    /// ticks (backends clamp `delay` to at least 1).
    fn set_timer(&mut self, delay: SimTime, token: u64);

    /// A uniform draw in `[0, bound)` (`bound` is clamped to at least 1).
    /// The *only* entropy available to protocol code — backoff jitter and
    /// peer selection route through here, so the DES can keep its seeded
    /// stream and real backends can inject their own.
    fn rand_below(&mut self, bound: u64) -> u64;

    /// Records a protocol-level trace event (no-op when tracing is off).
    fn trace(&mut self, action: TraceAction);

    /// Whether tracing is enabled — lets callers skip building expensive
    /// event payloads when nobody is listening.
    fn tracing(&self) -> bool;
}

/// The simulator's context *is* an [`Io`]: drivers under the DES call the
/// engine directly, preserving the exact call order (and RNG draw
/// sequence) of the pre-extraction code.
impl<M> Io<M> for Ctx<'_, M> {
    fn now(&self) -> SimTime {
        Ctx::now(self)
    }

    fn me(&self) -> ProcId {
        Ctx::me(self)
    }

    fn send(&mut self, to: ProcId, msg: M) {
        Ctx::send(self, to, msg);
    }

    fn send_weighted(&mut self, to: ProcId, msg: M, weight: u64) {
        Ctx::send_weighted(self, to, msg, weight);
    }

    fn set_timer(&mut self, delay: SimTime, token: u64) {
        Ctx::set_timer(self, delay, token);
    }

    fn rand_below(&mut self, bound: u64) -> u64 {
        // On 64-bit hosts this draws the identical `next_u64` sequence the
        // old in-protocol `gen_range(0..n_usize)` sites drew, keeping
        // seeded runs byte-identical across the extraction.
        self.rng().gen_range(0..bound.max(1))
    }

    fn trace(&mut self, action: TraceAction) {
        Ctx::trace(self, action);
    }

    fn tracing(&self) -> bool {
        Ctx::tracing(self)
    }
}

/// One stimulus delivered to a [`Driver`]: the complete input alphabet of
/// a node. Backends produce these; drivers consume them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input<M> {
    /// The node boots (delivered exactly once, before anything else).
    Start,
    /// A message arrived from `from`.
    Deliver {
        /// The sending process.
        from: ProcId,
        /// The delivered payload.
        msg: M,
    },
    /// A timer armed via [`Io::set_timer`] fired.
    Timer {
        /// The token the timer was armed with.
        token: u64,
    },
    /// The node recovered from a crash (volatile state was lost).
    Recover,
}

/// One effect a [`Driver`] requested, as buffered by [`CollectIo`]: the
/// complete output alphabet of a node. Real-time backends drain these
/// into their transport; the DES's [`Ctx`] buffers the same two effect
/// kinds (its `outbox` and `timers`) and the engine applies them when the
/// handler returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output<M> {
    /// Deliver `msg` to `to`.
    Send {
        /// The destination process.
        to: ProcId,
        /// The payload.
        msg: M,
        /// Logical payloads this message stands for (1 unless batched).
        weight: u64,
    },
    /// Arm a timer: feed back [`Input::Timer`] with `token` after
    /// `delay` ticks.
    SetTimer {
        /// Ticks until the timer fires.
        delay: SimTime,
        /// The token to echo back.
        token: u64,
    },
}

/// A transport-agnostic protocol node: a state machine whose entire
/// interaction with the world is `handle(io, input)`. The same driver
/// value runs unmodified under the deterministic simulator (via
/// [`DesAdapter`]) and under real concurrency ([`crate::host::run`]).
pub trait Driver<M> {
    /// Feeds one input, applying effects through `io`. Generic, not
    /// `dyn`: each host's `Io` is known statically, so a disabled
    /// `io.tracing()` check costs nothing on the hot paths.
    fn handle<IO: Io<M> + ?Sized>(&mut self, io: &mut IO, input: Input<M>);

    /// Whether the node has finished its scripted work. Real-time hosts
    /// count these to detect quiescence (the DES runs until its event
    /// queue drains instead); servers never finish.
    fn is_done(&self) -> bool {
        false
    }
}

/// Welds a [`Driver`] onto the simulator: implements [`Process`] by
/// translating engine callbacks into [`Input`]s and handing the engine's
/// [`Ctx`] straight through as the driver's [`Io`]. Zero translation on
/// the effect side — the driver's calls land in the engine's own `Ctx`
/// buffers in call order — which is what makes the refactor
/// byte-invisible to seeded runs.
#[derive(Debug, Clone)]
pub struct DesAdapter<D>(pub D);

impl<D> DesAdapter<D> {
    /// Wraps a driver for the simulator.
    pub fn new(driver: D) -> Self {
        DesAdapter(driver)
    }

    /// The hosted driver.
    pub fn driver(&self) -> &D {
        &self.0
    }
}

impl<M, D: Driver<M>> Process<M> for DesAdapter<D> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, M>) {
        self.0.handle(ctx, Input::Start);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, M>, from: ProcId, msg: M) {
        self.0.handle(ctx, Input::Deliver { from, msg });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, M>, token: u64) {
        self.0.handle(ctx, Input::Timer { token });
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, M>) {
        self.0.handle(ctx, Input::Recover);
    }
}

/// A buffered [`Io`] for real-time backends: the host stamps in the
/// current tick before each [`Driver::handle`] call, the driver's effects
/// accumulate as [`Output`]s, and the host drains them into its
/// transport. This is the pure `handle(Input) -> Vec<Output>` face of the
/// sans-I/O core.
///
/// Entropy is a private splitmix64 stream seeded per node — real
/// backends make no determinism promise, they only need *well-spread*
/// jitter, and keeping the generator inside the `Io` keeps protocol code
/// free of any direct RNG dependency.
#[derive(Debug)]
pub struct CollectIo<M> {
    now: SimTime,
    me: ProcId,
    entropy: u64,
    outputs: Vec<Output<M>>,
}

impl<M> CollectIo<M> {
    /// An output collector for node `me`, with its entropy stream seeded
    /// from `seed`.
    pub fn new(me: ProcId, seed: u64) -> Self {
        CollectIo {
            now: 0,
            me,
            // Avoid the all-zeros fixed point.
            entropy: seed ^ SPLITMIX64_GAMMA,
            outputs: Vec::new(),
        }
    }

    /// Stamps the logical time the next `handle` call will observe.
    pub fn set_now(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Drains the effects buffered since the last call.
    pub fn take_outputs(&mut self) -> Vec<Output<M>> {
        std::mem::take(&mut self.outputs)
    }

    /// Whether any effects are buffered.
    pub fn is_empty(&self) -> bool {
        self.outputs.is_empty()
    }

    fn next_entropy(&mut self) -> u64 {
        // The splitmix64 stream: tiny, statistically fine for jitter.
        let out = splitmix64(self.entropy);
        self.entropy = self.entropy.wrapping_add(SPLITMIX64_GAMMA);
        out
    }
}

impl<M> Io<M> for CollectIo<M> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn me(&self) -> ProcId {
        self.me
    }

    fn send(&mut self, to: ProcId, msg: M) {
        self.outputs.push(Output::Send { to, msg, weight: 1 });
    }

    fn send_weighted(&mut self, to: ProcId, msg: M, weight: u64) {
        self.outputs.push(Output::Send {
            to,
            msg,
            weight: weight.max(1),
        });
    }

    fn set_timer(&mut self, delay: SimTime, token: u64) {
        self.outputs.push(Output::SetTimer {
            delay: delay.max(1),
            token,
        });
    }

    fn rand_below(&mut self, bound: u64) -> u64 {
        self.next_entropy() % bound.max(1)
    }

    fn trace(&mut self, _action: TraceAction) {}

    fn tracing(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A driver that echoes every delivered message back and arms one
    /// timer per tick it sees. `kick` names a peer to poke at startup.
    struct Echo {
        delivered: u32,
        kick: Option<ProcId>,
    }

    impl Driver<u32> for Echo {
        fn handle<IO: Io<u32> + ?Sized>(&mut self, io: &mut IO, input: Input<u32>) {
            match input {
                Input::Start => {
                    if let Some(to) = self.kick {
                        io.send(to, 100);
                    }
                    io.set_timer(5, 1);
                }
                Input::Deliver { from, msg } => {
                    self.delivered += 1;
                    io.send(from, msg + 1);
                }
                Input::Timer { token } => {
                    let jitter = io.rand_below(4);
                    io.set_timer(1 + jitter, token);
                }
                Input::Recover => {}
            }
        }
    }

    #[test]
    fn collect_io_buffers_outputs_in_call_order() {
        let mut io = CollectIo::new(3, 42);
        let mut d = Echo {
            delivered: 0,
            kick: None,
        };
        d.handle(&mut io, Input::Start);
        d.handle(
            &mut io,
            Input::Deliver {
                from: 7,
                msg: 10u32,
            },
        );
        let outs = io.take_outputs();
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0], Output::SetTimer { delay: 5, token: 1 });
        assert_eq!(
            outs[1],
            Output::Send {
                to: 7,
                msg: 11,
                weight: 1
            }
        );
        assert!(io.is_empty());
        assert_eq!(d.delivered, 1);
    }

    #[test]
    fn collect_io_clamps_weight_delay_and_bound() {
        let mut io: CollectIo<u32> = CollectIo::new(0, 0);
        Io::<u32>::send_weighted(&mut io, 1, 9, 0);
        Io::<u32>::set_timer(&mut io, 0, 2);
        let zero_bound = Io::<u32>::rand_below(&mut io, 0);
        assert_eq!(zero_bound, 0, "bound clamps to 1");
        let outs = io.take_outputs();
        assert_eq!(
            outs[0],
            Output::Send {
                to: 1,
                msg: 9,
                weight: 1
            }
        );
        assert_eq!(outs[1], Output::SetTimer { delay: 1, token: 2 });
    }

    #[test]
    fn collect_io_entropy_is_seed_deterministic() {
        let draws = |seed: u64| {
            let mut io: CollectIo<u32> = CollectIo::new(0, seed);
            (0..8)
                .map(|_| Io::<u32>::rand_below(&mut io, 1000))
                .collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
        assert!(draws(7).iter().all(|v| *v < 1000));
        // The stream itself is pinned: the benchmark's replay seeds its
        // clients' collectors by hand and must draw the same jitter.
        let mut io: CollectIo<u32> = CollectIo::new(0, 42);
        let raw: Vec<u64> = (0..3)
            .map(|_| Io::<u32>::rand_below(&mut io, u64::MAX))
            .collect();
        assert_eq!(
            raw,
            [
                0x28ef_e333_b266_f103,
                0x4752_6757_130f_9f52,
                0x581c_e1ff_0e4a_e394
            ]
        );
    }

    #[test]
    fn des_adapter_runs_a_driver_under_the_engine() {
        use quorumcc_sim::{FaultPlan, NetworkConfig, Sim};
        let nodes = vec![
            DesAdapter::new(Echo {
                delivered: 0,
                kick: Some(1),
            }),
            DesAdapter::new(Echo {
                delivered: 0,
                kick: None,
            }),
        ];
        let mut sim = Sim::new(nodes, NetworkConfig::default(), FaultPlan::none(), 11);
        // Node 0 pokes node 1 at startup; echoes bounce until the horizon.
        sim.run(200);
        let bounced: u32 = (0..2)
            .map(|i| sim.process(i).driver().delivered)
            .sum::<u32>();
        assert!(bounced > 0, "messages flowed through the adapter");
    }
}
