//! Exhaustive interleaving exploration: a forking scheduler over the same
//! [`Process`] drivers the DES runs, enumerating *every* enabled-event
//! order instead of sampling one.
//!
//! Where [`crate::engine::Sim`] draws one delivery order per seed, the
//! explorer treats the set of in-flight messages, armed timers, and
//! budgeted faults as a branching choice at every step and walks the whole
//! tree depth-first. A caller-supplied [`ExploreHooks`] audits each branch
//! (the replication crate plugs its safety oracle in here) and the first
//! violating branch comes back as a [`Witness`]: a replayable schedule of
//! choice indices.
//!
//! # The zero-delay time model
//!
//! Exploration uses a degenerate network: deliveries are instantaneous and
//! do **not** advance simulated time; only timer firings do (`now`
//! becomes `max(now, due)`). This is what makes independent deliveries
//! genuinely commute — handlers observe the same `now` in either order,
//! so timestamps, armed timer dues, and every other time-derived value
//! converge when independent events are swapped. Logical clocks still
//! advance (clients stamp entries with `max(now, last + 1)`), so
//! timestamp *order* is exactly as in a DES run; only wall-clock spacing
//! is collapsed.
//!
//! Per-event randomness is a pure function of `(seed, process,
//! per-process event count)`, so it too commutes across processes: a
//! process's `k`-th event draws the same randoms on every branch that
//! delivers it `k`-th, regardless of what other processes did in between.
//!
//! # The channel model
//!
//! In-flight messages live on reliable FIFO channels, one per ordered
//! `(from, to)` pair — the delivery model of the TCP and in-process
//! channel backends. Only each channel's *head* is deliverable, so the
//! explorer enumerates interleavings **across** channels but never
//! reorders one sender's messages to one receiver. This is the standard
//! communication-closed reduction: the factorially many same-channel
//! permutations the sampling DES could draw collapse to one, while every
//! cross-channel race (the ones quorum intersection actually defends
//! against) is still enumerated. Drops, when budgeted, also act on
//! channel heads.
//!
//! # Timers
//!
//! Timers fire lazily: a process's timer is eligible only when the
//! process is *quiescent* — no message pending for it and none of its own
//! requests still in flight. In a zero-drop exploration a timeout can
//! only truly happen after a drop, so racing a timer against a delivery
//! that is guaranteed to arrive would add schedules no real execution
//! exhibits; when drops are budgeted, a branch spends a drop first and
//! the timeout becomes reachable. Among eligible processes, only the
//! globally earliest `(due, proc)` timer is enabled — the order the DES
//! would fire them in — so timer firings contribute no artificial
//! interleavings. Because a firing advances global time, timers are
//! treated as dependent with everything by the partial-order reduction.
//!
//! # Partial-order reduction
//!
//! Sleep sets over the Mazurkiewicz independence relation: two deliveries
//! to *different* processes are independent; two deliveries to the same
//! process are independent only when [`ExploreHooks::independent`] says
//! the messages commute (the replication glue claims this for repository
//! data messages on different objects — repository message handlers are
//! RNG-free, so the claim is sound); everything else (timers, drops,
//! crashes, recoveries) is dependent with everything. A state-hash
//! visited set over `Debug`-interned driver state prunes convergent
//! branches; entries remember the depth and sleep set they were explored
//! under, so a revisit with *more* remaining depth or a *smaller* sleep
//! set is re-explored (the classic sleep-set/state-caching soundness
//! condition).
//!
//! Schedules index the **unreduced** canonical choice list, so a witness
//! found with reduction on replays identically with reduction off.

use crate::engine::{Ctx, Process};
use crate::fault::{ProcId, SimTime};
use crate::splitmix64;
use crate::trace::{TraceConfig, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt::Debug;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};

/// Budgets and switches for one exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Maximum schedule length (events per branch); iterative deepening
    /// stops here.
    pub max_depth: usize,
    /// DFS node budget, cumulative across deepening iterations.
    pub max_states: u64,
    /// Executed-transition budget, cumulative across deepening iterations.
    pub max_transitions: u64,
    /// Partial-order reduction on or off (off still keeps the visited
    /// set; schedules are comparable either way).
    pub por: bool,
    /// Seed for per-event process randomness.
    pub seed: u64,
    /// How many pending messages any single branch may drop.
    pub drop_budget: u32,
    /// How many crashes any single branch may inject.
    pub crash_budget: u32,
    /// Iterative-deepening increment; 1 (the default) makes the first
    /// witness found a strictly minimal-depth one.
    pub deepen_step: usize,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_depth: 20,
            max_states: 1_000_000,
            max_transitions: 4_000_000,
            por: true,
            seed: 0,
            drop_budget: 0,
            crash_budget: 0,
            deepen_step: 1,
        }
    }
}

/// Counters describing one exploration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// DFS nodes expanded (cumulative over deepening iterations).
    pub states: u64,
    /// Events executed (cumulative over deepening iterations).
    pub transitions: u64,
    /// Complete schedules (terminal states) reached.
    pub schedules: u64,
    /// Deepest schedule reached.
    pub max_depth_reached: usize,
    /// Deepening iterations run.
    pub iterations: u32,
    /// Whether a state/transition budget stopped the search.
    pub budget_exhausted: bool,
    /// Whether the full reachable space (to `max_depth`) was covered —
    /// the "every reachable schedule is safe" verdict, as opposed to
    /// "no violation found before a budget hit".
    pub complete: bool,
}

/// A violating branch: the canonical choice indices that reach it, and
/// the hooks' verdict there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Indices into each prefix state's canonical enabled-choice list.
    pub schedule: Vec<u32>,
    /// The violation the hooks reported.
    pub verdict: String,
}

/// Everything an exploration returns.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Search counters.
    pub stats: ExploreStats,
    /// The first (minimal-depth, lowest-index) violating schedule, if any.
    pub witness: Option<Witness>,
}

/// What the caller plugs into the explorer: decision counting, the safety
/// audit, and the domain's independence relation.
pub trait ExploreHooks<M, P> {
    /// How many top-level decisions (e.g. transactions committed or
    /// aborted) the state holds — the explorer audits a branch whenever
    /// this increases.
    fn decided(&self, procs: &[P]) -> u64;

    /// Audits the state; `Some(verdict)` reports a safety violation.
    /// Called on every decision increase and at every terminal state.
    fn check(&self, procs: &[P]) -> Option<String>;

    /// Whether delivering `a` and `b` to the *same* process commutes.
    /// Only claim this for handlers that are RNG-free and whose state
    /// updates are order-insensitive; the default claims nothing.
    fn independent(&self, _a: &M, _b: &M) -> bool {
        false
    }

    /// Whether the run is over even if events remain enabled (prunes
    /// post-decision bookkeeping interleavings).
    fn done(&self, _procs: &[P]) -> bool {
        false
    }

    /// Whether the explorer may crash process `p` (when a crash budget is
    /// configured).
    fn can_crash(&self, _p: ProcId) -> bool {
        true
    }
}

/// One in-flight message.
#[derive(Debug, Clone)]
struct Pend<M> {
    from: ProcId,
    to: ProcId,
    fp: u64,
    msg: M,
}

/// One explorer state: drivers plus the whole network/timer/fault
/// context. Cloned per branch — shapes are small by design.
#[derive(Debug, Clone)]
struct ExpState<M, P> {
    procs: Vec<P>,
    /// In-flight messages in send order. A `(from, to)` channel's queue
    /// is the subsequence with that pair; only its first element is
    /// deliverable (FIFO channels). The subsequence per channel is
    /// invariant under commuting swaps — independent events never send
    /// on the same channel — so the canonical per-channel rendering (not
    /// raw insertion order) is what the state hash folds in.
    pending: Vec<Pend<M>>,
    /// Per-process armed timers `(absolute due, token)`, in arm order.
    timers: Vec<Vec<(SimTime, u64)>>,
    crashed: Vec<bool>,
    now: SimTime,
    /// Per-process executed-event counts (seeds per-event randomness).
    events_at: Vec<u64>,
    drops_left: u32,
    crashes_left: u32,
}

/// One enabled choice, identified positionally within a state's canonical
/// list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Choice {
    Deliver(usize),
    Timer(ProcId),
    Drop(usize),
    Crash(ProcId),
    Recover(ProcId),
}

/// A sleep-set entry: only deliveries ever sleep (everything else is
/// dependent with everything). Carries the message so same-process
/// independence can consult [`ExploreHooks::independent`].
#[derive(Debug, Clone)]
struct SleepEnt<M> {
    from: ProcId,
    to: ProcId,
    fp: u64,
    msg: M,
}

type SleepKey = (ProcId, ProcId, u64);

/// Per-event randomness: a pure function of `(seed, process, the
/// process's executed-event count)`, so it commutes across processes.
fn event_rng(seed: u64, p: ProcId, count: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(
        splitmix64(seed ^ (u64::from(p) << 32)).wrapping_add(count),
    ))
}

/// A `fmt::Write` sink that feeds one or two hashers directly — state
/// fingerprinting formats *into* the hash, never into an intermediate
/// `String` (the dominant cost at millions of states).
struct HashWriter<'a> {
    a: &'a mut DefaultHasher,
    b: Option<&'a mut DefaultHasher>,
}

impl std::fmt::Write for HashWriter<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.a.write(s.as_bytes());
        if let Some(b) = self.b.as_deref_mut() {
            b.write(s.as_bytes());
        }
        Ok(())
    }
}

fn fingerprint<M: Debug>(msg: &M) -> u64 {
    let mut h = DefaultHasher::new();
    let mut w = HashWriter { a: &mut h, b: None };
    let _ = write!(w, "{msg:?}");
    h.finish()
}

fn apply_effects<M: Debug, P>(
    st: &mut ExpState<M, P>,
    me: ProcId,
    sends: Vec<(ProcId, M, u64)>,
    timers: Vec<(SimTime, u64)>,
) {
    for (to, msg, _weight) in sends {
        // Sends to crashed (or out-of-range) endpoints vanish at send
        // time, as in the engine.
        if (to as usize) >= st.crashed.len() || st.crashed[to as usize] {
            continue;
        }
        let fp = fingerprint(&msg);
        st.pending.push(Pend {
            from: me,
            to,
            fp,
            msg,
        });
    }
    for (delay, token) in timers {
        st.timers[me as usize].push((st.now + delay, token));
    }
}

/// Runs one handler under a detached context and applies its effects.
fn run_event<M, P, F>(st: &mut ExpState<M, P>, p: ProcId, seed: u64, f: F)
where
    M: Debug,
    P: Process<M>,
    F: FnOnce(&mut P, &mut Ctx<'_, M>),
{
    let mut rng = event_rng(seed, p, st.events_at[p as usize]);
    st.events_at[p as usize] += 1;
    let mut tracer = Tracer::new(TraceConfig::disabled(), st.procs.len());
    let mut ctx = Ctx::detached(st.now, p, &mut rng, &mut tracer);
    f(&mut st.procs[p as usize], &mut ctx);
    let (sends, timers) = ctx.into_effects();
    apply_effects(st, p, sends, timers);
}

fn execute<M, P>(st: &mut ExpState<M, P>, c: Choice, seed: u64)
where
    M: Clone + Debug,
    P: Process<M> + Clone,
{
    match c {
        Choice::Deliver(i) => {
            let Pend { from, to, msg, .. } = st.pending.remove(i);
            debug_assert!(!st.crashed[to as usize], "pending never targets crashed");
            run_event(st, to, seed, |proc, ctx| proc.on_message(ctx, from, msg));
        }
        Choice::Timer(p) => {
            let slot = &mut st.timers[p as usize];
            let (mi, _) = slot
                .iter()
                .enumerate()
                .min_by_key(|(i, (due, _))| (*due, *i))
                .expect("timer choice requires an armed timer");
            let (due, token) = slot.remove(mi);
            st.now = st.now.max(due);
            run_event(st, p, seed, |proc, ctx| proc.on_timer(ctx, token));
        }
        Choice::Drop(i) => {
            st.pending.remove(i);
            st.drops_left -= 1;
        }
        Choice::Crash(p) => {
            st.crashed[p as usize] = true;
            st.crashes_left -= 1;
            st.pending.retain(|m| m.to != p);
            st.timers[p as usize].clear();
        }
        Choice::Recover(p) => {
            st.crashed[p as usize] = false;
            run_event(st, p, seed, |proc, ctx| proc.on_recover(ctx));
        }
    }
}

/// The pending-vector indices of each FIFO channel's head, ordered
/// canonically by `(to, from)` — the deliverable (and droppable) set.
fn channel_heads<M>(pending: &[Pend<M>]) -> Vec<usize> {
    let mut heads: Vec<(ProcId, ProcId, usize)> = Vec::new();
    for (i, m) in pending.iter().enumerate() {
        if !heads
            .iter()
            .any(|&(to, from, _)| to == m.to && from == m.from)
        {
            heads.push((m.to, m.from, i));
        }
    }
    heads.sort_unstable_by_key(|&(to, from, _)| (to, from));
    heads.into_iter().map(|(_, _, i)| i).collect()
}

/// The canonical enabled-choice list: channel-head deliveries in
/// `(to, from)` channel order, then at most one timer (the globally
/// earliest eligible `(due, proc)`), then drops, crashes, and
/// recoveries. Schedule indices refer to this list.
fn enabled_choices<M, P, H>(st: &ExpState<M, P>, hooks: &H) -> Vec<Choice>
where
    H: ExploreHooks<M, P> + ?Sized,
{
    let heads = channel_heads(&st.pending);
    let mut out: Vec<Choice> = heads.iter().copied().map(Choice::Deliver).collect();
    let mut best: Option<(SimTime, ProcId)> = None;
    for (p, slot) in st.timers.iter().enumerate() {
        if st.crashed[p] || slot.is_empty() {
            continue;
        }
        // Quiescent firing: a timer waits until nothing is in flight for
        // *or from* its process (with no drop spent, a timeout cannot
        // outrun a delivery that is guaranteed to arrive).
        if st
            .pending
            .iter()
            .any(|m| m.to as usize == p || m.from as usize == p)
        {
            continue;
        }
        let due = slot.iter().map(|(d, _)| *d).min().expect("non-empty");
        let cand = (due, p as ProcId);
        if best.is_none_or(|b| cand < b) {
            best = Some(cand);
        }
    }
    if let Some((_, p)) = best {
        out.push(Choice::Timer(p));
    }
    if st.drops_left > 0 {
        out.extend(heads.into_iter().map(Choice::Drop));
    }
    if st.crashes_left > 0 {
        for p in 0..st.procs.len() {
            if !st.crashed[p] && hooks.can_crash(p as ProcId) {
                out.push(Choice::Crash(p as ProcId));
            }
        }
    }
    for (p, c) in st.crashed.iter().enumerate() {
        if *c {
            out.push(Choice::Recover(p as ProcId));
        }
    }
    out
}

/// Fingerprints the whole state through its `Debug` rendering (driver
/// state is `Debug`-deterministic by construction: ordered collections
/// only). Two independent hash passes make accidental 64-bit collisions
/// a non-concern at explorable state counts.
fn state_hash<M, P>(st: &ExpState<M, P>) -> u128
where
    M: Debug,
    P: Debug,
{
    let mut h1 = DefaultHasher::new();
    0u8.hash(&mut h1);
    let mut h2 = DefaultHasher::new();
    1u8.hash(&mut h2);
    let mut d = HashWriter {
        a: &mut h1,
        b: Some(&mut h2),
    };
    for p in &st.procs {
        let _ = write!(d, "{p:?};");
    }
    // Channels in canonical `(to, from)` order, each queue in FIFO order:
    // independent events never send on the same channel, so this rendering
    // is invariant under commuting swaps even though the raw insertion
    // order of `pending` is not.
    let mut chans: Vec<(ProcId, ProcId)> = st.pending.iter().map(|m| (m.to, m.from)).collect();
    chans.sort_unstable();
    chans.dedup();
    for (to, from) in chans {
        let _ = write!(d, "m{from}>{to}:");
        for m in &st.pending {
            if m.to == to && m.from == from {
                let _ = write!(d, "{:x},", m.fp);
            }
        }
        let _ = write!(d, ";");
    }
    for (p, slot) in st.timers.iter().enumerate() {
        let _ = write!(d, "t{p}:{slot:?};");
    }
    let _ = write!(
        d,
        "c{:?};n{};e{:?};d{};k{}",
        st.crashed, st.now, st.events_at, st.drops_left, st.crashes_left
    );
    (u128::from(h1.finish()) << 64) | u128::from(h2.finish())
}

fn is_subset(a: &[SleepKey], b: &[SleepKey]) -> bool {
    a.iter().all(|k| b.binary_search(k).is_ok())
}

struct Dfs<'h, M, P, H> {
    hooks: &'h H,
    cfg: ExploreConfig,
    stats: ExploreStats,
    /// Visited states with the (depth, sleep set) they were explored
    /// under; a revisit prunes only when some entry had no less remaining
    /// depth *and* a subset of the current sleep set.
    visited: HashMap<u128, Vec<(usize, Vec<SleepKey>)>>,
    witness: Option<Witness>,
    depth_cut: bool,
    schedule: Vec<u32>,
    _m: std::marker::PhantomData<fn() -> (M, P)>,
}

impl<M, P, H> Dfs<'_, M, P, H>
where
    M: Clone + Debug,
    P: Process<M> + Clone + Debug,
    H: ExploreHooks<M, P>,
{
    fn budget_over(&self) -> bool {
        self.stats.states >= self.cfg.max_states
            || self.stats.transitions >= self.cfg.max_transitions
    }

    fn run(&mut self, st: &ExpState<M, P>, sleep: Vec<SleepEnt<M>>, limit: usize) {
        if self.witness.is_some() {
            return;
        }
        if self.budget_over() {
            self.stats.budget_exhausted = true;
            return;
        }
        self.stats.states += 1;
        let depth = self.schedule.len();
        self.stats.max_depth_reached = self.stats.max_depth_reached.max(depth);

        let choices = enabled_choices(st, self.hooks);
        if choices.is_empty() || self.hooks.done(&st.procs) {
            self.stats.schedules += 1;
            if let Some(verdict) = self.hooks.check(&st.procs) {
                self.witness = Some(Witness {
                    schedule: self.schedule.clone(),
                    verdict,
                });
            }
            return;
        }
        if depth >= limit {
            self.depth_cut = true;
            return;
        }

        let key = state_hash(st);
        let mut sleep_keys: Vec<SleepKey> = sleep.iter().map(|e| (e.from, e.to, e.fp)).collect();
        sleep_keys.sort_unstable();
        sleep_keys.dedup();
        let entries = self.visited.entry(key).or_default();
        if entries
            .iter()
            .any(|(d0, z0)| *d0 <= depth && is_subset(z0, &sleep_keys))
        {
            return;
        }
        entries.retain(|(d0, z0)| !(*d0 >= depth && is_subset(&sleep_keys, z0)));
        entries.push((depth, sleep_keys));

        let mut cur_sleep = sleep;
        for (i, &c) in choices.iter().enumerate() {
            if self.witness.is_some() {
                return;
            }
            if self.budget_over() {
                self.stats.budget_exhausted = true;
                return;
            }
            if let Choice::Deliver(idx) = c {
                let m = &st.pending[idx];
                if cur_sleep
                    .iter()
                    .any(|e| e.from == m.from && e.to == m.to && e.fp == m.fp)
                {
                    continue;
                }
            }
            let mut child = st.clone();
            let before = self.hooks.decided(&child.procs);
            execute(&mut child, c, self.cfg.seed);
            self.stats.transitions += 1;
            self.schedule.push(i as u32);
            if self.hooks.decided(&child.procs) > before {
                if let Some(verdict) = self.hooks.check(&child.procs) {
                    self.stats.max_depth_reached =
                        self.stats.max_depth_reached.max(self.schedule.len());
                    self.witness = Some(Witness {
                        schedule: self.schedule.clone(),
                        verdict,
                    });
                    self.schedule.pop();
                    return;
                }
            }
            let child_sleep: Vec<SleepEnt<M>> = if self.cfg.por {
                cur_sleep
                    .iter()
                    .filter(|e| self.sleeps_through(st, e, c))
                    .cloned()
                    .collect()
            } else {
                Vec::new()
            };
            self.run(&child, child_sleep, limit);
            self.schedule.pop();
            if self.cfg.por {
                if let Choice::Deliver(idx) = c {
                    let m = &st.pending[idx];
                    cur_sleep.push(SleepEnt {
                        from: m.from,
                        to: m.to,
                        fp: m.fp,
                        msg: m.msg.clone(),
                    });
                }
            }
        }
    }

    /// Whether sleep entry `e` stays asleep across executing `c`:
    /// deliveries to a different process always commute; same-process
    /// deliveries commute when the hooks say the messages do; everything
    /// else wakes the entry.
    fn sleeps_through(&self, st: &ExpState<M, P>, e: &SleepEnt<M>, c: Choice) -> bool {
        match c {
            Choice::Deliver(idx) => {
                let m = &st.pending[idx];
                m.to != e.to || self.hooks.independent(&e.msg, &m.msg)
            }
            _ => false,
        }
    }
}

fn init_state<M, P>(procs: Vec<P>, cfg: &ExploreConfig) -> ExpState<M, P>
where
    M: Clone + Debug,
    P: Process<M> + Clone,
{
    let n = procs.len();
    let mut st = ExpState {
        procs,
        pending: Vec::new(),
        timers: vec![Vec::new(); n],
        crashed: vec![false; n],
        now: 0,
        events_at: vec![0; n],
        drops_left: cfg.drop_budget,
        crashes_left: cfg.crash_budget,
    };
    for p in 0..n as ProcId {
        run_event(&mut st, p, cfg.seed, |proc, ctx| proc.on_start(ctx));
    }
    st
}

/// Explores every interleaving of `procs` (which have not been started;
/// the explorer runs `on_start` itself, in process-id order) up to the
/// configured budgets, iteratively deepening so the first witness found
/// is minimal-depth. Deterministic: a pure function of the drivers, the
/// hooks, and `cfg`.
pub fn explore<M, P, H>(procs: Vec<P>, hooks: &H, cfg: ExploreConfig) -> ExploreOutcome
where
    M: Clone + Debug,
    P: Process<M> + Clone + Debug,
    H: ExploreHooks<M, P>,
{
    let init = init_state(procs, &cfg);
    let mut agg = ExploreStats::default();
    let step = cfg.deepen_step.max(1);
    let max_depth = cfg.max_depth.max(1);
    let mut limit = step.min(max_depth);
    loop {
        let mut dfs = Dfs {
            hooks,
            cfg,
            stats: ExploreStats {
                states: agg.states,
                transitions: agg.transitions,
                ..ExploreStats::default()
            },
            visited: HashMap::new(),
            witness: None,
            depth_cut: false,
            schedule: Vec::new(),
            _m: std::marker::PhantomData,
        };
        dfs.run(&init, Vec::new(), limit);
        agg.states = dfs.stats.states;
        agg.transitions = dfs.stats.transitions;
        agg.schedules += dfs.stats.schedules;
        agg.max_depth_reached = agg.max_depth_reached.max(dfs.stats.max_depth_reached);
        agg.iterations += 1;
        agg.budget_exhausted |= dfs.stats.budget_exhausted;
        if let Some(witness) = dfs.witness {
            return ExploreOutcome {
                stats: agg,
                witness: Some(witness),
            };
        }
        if !dfs.depth_cut && !dfs.stats.budget_exhausted {
            // No branch was cut anywhere: the whole reachable space fits
            // within this limit, so deepening further finds nothing new.
            agg.complete = true;
            return ExploreOutcome {
                stats: agg,
                witness: None,
            };
        }
        if agg.budget_exhausted || limit >= max_depth {
            return ExploreOutcome {
                stats: agg,
                witness: None,
            };
        }
        limit = (limit + step).min(max_depth);
    }
}

/// What a schedule replay produces: the drivers after the last step, a
/// deterministic one-line description per executed step, and the hooks'
/// verdict (checked at every decision increase and once at the end).
#[derive(Debug)]
pub struct Replay<P> {
    /// The drivers after the schedule ran.
    pub procs: Vec<P>,
    /// One rendered line per executed step.
    pub steps: Vec<String>,
    /// The first violation observed, if any.
    pub verdict: Option<String>,
}

fn describe<M, P>(st: &ExpState<M, P>, c: Choice) -> String {
    match c {
        Choice::Deliver(i) => {
            let m = &st.pending[i];
            format!("deliver {}->{} fp={:016x}", m.from, m.to, m.fp)
        }
        Choice::Timer(p) => {
            let (due, token) = st.timers[p as usize]
                .iter()
                .copied()
                .min_by_key(|(d, _)| *d)
                .expect("timer choice requires an armed timer");
            format!("timer p={p} token={token} due={due}")
        }
        Choice::Drop(i) => {
            let m = &st.pending[i];
            format!("drop {}->{} fp={:016x}", m.from, m.to, m.fp)
        }
        Choice::Crash(p) => format!("crash p={p}"),
        Choice::Recover(p) => format!("recover p={p}"),
    }
}

/// Replays a schedule produced by [`explore`] step for step. Exact by
/// construction: the explorer is a pure function of `(drivers, seed,
/// schedule)`, so the replay visits the same states the exploration did.
/// An index past the enabled-choice list (a schedule for a different
/// shape or seed) stops the replay with a diagnostic step line.
pub fn replay<M, P, H>(procs: Vec<P>, hooks: &H, cfg: ExploreConfig, schedule: &[u32]) -> Replay<P>
where
    M: Clone + Debug,
    P: Process<M> + Clone + Debug,
    H: ExploreHooks<M, P>,
{
    let mut st = init_state(procs, &cfg);
    let mut steps = Vec::new();
    let mut verdict = None;
    for (k, &idx) in schedule.iter().enumerate() {
        let choices = enabled_choices(&st, hooks);
        let Some(&c) = choices.get(idx as usize) else {
            steps.push(format!(
                "step {k}: index {idx} out of range ({} enabled)",
                choices.len()
            ));
            return Replay {
                procs: st.procs,
                steps,
                verdict,
            };
        };
        let desc = describe(&st, c);
        let before = hooks.decided(&st.procs);
        execute(&mut st, c, cfg.seed);
        steps.push(format!("step {k}: {desc} t={}", st.now));
        if verdict.is_none() && hooks.decided(&st.procs) > before {
            verdict = hooks.check(&st.procs);
        }
        if verdict.is_some() {
            break;
        }
    }
    if verdict.is_none() {
        verdict = hooks.check(&st.procs);
    }
    Replay {
        procs: st.procs,
        steps,
        verdict,
    }
}
