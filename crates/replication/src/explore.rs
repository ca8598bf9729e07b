//! The replication layer plugged into the interleaving explorer
//! ([`quorumcc_sim::explore`]): small cluster shapes, the safety oracle
//! auditing every branch, and one-line witness specs that replay exactly.
//!
//! The chaos fuzzer ([`crate::chaos`]) *samples* fault plans — it can find
//! bugs but never prove their absence. The explorer enumerates **every**
//! delivery interleaving of a small shape (2–3 sites, 1–2 clients, short
//! transactions) and runs the oracle on each branch, turning "600 plans
//! ran clean" into "every reachable schedule of this shape is safe". The
//! two planted-bug knobs ([`crate::cluster::TuningConfig`]'s
//! `unsound_weaken_read_quorum` and `unsound_skip_final_ack`) are the
//! calibration: exploration must find both, at minimal depth.
//!
//! # What the hooks claim
//!
//! * **Independence** (for partial-order reduction): repository-bound
//!   `ReadLog`/`WriteLog` messages commute when they target different
//!   objects, and `ReadLog`s commute even on the same object (reads
//!   record per-action reservations and never mutate the log). Repository
//!   message handlers are RNG-free, so same-site commutation is sound.
//!   Everything else — client-bound replies, `Resolve`, batches — is
//!   treated as dependent.
//! * **Auditing**: the lost-write, monotonicity, and checkpoint-nesting
//!   families run at every commit (a sound protocol commits only after a
//!   final quorum acked, so the entries must already be present); the
//!   serializability family runs only once every transaction has decided,
//!   because a committed read of a still-pending write is not yet a
//!   violation.
//!
//! # Quorum arithmetic caveat
//!
//! The weakened-read-quorum bug is *unobservable at two sites*: with
//! `n = 2`, weakening the initial threshold from 2 to 1 still leaves
//! `ti + tf = 1 + 2 = 3 > n`, so every view intersects every final
//! quorum and the protocol stays correct by accident. Its minimal
//! violating shape is three sites (1 + 2 = 3 = n — no intersection),
//! which is what the planted-bug gates use. The skip-final-ack bug needs
//! no such arithmetic — committing ahead of unacknowledged writes is
//! already a lost write at two sites, a handful of events deep.

use crate::client::{Client, Transaction};
use crate::cluster::{Assembly, Node, ProtocolConfig, RunBuilder, TuningConfig};
use crate::error::ReplicationError;
use crate::messages::Msg;
use crate::protocol::Protocol;
use crate::spec;
use crate::types::ObjId;
use crate::workload::{generate, WorkloadSpec};
use quorumcc_model::spec::ExploreBounds;
use quorumcc_model::{Classified, Enumerable};
use quorumcc_sim::explore::{explore, replay, ExploreConfig, ExploreHooks, ExploreOutcome};
use quorumcc_sim::{ProcId, SimStats};
use rand::Rng;
use std::fmt;

/// Which planted bug (if any) the explored cluster runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Knob {
    /// The sound protocol.
    #[default]
    None,
    /// Initial quorums weakened by one site
    /// ([`TuningConfig::unsound_weaken_read_quorum`]).
    WeakenReadQuorum,
    /// Commits race unacknowledged final-quorum writes
    /// ([`TuningConfig::unsound_skip_final_ack`]).
    SkipFinalAck,
}

impl Knob {
    /// The spec-field rendering.
    pub fn name(self) -> &'static str {
        match self {
            Knob::None => "none",
            Knob::WeakenReadQuorum => "weaken",
            Knob::SkipFinalAck => "skipack",
        }
    }

    /// Parses the spec-field rendering.
    ///
    /// # Errors
    ///
    /// A description of the unknown knob name.
    pub fn parse(s: &str) -> Result<Knob, String> {
        match s {
            "none" => Ok(Knob::None),
            "weaken" => Ok(Knob::WeakenReadQuorum),
            "skipack" => Ok(Knob::SkipFinalAck),
            other => Err(format!("bad knob: {other:?} (want none|weaken|skipack)")),
        }
    }
}

/// The workload shape one exploration covers: everything needed to
/// regenerate the exact cluster, deterministic in `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreSetup {
    /// Repositories.
    pub sites: u32,
    /// Clients.
    pub clients: usize,
    /// Transactions per client.
    pub txns_per_client: usize,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Objects the workload spreads over.
    pub objects: u16,
    /// Workload + per-event randomness seed.
    pub seed: u64,
    /// Narrow (minimal-quorum) fan-out instead of broadcast. Fewer
    /// in-flight messages per op — the exhaustively explorable shapes
    /// get noticeably bigger under it.
    pub narrow: bool,
    /// The planted bug, if any.
    pub knob: Knob,
    /// Serializability-search bounds for the oracle.
    pub bounds: ExploreBounds,
}

impl Default for ExploreSetup {
    fn default() -> Self {
        ExploreSetup {
            sites: 2,
            clients: 1,
            txns_per_client: 1,
            ops_per_txn: 1,
            objects: 1,
            seed: 0,
            narrow: false,
            knob: Knob::None,
            bounds: ExploreBounds {
                depth: 4,
                ..ExploreBounds::default()
            },
        }
    }
}

/// A one-line replayable witness spec, sharing the `key=value;` codec
/// with [`crate::chaos::ChaosPlan`]:
///
/// ```text
/// mode=hybrid;sites=3;clients=2;txns=1;ops=1;objects=1;seed=5;depth=24;por=1;knob=weaken;sched=0.1.4.2
/// ```
///
/// `sched` is the witness schedule — indices into each prefix state's
/// canonical enabled-choice list, which is independent of whether
/// partial-order reduction was on when the witness was found but not of
/// the fault budgets (they add `Drop`/`Crash` choices to the list), so
/// `drops=`/`crashes=` travel with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreSpec {
    /// Protocol mode name (resolved back to a protocol by the CLI).
    pub mode: String,
    /// The explored shape.
    pub setup: ExploreSetup,
    /// Depth limit the exploration ran with.
    pub depth: usize,
    /// Whether partial-order reduction was on (informational; replay is
    /// identical either way).
    pub por: bool,
    /// Messages each branch could drop ([`ExploreConfig::drop_budget`]).
    pub drops: u32,
    /// Crashes each branch could inject ([`ExploreConfig::crash_budget`]).
    pub crashes: u32,
    /// The schedule to replay.
    pub sched: Vec<u32>,
}

impl fmt::Display for ExploreSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sched: Vec<String> = self.sched.iter().map(u32::to_string).collect();
        write!(
            f,
            "mode={};sites={};clients={};txns={};ops={};objects={};seed={};depth={};por={}",
            self.mode,
            self.setup.sites,
            self.setup.clients,
            self.setup.txns_per_client,
            self.setup.ops_per_txn,
            self.setup.objects,
            self.setup.seed,
            self.depth,
            u8::from(self.por),
        )?;
        // Broadcast fan-out and zero fault budgets are the defaults; like
        // the chaos codec's `shards`/`batch`, each field appears only when
        // it deviates, so pre-existing specs stay byte-identical.
        if self.setup.narrow {
            write!(f, ";fan=n")?;
        }
        if self.drops > 0 {
            write!(f, ";drops={}", self.drops)?;
        }
        if self.crashes > 0 {
            write!(f, ";crashes={}", self.crashes)?;
        }
        write!(
            f,
            ";knob={};sched={}",
            self.setup.knob.name(),
            sched.join(".")
        )
    }
}

impl ExploreSpec {
    /// Parses a spec produced by [`ExploreSpec`]'s `Display`.
    ///
    /// # Errors
    ///
    /// A description of the first malformed field.
    pub fn parse(s: &str) -> Result<ExploreSpec, String> {
        let mut out = ExploreSpec {
            mode: String::new(),
            setup: ExploreSetup::default(),
            depth: 0,
            por: true,
            drops: 0,
            crashes: 0,
            sched: Vec::new(),
        };
        for (key, value) in spec::fields(s)? {
            match key {
                "mode" => out.mode = value.to_string(),
                "sites" => out.setup.sites = spec::num(value, "sites")?,
                "clients" => out.setup.clients = spec::num(value, "clients")?,
                "txns" => out.setup.txns_per_client = spec::num(value, "txns")?,
                "ops" => out.setup.ops_per_txn = spec::num(value, "ops")?,
                "objects" => out.setup.objects = spec::num(value, "objects")?,
                "seed" => out.setup.seed = spec::num(value, "seed")?,
                "depth" => out.depth = spec::num(value, "depth")?,
                "por" => out.por = spec::num::<u8>(value, "por")? != 0,
                "fan" => {
                    out.setup.narrow = match value {
                        "n" => true,
                        "b" => false,
                        other => return Err(format!("bad fan: {other:?}")),
                    }
                }
                "drops" => out.drops = spec::num(value, "drops")?,
                "crashes" => out.crashes = spec::num(value, "crashes")?,
                "knob" => out.setup.knob = Knob::parse(value)?,
                "sched" => {
                    out.sched = value
                        .split('.')
                        .filter(|p| !p.is_empty())
                        .map(|p| spec::num(p, "sched"))
                        .collect::<Result<_, _>>()?;
                }
                other => return Err(format!("unknown field: {other:?}")),
            }
        }
        if out.mode.is_empty() {
            return Err("missing mode".to_string());
        }
        Ok(out)
    }

    /// The exploration settings the spec records: what a replay must run
    /// under to enumerate the same choices.
    pub fn config(&self) -> ExploreConfig {
        ExploreConfig {
            max_depth: self.depth,
            por: self.por,
            drop_budget: self.drops,
            crash_budget: self.crashes,
            ..ExploreConfig::default()
        }
    }
}

/// What a spec replay produces: the rendered steps (deterministic, used
/// by the byte-identity tests) and the oracle verdict on the replayed
/// branch.
#[derive(Debug, Clone)]
pub struct ExploreReplay {
    /// One line per executed step.
    pub steps: Vec<String>,
    /// The violation the branch reproduces (`None` = clean).
    pub verdict: Option<String>,
}

/// The safety-oracle hooks over a cluster's drivers.
struct Hooks<S: Classified + Enumerable + Clone + fmt::Debug> {
    assembly: Assembly<S>,
    sites: ProcId,
    total_txns: u64,
    bounds: ExploreBounds,
}

fn clients<S: Classified>(procs: &[Node<S>]) -> impl Iterator<Item = &Client<S>> {
    procs.iter().filter_map(|p| match p {
        Node::Client(c) => Some(c),
        _ => None,
    })
}

impl<S: Classified + Enumerable + Clone + fmt::Debug> ExploreHooks<Msg<S::Inv, S::Res>, Node<S>>
    for Hooks<S>
{
    fn decided(&self, procs: &[Node<S>]) -> u64 {
        clients(procs)
            .map(|c| {
                let s = c.stats();
                (s.committed + s.aborted_conflict + s.aborted_unavailable) as u64
            })
            .sum()
    }

    fn check(&self, procs: &[Node<S>]) -> Option<String> {
        let report = self.assembly.harvest(procs, SimStats::default(), None);
        let full = self.decided(procs) >= self.total_txns;
        let safety = report.safety_gated(self.bounds, full);
        safety.violations().first().map(ToString::to_string)
    }

    fn independent(&self, a: &Msg<S::Inv, S::Res>, b: &Msg<S::Inv, S::Res>) -> bool {
        fn data<I, R>(m: &Msg<I, R>) -> Option<(ObjId, bool)> {
            match m {
                Msg::ReadLog { obj, .. } => Some((*obj, true)),
                Msg::WriteLog { obj, .. } => Some((*obj, false)),
                _ => None,
            }
        }
        match (data(a), data(b)) {
            // Repository data traffic: different objects always commute;
            // two reads commute even on the same object.
            (Some((oa, ra)), Some((ob, rb))) => oa != ob || (ra && rb),
            _ => false,
        }
    }

    fn done(&self, procs: &[Node<S>]) -> bool {
        clients(procs).all(Client::is_done)
    }

    fn can_crash(&self, p: ProcId) -> bool {
        p < self.sites
    }
}

/// Builds the cluster for a shape: the [`RunBuilder::assemble`] every host
/// goes through, its drivers handed to the explorer instead of an engine.
fn build_cluster<S: Classified + Enumerable + Clone + fmt::Debug>(
    protocol: &Protocol,
    setup: &ExploreSetup,
    workload: Vec<Vec<Transaction<S::Inv>>>,
) -> Result<(Hooks<S>, Vec<Node<S>>), ReplicationError> {
    let mut tuning = TuningConfig::default();
    if setup.narrow {
        tuning = tuning.fanout(crate::client::Fanout::Narrow);
    }
    match setup.knob {
        Knob::None => {}
        Knob::WeakenReadQuorum => tuning = tuning.unsound_weaken_read_quorum(),
        Knob::SkipFinalAck => tuning = tuning.unsound_skip_final_ack(),
    }
    let total_txns = workload.iter().map(|t| t.len() as u64).sum();
    let mut assembly = RunBuilder::<S>::new(setup.sites)
        .protocol(ProtocolConfig::new(protocol.clone()))
        .tuning(tuning)
        .seed(setup.seed)
        .workload(workload)
        .assemble()?;
    let procs = assembly.take_nodes();
    Ok((
        Hooks {
            assembly,
            sites: setup.sites,
            total_txns,
            bounds: setup.bounds,
        },
        procs,
    ))
}

fn seeded_workload<S: Classified + Enumerable + Clone + fmt::Debug>(
    setup: &ExploreSetup,
) -> Vec<Vec<Transaction<S::Inv>>> {
    let alphabet = S::invocations();
    generate(
        WorkloadSpec {
            clients: setup.clients,
            txns_per_client: setup.txns_per_client,
            ops_per_txn: setup.ops_per_txn,
            objects: setup.objects,
            seed: setup.seed,
        },
        |rng| alphabet[rng.gen_range(0..alphabet.len())].clone(),
    )
}

/// Explores every interleaving of the seeded shape.
///
/// # Errors
///
/// The builder's validation errors (invalid thresholds or empty shapes).
pub fn explore_setup<S: Classified + Enumerable + Clone + fmt::Debug>(
    protocol: &Protocol,
    setup: &ExploreSetup,
    cfg: ExploreConfig,
) -> Result<ExploreOutcome, ReplicationError> {
    explore_workload::<S>(protocol, setup, seeded_workload::<S>(setup), cfg)
}

/// Explores every interleaving of a hand-written workload under the
/// shape's knob and bounds (`setup`'s workload-shape fields are ignored;
/// the tests use this to plant exact conflict patterns).
///
/// # Errors
///
/// The builder's validation errors.
pub fn explore_workload<S: Classified + Enumerable + Clone + fmt::Debug>(
    protocol: &Protocol,
    setup: &ExploreSetup,
    workload: Vec<Vec<Transaction<S::Inv>>>,
    cfg: ExploreConfig,
) -> Result<ExploreOutcome, ReplicationError> {
    let (hooks, procs) = build_cluster::<S>(protocol, setup, workload)?;
    let cfg = ExploreConfig {
        seed: setup.seed,
        ..cfg
    };
    Ok(explore(procs, &hooks, cfg))
}

/// Replays a witness schedule against the seeded shape, step for step,
/// under the fault budgets of the exploration that found it (`cfg`).
///
/// # Errors
///
/// The builder's validation errors.
pub fn replay_setup<S: Classified + Enumerable + Clone + fmt::Debug>(
    protocol: &Protocol,
    setup: &ExploreSetup,
    cfg: ExploreConfig,
    schedule: &[u32],
) -> Result<ExploreReplay, ReplicationError> {
    replay_workload::<S>(protocol, setup, seeded_workload::<S>(setup), cfg, schedule)
}

/// Replays a witness schedule against a hand-written workload.
///
/// # Errors
///
/// The builder's validation errors.
pub fn replay_workload<S: Classified + Enumerable + Clone + fmt::Debug>(
    protocol: &Protocol,
    setup: &ExploreSetup,
    workload: Vec<Vec<Transaction<S::Inv>>>,
    cfg: ExploreConfig,
    schedule: &[u32],
) -> Result<ExploreReplay, ReplicationError> {
    let (hooks, procs) = build_cluster::<S>(protocol, setup, workload)?;
    let cfg = ExploreConfig {
        seed: setup.seed,
        ..cfg
    };
    let r = replay(procs, &hooks, cfg, schedule);
    Ok(ExploreReplay {
        steps: r.steps,
        verdict: r.verdict,
    })
}
