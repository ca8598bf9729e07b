//! What a load run is told ([`LoadConfig`], [`CrashSpec`]) and what it
//! reports ([`LoadReport`]).

use std::sync::Arc;
use std::time::Duration;

use quorumcc_adts::Queue;
use quorumcc_replication::protocol::Mode;
use quorumcc_replication::{RunReport, RunTelemetry};
use quorumcc_sim::{Json, SimTime};

use crate::fault::NetFaultProfile;

/// Parameters for one load run (one concurrency-control mode).
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrency-control mode under test.
    pub mode: Mode,
    /// Dependency relation for `mode` (must validate for Queue).
    pub relation: quorumcc_core::DependencyRelation,
    /// Independent cells, each its own `n_repos`-repository cluster with
    /// its own listeners and workers; clients are split evenly across
    /// cells and all cells run concurrently. Cells were originally a
    /// gossip-pressure valve (per-repository work was O(total actions)
    /// in statuses, DESIGN §3.14); with scoped shipping + status GC
    /// (DESIGN §3.16) they are the *hosting* unit — one event-loop
    /// thread per cell, the same parallelism shape as `exp_scale`'s
    /// per-cluster sims.
    pub clusters: usize,
    /// Repository (site) count per cell.
    pub n_repos: u32,
    /// Concurrent client drivers.
    pub clients: usize,
    /// Transactions per client.
    pub txns_per_client: usize,
    /// Operations per transaction.
    pub ops_per_txn: usize,
    /// Distinct objects, assigned per-op pseudorandomly; more objects
    /// means fewer cross-client conflicts.
    pub objects: u16,
    /// Worker threads multiplexing the client drivers.
    pub workers: usize,
    /// Workload/jitter seed.
    pub seed: u64,
    /// Per-quorum-phase timeout in ticks (µs).
    pub op_timeout_ticks: SimTime,
    /// Contact only quorum-sized repository subsets (`Fanout::Narrow`)
    /// instead of broadcasting every phase — a third fewer frames on a
    /// 3-repository cell, at the price of a broadcast fallback after a
    /// timeout.
    pub narrow: bool,
    /// Fraction of operations that are `Deq` (the rest are `Enq`). `Deq`
    /// conflicts with everything on its object; `Enq`s commute, so a
    /// 0.0 mix measures pure throughput with no conflict aborts.
    pub deq_fraction: f64,
    /// Window over which each worker staggers its clients' starts. Zero
    /// is a thundering herd; a ramp keeps the repository side from
    /// building a queue it can never drain (every `Resolve` still plants
    /// statuses in the touched logs — DESIGN §3.16 bounds that work but
    /// does not make admission free).
    pub ramp: Duration,
    /// Wall-clock cap; clients still in flight at the deadline are
    /// abandoned (reported in [`LoadReport::unfinished`]).
    pub deadline: Duration,
    /// Scoped status shipping on repositories (see
    /// `TuningConfig::scoped_statuses`).
    pub scoped_statuses: bool,
    /// Status-GC sweep batch (see `TuningConfig::status_gc`); `None`
    /// keeps tombstones forever.
    pub status_gc: Option<u64>,
    /// Inert: named by the frozen perf/ package; remove with the next
    /// benchmark PR.
    #[doc(hidden)]
    pub backend: LoadBackend,
    /// Socket-level fault injection applied to every harness link (the
    /// workers' connections and the event loop's accepted ones): seeded
    /// resets, stalls, split writes, and silent drops. The default
    /// profile injects nothing and leaves streams untouched.
    pub fault_profile: NetFaultProfile,
    /// Client ResolveAck retransmit period in ticks (µs) — the frontier
    /// repair path (`TuningConfig::resolve_retransmit`). `None` disables
    /// retransmission, the pre-supervision behavior.
    pub resolve_retransmit: Option<SimTime>,
    /// Scripted repository crash: the repo at this index in each cell
    /// goes dark at `at_ms`, loses its volatile
    /// state, and restarts `down_ms` later, catching back up through
    /// `SyncReq` state transfer.
    pub crash: Option<CrashSpec>,
}

/// One scripted kill/restart for [`LoadConfig::crash`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// Repository index (within each cell) to kill.
    pub repo: usize,
    /// Wall-clock offset of the crash, milliseconds from run start.
    pub at_ms: u64,
    /// How long the repository stays dark, milliseconds.
    pub down_ms: u64,
}

impl CrashSpec {
    /// Parses `repo:at_ms:down_ms` (e.g. `0:500:300`).
    pub fn parse(s: &str) -> Result<CrashSpec, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let [repo, at_ms, down_ms] = parts.as_slice() else {
            return Err(format!("bad crash spec '{s}': want repo:at_ms:down_ms"));
        };
        let field = |v: &str, name: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("bad crash spec '{s}': {name} is not a number"))
        };
        Ok(CrashSpec {
            repo: field(repo, "repo")? as usize,
            at_ms: field(at_ms, "at_ms")?,
            down_ms: field(down_ms, "down_ms")?,
        })
    }
}

/// The one repository host left (DESIGN §3.14). Inert: named by the
/// frozen perf/ package; remove with the next benchmark PR.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadBackend {
    /// One OS thread per cell multiplexing all of its repositories over
    /// nonblocking sockets.
    EventLoop,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            mode: Mode::StaticTs,
            relation: quorumcc_core::DependencyRelation::default(),
            clusters: 1,
            n_repos: 3,
            clients: 1000,
            txns_per_client: 1,
            ops_per_txn: 2,
            objects: 1024,
            workers: 8,
            seed: 1,
            op_timeout_ticks: 500_000, // 500ms
            narrow: false,
            deq_fraction: 0.4,
            ramp: Duration::ZERO,
            deadline: Duration::from_secs(60),
            scoped_statuses: false,
            status_gc: None,
            backend: LoadBackend::EventLoop,
            fault_profile: NetFaultProfile::none(),
            resolve_retransmit: None,
            crash: None,
        }
    }
}

/// Throughput/latency summary of one load run, derived from its cells'
/// harvested [`RunReport`]s plus the socket links' counters.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Mode name (`static` / `hybrid` / `dynamic-2pl`), as `Mode::name` spells it.
    pub mode: &'static str,
    /// Repository host label (always `eventloop`; kept for the BENCH
    /// json's consumers).
    pub backend: &'static str,
    /// Client drivers launched.
    pub clients: usize,
    /// Transactions committed.
    pub committed: usize,
    /// Transactions aborted (conflict or unavailability, after retries).
    pub aborted: usize,
    /// Individual operations inside committed transactions.
    pub ops_committed: usize,
    /// Clients that had not finished when the deadline hit.
    pub unfinished: usize,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Committed transactions per wall-clock second.
    pub txns_per_sec: f64,
    /// Committed operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Median begin→commit latency, microseconds.
    pub p50_us: u64,
    /// 90th-percentile latency, microseconds.
    pub p90_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Mean latency, microseconds.
    pub mean_us: f64,
    /// Worker→repository reconnects performed by link supervision.
    pub reconnects: u64,
    /// Frames replayed from link rings after a reconnect.
    pub retransmit_frames: u64,
    /// Client-side ResolveAck retransmit rounds (frontier repair).
    pub resolve_ack_retransmits: u64,
    /// Retransmit timer fires that observed a stuck durable frontier.
    pub frontier_stalls: u64,
    /// Statuses garbage-collected repository-side (durable-GC progress).
    pub statuses_gcd: u64,
    /// Repository crash recoveries (scripted via [`LoadConfig::crash`]).
    pub recoveries: u64,
    /// Commit times (ticks = µs since run start) of every committed
    /// transaction, sorted — the raw series `exp_recovery` buckets into
    /// pre-crash vs post-rejoin goodput. Not serialized.
    pub commit_ticks: Vec<SimTime>,
    /// Each cell's harvested run, in cell order: client records, final
    /// repository state and telemetry — what the safety oracle audits
    /// ([`RunReport::safety`]). Shared so the report stays cheap to clone.
    /// Not serialized.
    pub cells: Vec<Arc<RunReport<Queue>>>,
}

impl LoadReport {
    /// The run's telemetry: the cells' records merged, with the links'
    /// reconnect count (which no driver sees) filled in.
    pub fn telemetry(&self) -> RunTelemetry {
        let mut out = RunTelemetry::default();
        for cell in &self.cells {
            out.merge(cell.telemetry());
        }
        out.reconnects = self.reconnects;
        out
    }

    /// The report as a JSON object; `rejoins` comes from the cells'
    /// telemetry like every count the links do not keep themselves.
    pub fn to_json(&self) -> Json {
        let rejoins: u64 = self.cells.iter().map(|c| c.telemetry().rejoins).sum();
        let latency = Json::object()
            .field("p50", self.p50_us)
            .field("p90", self.p90_us)
            .field("p99", self.p99_us)
            .field("mean", Json::Fixed(self.mean_us, 1));
        Json::object()
            .field("mode", self.mode)
            .field("backend", self.backend)
            .field("clients", self.clients)
            .field("committed", self.committed)
            .field("aborted", self.aborted)
            .field("ops_committed", self.ops_committed)
            .field("unfinished", self.unfinished)
            .field("wall_ms", self.wall.as_millis() as u64)
            .field("txns_per_sec", Json::Fixed(self.txns_per_sec, 1))
            .field("ops_per_sec", Json::Fixed(self.ops_per_sec, 1))
            .field("reconnects", self.reconnects)
            .field("retransmit_frames", self.retransmit_frames)
            .field("resolve_ack_retransmits", self.resolve_ack_retransmits)
            .field("frontier_stalls", self.frontier_stalls)
            .field("rejoins", rejoins)
            .field("statuses_gcd", self.statuses_gcd)
            .field("recoveries", self.recoveries)
            .field("latency_us", latency)
    }
}
