//! The five workloads and the one host configuration they share.
//!
//! Common shape: the event-loop socket host, one cell, three repositories,
//! one worker (two busy threads — event loop and worker — plus three
//! blocked reader threads and three loopback connections, the minimum
//! `run_load` permits), hybrid atomicity, narrow fan-out, scoped statuses,
//! status GC every 64, no ramp, closed loop: each client issues its next
//! transaction 1 ms after the previous one resolves. A round is a fixed
//! transaction count on a fresh cell, never a fixed duration, because the
//! cost of a transaction depends on the history accumulated before it.

use std::time::{Duration, Instant};

use quorumcc_adts::Queue;
use quorumcc_core::{minimal_dynamic_relation, minimal_static_relation, DependencyRelation};
use quorumcc_model::spec::ExploreBounds;
use quorumcc_net::{CrashSpec, LoadBackend, LoadConfig, NetFaultProfile};
use quorumcc_replication::protocol::Mode;

/// One workload: what a round runs and why it exists.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: &'static str,
    pub why: &'static str,
    pub clients: usize,
    pub txns_per_client: usize,
    pub ops_per_txn: usize,
    pub objects: u16,
    pub deq_fraction: f64,
    /// Lossy sockets, `Resolve` retransmission and one scripted crash.
    pub faults: bool,
}

/// Every workload completes every transaction: the contract wants no
/// failing operation, and a conflict that exhausts its two retries is one.
/// The retry backoff of 1-4 ms is shorter than the time the winner holds
/// its lock, so with concurrent `Deq`s nearly every collision fails,
/// however many objects there are. The workload with `Deq`s therefore
/// runs a single client; the other four are `Enq`-only, which commute.
pub const WORKLOADS: [Shape; 5] = [
    Shape {
        name: "sock_shallow",
        why: "64 clients x 100 Enq on 256 objects: logs stay ~25 entries, so per-message cost (codec, framing, syscalls, hand-off) has its largest share",
        clients: 64,
        txns_per_client: 100,
        ops_per_txn: 1,
        objects: 256,
        deq_fraction: 0.0,
        faults: false,
    },
    Shape {
        name: "sock_deep",
        why: "16 clients x 100 Enq on 2 objects: each log reaches 800 entries uncompacted, so WriteLog scans, merge/delta and view building dominate",
        clients: 16,
        txns_per_client: 100,
        ops_per_txn: 1,
        objects: 2,
        deq_fraction: 0.0,
        faults: false,
    },
    Shape {
        name: "sock_wide",
        why: "64 clients x 40 Enq on 8192 objects: one-entry logs but every Resolve walks all touched logs; per-object-count cost without per-history cost",
        clients: 64,
        txns_per_client: 40,
        ops_per_txn: 1,
        objects: 8192,
        deq_fraction: 0.0,
        faults: false,
    },
    Shape {
        name: "sock_mixed",
        why: "1 client x 1000 txns x 2 ops, 30% Deq, 8 objects: the read path (merged view, Protocol::evaluate) in series; latency floor of the idle backoff",
        clients: 1,
        txns_per_client: 1000,
        ops_per_txn: 2,
        objects: 8,
        deq_fraction: 0.3,
        faults: false,
    },
    Shape {
        name: "sock_lossy",
        why: "32 clients x 120 Enq on 256 objects over lossy sockets, 100 ms timeouts, one repository crash: supervision, frame replay, Resolve retransmit and rejoin do real work",
        clients: 32,
        txns_per_client: 120,
        ops_per_txn: 1,
        objects: 256,
        deq_fraction: 0.0,
        faults: true,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Shape> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// Extracts the queue's minimal static dependency relation (valid for
/// static and hybrid atomicity) from its specification — the set-up every
/// deployment pays before it opens a socket — and reports how long it
/// took.
pub fn setup() -> (DependencyRelation, Duration) {
    let t0 = Instant::now();
    let relation = minimal_static_relation::<Queue>(bounds()).relation;
    (relation, t0.elapsed())
}

/// The exploration bounds every experiment binary of the repository uses.
fn bounds() -> ExploreBounds {
    ExploreBounds {
        depth: 4,
        max_states: 4_096,
        budget: 5_000_000,
    }
}

/// The relation dynamic atomicity needs: static plus dynamic dependencies.
pub fn dynamic_relation(static_relation: &DependencyRelation) -> DependencyRelation {
    static_relation.union(&minimal_dynamic_relation::<Queue>(bounds()).relation)
}

impl Shape {
    /// This shape at about a twentieth of its transaction count.
    pub fn quick(mut self) -> Shape {
        self.txns_per_client = (self.txns_per_client / 20).max(2);
        self
    }

    /// The host configuration of one round.
    pub fn config(&self, mode: Mode, relation: &DependencyRelation, seed: u64) -> LoadConfig {
        let mut cfg = LoadConfig {
            mode,
            relation: relation.clone(),
            clusters: 1,
            n_repos: 3,
            clients: self.clients,
            txns_per_client: self.txns_per_client,
            ops_per_txn: self.ops_per_txn,
            objects: self.objects,
            workers: 1,
            seed,
            op_timeout_ticks: 10_000_000,
            narrow: true,
            deq_fraction: self.deq_fraction,
            ramp: Duration::ZERO,
            deadline: Duration::from_secs(120),
            scoped_statuses: true,
            status_gc: Some(64),
            backend: LoadBackend::EventLoop,
            ..LoadConfig::default()
        };
        if self.faults {
            cfg.fault_profile = NetFaultProfile::lossy(seed);
            cfg.resolve_retransmit = Some(250_000);
            cfg.op_timeout_ticks = 100_000;
            // Repository 0 goes dark a tenth of the way into a round and
            // stays dark for about a third of it (150 ms + 450 ms of the
            // full shape's ~1.5 s), early enough that a host twice as
            // fast still sees it come back.
            let scale = self.txns_per_client as u64;
            cfg.crash = Some(CrashSpec {
                repo: 0,
                at_ms: scale * 5 / 4,
                down_ms: scale * 15 / 4,
            });
        }
        cfg
    }
}
