//! **Experiment S1** — the throughput-engine scale sweep: sharded object
//! spaces, op batching, and pipelined quorum rounds.
//!
//! Three cluster shapes (sites × shards × objects × clients, growing into
//! the thousands of ops per run) each sweep the batch size through
//! `BATCHES`. Every transaction owns a disjoint object range, so the
//! workload is contention-free *by construction* — the regime where
//! commit/abort decisions must be a pure function of the workload,
//! making the A/B decision-identity gate structural rather than
//! empirically lucky.
//!
//! The acceptance claims this binary checks and records:
//!
//! * **decision identity**: at every scale, the batched, pipelined engine
//!   reaches exactly the same (committed, conflict, unavailable) triple
//!   as the unbatched engine — coalescing changes *when* messages travel,
//!   never what the quorum arithmetic concludes;
//! * **msgs/op falls monotonically with batch size** on every shape
//!   (strictly, end to end);
//! * **throughput at the largest shape improves ≥ 2×** from batch 1 to
//!   the deepest pipeline, measured in ops per kilotick of simulated
//!   time — a deterministic stand-in for ops/sec (wall-clock goes to
//!   stdout only);
//! * `BENCH_exp_scale.json` is **byte-identical at every `--threads`
//!   count** — the file carries decisions, message counts, and simulated
//!   times only, never wall-clock or pool sizes.

use quorumcc_adts::Queue;
use quorumcc_bench::{experiment_bounds, section, threads_from_args, write_artifact};
use quorumcc_core::{minimal_static_relation, parallel};
use quorumcc_model::{Enumerable as _, Sequential};
use quorumcc_replication::cluster::{ProtocolConfig, RunBuilder, TuningConfig};
use quorumcc_replication::protocol::{Mode, Protocol};
use quorumcc_replication::{ObjId, RunTelemetry, Transaction};
use quorumcc_sim::Json;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

const BASE_SEED: u64 = 4_242;
const BATCHES: &[u32] = &[1, 2, 4, 8];

/// One cluster shape in the sweep. Objects are `clients × txns ×
/// per_txn`: every *transaction* draws its operations from its own
/// disjoint range, so no object is ever touched by two actions — not
/// across clients, and not across a client's own consecutive
/// transactions (whose resolutions gossip asynchronously). Conflicts are
/// therefore impossible for any message timing, which is what makes the
/// decision-identity gate structural. Consecutive object ids land on
/// consecutive shards, so a transaction's ops span shards and the
/// pipeline has overlap to exploit.
struct Shape {
    name: &'static str,
    sites: u32,
    shards: u16,
    clients: usize,
    per_txn: u16,
    txns: usize,
    ops: usize,
}

impl Shape {
    fn objects(&self) -> u32 {
        self.clients as u32 * self.txns as u32 * u32::from(self.per_txn)
    }
    fn total_ops(&self) -> usize {
        self.clients * self.txns * self.ops
    }
}

const SHAPES: &[Shape] = &[
    Shape {
        name: "small",
        sites: 3,
        shards: 2,
        clients: 4,
        per_txn: 2,
        txns: 3,
        ops: 4,
    },
    Shape {
        name: "medium",
        sites: 5,
        shards: 4,
        clients: 16,
        per_txn: 4,
        txns: 4,
        ops: 6,
    },
    Shape {
        name: "large",
        sites: 7,
        shards: 8,
        clients: 32,
        per_txn: 8,
        txns: 4,
        ops: 8,
    },
];

/// The disjoint-range workload for one shape (seeded, deterministic).
fn workload(shape: &Shape, seed: u64) -> Vec<Vec<Transaction<<Queue as Sequential>::Inv>>> {
    let alphabet = Queue::invocations();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..shape.clients)
        .map(|c| {
            (0..shape.txns)
                .map(|t| {
                    let base = (c * shape.txns + t) as u16 * shape.per_txn;
                    Transaction {
                        // Ops cycle round-robin over the range, so a
                        // transaction's consecutive ops land on distinct
                        // shards — the access pattern pipelining is for.
                        ops: (0..shape.ops)
                            .map(|k| {
                                let obj = ObjId(base + k as u16 % shape.per_txn);
                                (obj, alphabet[rng.gen_range(0..alphabet.len())])
                            })
                            .collect(),
                    }
                })
                .collect()
        })
        .collect()
}

/// The deterministic record for one (shape, batch) cell: the run's
/// telemetry plus the simulated time it took.
#[derive(Clone)]
struct Cell {
    batch: u32,
    t: RunTelemetry,
    end_time: u64,
}

impl Cell {
    /// Ops per 1000 ticks of simulated time — the deterministic
    /// throughput proxy (the simulator's clock, not the host's).
    fn ops_per_ktick(&self) -> f64 {
        self.t.ops_completed as f64 * 1_000.0 / self.end_time.max(1) as f64
    }
    fn to_json(&self) -> Json {
        Json::object()
            .field("batch", self.batch)
            .field("committed", self.t.committed)
            .field("aborted_conflict", self.t.aborted_conflict)
            .field("aborted_unavailable", self.t.aborted_unavailable)
            .field("ops", self.t.ops_completed)
            .field("msgs_sent", self.t.msgs_sent)
            .field("payload_msgs", self.t.payload_msgs)
            .field("batches_flushed", self.t.batches_flushed)
            .field("sim_ticks", self.end_time)
            .field("msgs_per_op", Json::Fixed(self.t.messages_per_op(), 3))
            .field("ops_per_ktick", Json::Fixed(self.ops_per_ktick(), 3))
    }
}

fn run_cell(shape: &Shape, batch: u32, protocol: &Protocol) -> Cell {
    let seed = BASE_SEED ^ shape.sites as u64;
    let report = RunBuilder::<Queue>::new(shape.sites)
        .protocol(ProtocolConfig::new(protocol.clone()).txn_retries(3))
        .tuning(TuningConfig::default().shards(shape.shards).batch(batch))
        .seed(seed)
        .workload(workload(shape, seed))
        .run()
        .expect("scale sweep cell");
    Cell {
        batch,
        t: report.telemetry().clone(),
        end_time: report.sim_stats().end_time,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bounds = experiment_bounds();
    let threads = threads_from_args();
    let protocol = Protocol::new(
        Mode::Hybrid,
        minimal_static_relation::<Queue>(bounds).relation,
    );

    // Flatten the sweep into independent (shape, batch) cells and run
    // them over the worker pool; results come back in item order, so the
    // record below is a pure function of the sweep definition.
    let cells: Vec<(usize, u32)> = SHAPES
        .iter()
        .enumerate()
        .flat_map(|(i, _)| BATCHES.iter().map(move |&b| (i, b)))
        .collect();
    let t0 = std::time::Instant::now();
    let results = parallel::map_indexed(threads, &cells, |_, &(i, b)| {
        run_cell(&SHAPES[i], b, &protocol)
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut shapes = Json::object();

    section("Scale sweep: msgs/op and throughput vs batch size");
    println!("  ({} cells, {wall_ms:.1} ms wall)", cells.len());
    for (i, shape) in SHAPES.iter().enumerate() {
        let rows: Vec<&Cell> = results
            .iter()
            .zip(&cells)
            .filter(|(_, &(j, _))| j == i)
            .map(|(c, _)| c)
            .collect();
        println!(
            "\n  {}: {} sites, {} shards, {} objects, {} clients, {} ops",
            shape.name,
            shape.sites,
            shape.shards,
            shape.objects(),
            shape.clients,
            shape.total_ops()
        );
        println!(
            "  {:>5} | {:>9} | {:>8} | {:>9} | {:>9} | {:>8} | {:>9}",
            "batch", "committed", "msgs", "payload", "sim ticks", "msgs/op", "ops/ktick"
        );
        for c in &rows {
            println!(
                "  {:>5} | {:>9} | {:>8} | {:>9} | {:>9} | {:>8.2} | {:>9.2}",
                c.batch,
                c.t.committed,
                c.t.msgs_sent,
                c.t.payload_msgs,
                c.end_time,
                c.t.messages_per_op(),
                c.ops_per_ktick()
            );
        }

        // Gate 1 — decision identity: every batched cell agrees with the
        // batch-1 cell of the same shape, and the disjoint workload's
        // premise holds (no conflict aborts anywhere).
        let base = rows[0];
        assert_eq!(base.batch, 1, "sweep rows start at batch 1");
        for c in &rows {
            assert_eq!(
                c.t.verdicts(),
                base.t.verdicts(),
                "{} batch {}: decision drift vs unbatched",
                shape.name,
                c.batch
            );
            assert_eq!(
                c.t.aborted_conflict, 0,
                "{} batch {}: conflicts in a disjoint workload",
                shape.name, c.batch
            );
        }
        // Gate 2 — msgs/op falls monotonically with batch size, strictly
        // end to end.
        for pair in rows.windows(2) {
            assert!(
                pair[1].t.messages_per_op() <= pair[0].t.messages_per_op(),
                "{}: msgs/op rose from batch {} to {}",
                shape.name,
                pair[0].batch,
                pair[1].batch
            );
        }
        let last = rows[rows.len() - 1];
        assert!(
            last.t.messages_per_op() < base.t.messages_per_op(),
            "{}: batching saved no messages",
            shape.name
        );

        shapes = shapes.field(
            shape.name,
            Json::object()
                .field("sites", shape.sites)
                .field("shards", shape.shards)
                .field("objects", shape.objects())
                .field("clients", shape.clients)
                .field("total_ops", shape.total_ops())
                .field("cells", Json::array(rows.iter().map(|c| c.to_json()))),
        );
    }

    // Gate 3 — the pipelined engine at the largest shape is at least 2×
    // the unbatched engine's throughput (simulated clock).
    let large: Vec<&Cell> = results
        .iter()
        .zip(&cells)
        .filter(|(_, &(j, _))| j == SHAPES.len() - 1)
        .map(|(c, _)| c)
        .collect();
    let speedup = large[large.len() - 1].ops_per_ktick() / large[0].ops_per_ktick();
    section("Largest shape: pipelined vs sequential throughput");
    println!(
        "  batch {} -> {}: {:.2} -> {:.2} ops/ktick ({speedup:.2}x)",
        large[0].batch,
        large[large.len() - 1].batch,
        large[0].ops_per_ktick(),
        large[large.len() - 1].ops_per_ktick()
    );
    assert!(
        speedup >= 2.0,
        "pipelining must at least double throughput at the largest shape (got {speedup:.2}x)"
    );
    let doc = Json::object()
        .field("id", "exp_scale")
        .field("base_seed", BASE_SEED)
        .field("batches", Json::array(BATCHES.iter().copied()))
        .field("shapes", shapes)
        .field("large_shape_speedup", Json::Fixed(speedup, 3));
    write_artifact("exp_scale", &doc)?;
    Ok(())
}
