//! **Experiment L1** — the real-concurrency load harness: the same
//! sans-I/O protocol drivers that power the simulator, hosted over
//! loopback TCP, serving a hundred thousand concurrent lightweight
//! clients per mode.
//!
//! The client fleet is partitioned across independent cells (each a
//! 3-repository cluster with its own listeners and worker pool); all
//! cells run concurrently and latency percentiles are merged across the
//! whole fleet. Cells originally existed to outrun the quadratic
//! status-tombstone gossip (DESIGN §3.14); with scoped status shipping
//! and status GC (DESIGN §3.16) per-cell work is linear in the cell's
//! action count, and this harness runs with both on — the cell split
//! remains as the unit of *hosting*: each cell's entire repository side
//! is one event-loop thread multiplexing nonblocking
//! sockets, so the fleet runs on one OS thread per cell group instead of
//! one per repository plus one per accepted connection.
//!
//! Unlike every other `BENCH_*.json`, this file records wall-clock
//! throughput and latency SLOs of a real-socket deployment, so it is
//! **not** byte-stable across runs and is excluded from the
//! determinism gates. The workload is Enq-only (`Enq`s commute, so
//! every transaction can commit and the numbers measure the transport
//! and quorum machinery, not conflict-retry storms — those live in
//! `exp_chaos` where the DES can replay them deterministically).
//!
//! `--quick` runs a bounded smoke shape (hundreds of clients, seconds of
//! wall clock) for CI; the default shape is the full 100k-client fleet.

use quorumcc_adts::Queue;
use quorumcc_bench::{experiment_bounds, section, write_artifact};
use quorumcc_core::minimal_static_relation;
use quorumcc_net::{run_load, LoadConfig, LoadReport};
use quorumcc_replication::protocol::Mode;
use quorumcc_sim::Json;
use std::time::Duration;

const BASE_SEED: u64 = 7_171;
const N_REPOS: u32 = 3;

struct Shape {
    clients: usize,
    clusters: usize,
    objects: u16,
    ramp: Duration,
    op_timeout_ticks: u64,
    deadline: Duration,
}

fn shape(quick: bool) -> Shape {
    if quick {
        Shape {
            clients: 600,
            clusters: 4,
            objects: 32,
            ramp: Duration::from_secs(1),
            op_timeout_ticks: 10_000_000,
            deadline: Duration::from_secs(60),
        }
    } else {
        Shape {
            clients: 100_000,
            clusters: 160,
            objects: 32,
            ramp: Duration::from_secs(30),
            op_timeout_ticks: 30_000_000,
            deadline: Duration::from_secs(600),
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let sh = shape(quick);
    let relation = minimal_static_relation::<Queue>(experiment_bounds()).relation;

    section(&format!(
        "exp_load: {} clients x 1 txn across {} cells ({})",
        sh.clients,
        sh.clusters,
        if quick { "quick" } else { "full" }
    ));

    let mut reports: Vec<LoadReport> = Vec::new();
    for (i, mode) in [Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl]
        .into_iter()
        .enumerate()
    {
        let report = run_load(&LoadConfig {
            mode,
            relation: relation.clone(),
            clusters: sh.clusters,
            n_repos: N_REPOS,
            clients: sh.clients,
            txns_per_client: 1,
            ops_per_txn: 1,
            objects: sh.objects,
            workers: 1,
            seed: BASE_SEED + i as u64,
            op_timeout_ticks: sh.op_timeout_ticks,
            narrow: true,
            deq_fraction: 0.0,
            ramp: sh.ramp,
            deadline: sh.deadline,
            scoped_statuses: true,
            status_gc: Some(64),
            ..LoadConfig::default()
        });
        println!(
            "  {:<12} committed {}/{} ({} unfinished)  {:>8.0} txn/s  p50 {:.1}ms  p99 {:.1}ms",
            report.mode,
            report.committed,
            sh.clients,
            report.unfinished,
            report.txns_per_sec,
            report.p50_us as f64 / 1000.0,
            report.p99_us as f64 / 1000.0,
        );
        // Gate: the harness must actually serve the fleet — every client
        // finishes inside the deadline and the overwhelming majority
        // commit (Enq-only leaves no conflicts; a stray unavailability
        // abort under overload is tolerated, mass aborts are not).
        assert_eq!(report.unfinished, 0, "{mode:?}: clients abandoned");
        assert!(
            report.committed * 10 >= sh.clients * 9,
            "{mode:?}: only {}/{} committed",
            report.committed,
            sh.clients
        );
        assert!(report.p50_us > 0 && report.p99_us >= report.p50_us);
        reports.push(report);
    }

    let shape = Json::object()
        .field("clients", sh.clients)
        .field("clusters", sh.clusters)
        .field("repos_per_cell", N_REPOS)
        .field("objects_per_cell", sh.objects);
    let doc = Json::object()
        .field("experiment", "exp_load")
        .field("shape", shape)
        .field(
            "modes",
            Json::array(reports.iter().map(LoadReport::to_json)),
        );
    write_artifact("exp_load", &doc)?;
    Ok(())
}
