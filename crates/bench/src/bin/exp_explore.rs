//! **Experiment X1** — `exp_explore`: the interleaving model checker.
//!
//! For each data type in {Queue, Prom, FlagSet} and each
//! concurrency-control mode, the explorer exhausts every message-delivery
//! interleaving of a small sound cluster shape (2 sites, 3 clients, 3
//! objects, one op each) to a fixed depth, twice: once with sleep-set
//! partial-order reduction and once without. The recorded quantities per
//! cell are states, transitions, complete schedules, deepest schedule,
//! and the **POR reduction factor** (states without POR / states with) —
//! the claim under test is that reduction exceeds 2x on every cell while
//! the safety oracle stays clean on every explored branch.
//!
//! A second section calibrates the detector the way `exp_chaos` does:
//! with each planted bug switched on (`weaken` needs three sites and
//! narrow fan-out to break quorum intersection; `skipack` loses a write
//! at two sites) the explorer must produce a minimal-depth replayable
//! witness, whose one-line spec is recorded.
//!
//! `--quick` drops the sweep depth by one and sweeps Queue only (the
//! other types' counts track it closely — the explored structure is
//! dominated by message flow, not by the type's semantics); `--threads
//! N` sizes the worker pool. `BENCH_exp_explore.json`
//! carries counts, reduction factors, and witness specs only — never
//! wall-clock or pool sizes — so it is **byte-identical at every
//! `--threads` count**.

use quorumcc_adts::{FlagSet, Prom, Queue};
use quorumcc_bench::{experiment_bounds, section, threads_from_args, write_artifact};
use quorumcc_core::parallel::map_indexed;
use quorumcc_model::{Classified, Enumerable};
use quorumcc_replication::explore::{self, ExploreSetup, ExploreSpec, Knob};
use quorumcc_replication::protocol::{Mode, Protocol};
use quorumcc_sim::explore::{ExploreConfig, ExploreStats};
use quorumcc_sim::Json;

const SEED: u64 = 2_026;
const ADTS: [&str; 3] = ["queue", "prom", "flagset"];
const MODES: [&str; 3] = ["hybrid", "static", "dynamic"];

fn protocol_for<S: Enumerable + Classified>(mode: &str) -> Protocol {
    let mode: Mode = mode.parse().expect("MODES names modes");
    Protocol::minimal::<S>(mode, experiment_bounds())
}

/// The sound sweep shape: enough client/object parallelism that
/// commuting repository traffic dominates — the regime partial-order
/// reduction is built for.
fn sweep_setup() -> ExploreSetup {
    ExploreSetup {
        sites: 2,
        clients: 3,
        objects: 3,
        seed: SEED,
        ..ExploreSetup::default()
    }
}

fn sweep_cfg(depth: usize, por: bool) -> ExploreConfig {
    ExploreConfig {
        max_depth: depth,
        max_states: 2_000_000,
        max_transitions: 8_000_000,
        por,
        ..ExploreConfig::default()
    }
}

fn run_cell<S: Enumerable + Classified + Clone + std::fmt::Debug>(
    mode: &str,
    depth: usize,
    por: bool,
) -> ExploreStats {
    let out = explore::explore_setup::<S>(
        &protocol_for::<S>(mode),
        &sweep_setup(),
        sweep_cfg(depth, por),
    )
    .expect("the sweep shape is valid");
    assert!(
        out.witness.is_none(),
        "sound {mode} cell flagged a violation: {:?}",
        out.witness
    );
    out.stats
}

fn run_job(adt: usize, mode: &str, depth: usize, por: bool) -> ExploreStats {
    match adt {
        0 => run_cell::<Queue>(mode, depth, por),
        1 => run_cell::<Prom>(mode, depth, por),
        _ => run_cell::<FlagSet>(mode, depth, por),
    }
}

/// Runs one planted-bug calibration: explore until the witness, then
/// return its replayable spec and depth.
fn witness_spec(knob: Knob) -> (ExploreSpec, usize) {
    // Seed 0 samples a conflicting enqueue/dequeue pair on one object;
    // a non-conflicting workload would leave both bugs unobservable no
    // matter how exhaustively it is explored.
    let setup = match knob {
        // Quorum arithmetic: weaken is unobservable at two sites, so its
        // minimal shape is three (narrow fan-out keeps it tractable).
        Knob::WeakenReadQuorum => ExploreSetup {
            sites: 3,
            clients: 2,
            narrow: true,
            knob,
            seed: 0,
            ..ExploreSetup::default()
        },
        _ => ExploreSetup {
            sites: 2,
            clients: 2,
            knob,
            seed: 0,
            ..ExploreSetup::default()
        },
    };
    let depth = 40;
    let out = explore::explore_setup::<Queue>(
        &protocol_for::<Queue>("hybrid"),
        &setup,
        sweep_cfg(depth, true),
    )
    .expect("the calibration shape is valid");
    let w = out
        .witness
        .unwrap_or_else(|| panic!("planted bug {knob:?} must be found; stats: {:?}", out.stats));
    assert_eq!(
        out.stats.max_depth_reached,
        w.schedule.len(),
        "iterative deepening must make the first witness minimal"
    );
    let d = w.schedule.len();
    (
        ExploreSpec {
            mode: "hybrid".to_string(),
            setup,
            depth,
            por: true,
            sched: w.schedule,
        },
        d,
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = threads_from_args();
    let depth = if quick { 15 } else { 16 };
    let adts: &[&str] = if quick { &ADTS[..1] } else { &ADTS };

    section("1. Sound sweep: POR on vs. off, every type x mode");
    // One job per (adt, mode, por); the pool sees all 18 at once so the
    // expensive POR-off halves overlap with everything else.
    let jobs: Vec<(usize, usize, bool)> = (0..adts.len())
        .flat_map(|a| (0..MODES.len()).flat_map(move |m| [(a, m, true), (a, m, false)]))
        .collect();
    let t0 = std::time::Instant::now();
    let stats = map_indexed(threads, &jobs, |_, &(a, m, por)| {
        run_job(a, MODES[m], depth, por)
    });
    let ms = t0.elapsed().as_secs_f64() * 1e3;

    println!(
        "\n  {:>8} | {:>8} | {:>9} | {:>9} | {:>9} | {:>9} | {:>5} | {:>9}",
        "type", "mode", "states+", "states-", "trans+", "trans-", "depth", "reduction"
    );
    let mut cells = Vec::new();
    let mut min_reduction = f64::INFINITY;
    for (i, &(a, m, _)) in jobs.iter().enumerate().filter(|(_, j)| j.2) {
        let on = stats[i];
        let off = stats[i + 1];
        let reduction = off.states as f64 / on.states as f64;
        min_reduction = min_reduction.min(reduction);
        println!(
            "  {:>8} | {:>8} | {:>9} | {:>9} | {:>9} | {:>9} | {:>5} | {:>8.2}x",
            adts[a],
            MODES[m],
            on.states,
            off.states,
            on.transitions,
            off.transitions,
            on.max_depth_reached,
            reduction
        );
        cells.push(
            Json::object()
                .field("adt", adts[a])
                .field("mode", MODES[m])
                .field("states_por", on.states)
                .field("transitions_por", on.transitions)
                .field("schedules_por", on.schedules)
                .field("states_full", off.states)
                .field("transitions_full", off.transitions)
                .field("schedules_full", off.schedules)
                .field("max_depth", on.max_depth_reached)
                .field("reduction", Json::Fixed(reduction, 3)),
        );
    }
    println!(
        "\n  all {} cells clean; min reduction {min_reduction:.2}x ({ms:.1} ms wall)",
        jobs.len() / 2
    );
    assert!(
        min_reduction > 2.0,
        "POR must cut the sound sweep by more than 2x (got {min_reduction:.3})"
    );

    section("2. Calibration: both planted bugs produce minimal witnesses");
    let mut witnesses = Json::object();
    for knob in [Knob::SkipFinalAck, Knob::WeakenReadQuorum] {
        let t0 = std::time::Instant::now();
        let (spec, d) = witness_spec(knob);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "  {:>8}: witness at depth {d} ({ms:.1} ms wall)",
            knob.name()
        );
        println!("           {spec}");
        let witness = Json::object()
            .field("depth", d)
            .field("spec", spec.to_string());
        witnesses = witnesses.field(knob.name(), witness);
    }

    let s = sweep_setup();
    let shape = Json::object()
        .field("sites", s.sites)
        .field("clients", s.clients)
        .field("objects", s.objects)
        .field("txns_per_client", s.txns_per_client)
        .field("ops_per_txn", s.ops_per_txn);
    let doc = Json::object()
        .field("id", "exp_explore")
        .field("seed", SEED)
        .field("depth", depth)
        .field("shape", shape)
        .field("cells", Json::Array(cells))
        .field("min_reduction", Json::Fixed(min_reduction, 3))
        .field("witnesses", witnesses);
    write_artifact("exp_explore", &doc)?;
    Ok(())
}
