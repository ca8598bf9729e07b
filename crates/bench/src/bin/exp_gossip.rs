//! **Experiment G1** — the gossip wall, measured: shipped statuses per
//! action and resident statuses per site as the action count doubles,
//! under full planting, scoped planting, and scoped planting + status GC
//! (DESIGN §3.16).
//!
//! The wall has two faces, and `statuses_shipped` counts both sides of
//! the wire. Repo→client: every `Resolve` plants a tombstone in every
//! object log, full-transfer `ReadLog` replies haul the whole table, and
//! the table only grows (DESIGN §3.14, the reason `exp_load` splits its
//! fleet into cells). Client→repo: a client folds its entire `known`
//! resolution map into **every `WriteLog` view** — the map is the
//! crash-safety net that re-plants outcomes a lost `Resolve` never
//! delivered, and without a durability frontier nothing may ever leave
//! it. Delta shipping amortizes the wire side of both faces: reads ship
//! the suffix past the reader's frontier (PR 4), and since PR 15 a write
//! ships only what the view holds beyond the writer's mirror of the site
//! — so under `full` planting, where every site holds every status, a
//! status crosses each link about once and the per-action bill is flat.
//! What deltas cannot do is *forget*. Under `scoped` planting a site
//! refuses statuses of actions that never touched the log, so no mirror
//! ever shows them held and every write offers the client's whole `known`
//! map again: action *k* re-ships *k−1* old statuses, and the per-action
//! bill grows linearly in client lifetime. And under `full` planting the
//! bill is flat only because every log keeps every status: the resident
//! table is what grows linearly.
//!
//! Status GC is what breaks both: the full-final-quorum ack frontier
//! lets the client prune `known` down to its unacked window (bounded by
//! ack round-trips, not lifetime) and lets repositories drop acked
//! tombstones from every log — so views, tables, and full transfers all
//! cost O(1) in the run length. Scoping alone does *not* flatten the
//! bill (the `scoped` arm stays linear): it confines where statuses are
//! planted, but only the frontier licenses forgetting them.
//!
//! The sweep doubles transactions-per-client four times and runs each
//! scale under three gossip arms: `full` (ship everything, keep
//! everything), `scoped` (ship only relevant statuses, keep
//! everything), `scoped_gc` (ship scoped, GC acked resolutions). All
//! arms run in the DES, so every number here is deterministic and
//! `BENCH_exp_gossip.json` is byte-identical at every `--threads`
//! count.
//!
//! The workload is Enq-only over a small shared object space. `Enq`s
//! commute, so conflicts are impossible for any message timing and
//! commit/abort decisions are a pure function of the workload — the
//! cross-arm identity gate is *structural*, the same trick `exp_scale`
//! (disjoint ranges) and `exp_load` (Enq-only) use. A conflicting
//! workload could not gate this way: GC's `ResolveAck` frames shift
//! every subsequent network-delay draw, and under contention timing
//! picks winners — that regime is instead audited by the safety oracle
//! in the chaos sweep, where the claim that matters is serializability,
//! not decision equality. Commutativity costs the wall nothing: every
//! `Resolve` still plants its tombstone in every object's log, and every
//! read of a reused object still hauls whatever statuses that log
//! carries.
//!
//! Gates this binary enforces:
//!
//! * **decision identity** — at every scale and mode, all three arms
//!   decide exactly the same (committed, conflict, unavailable) triple:
//!   scoping and GC change what travels, never what commits;
//! * **the wall** — where nothing licenses forgetting it still stands:
//!   the `scoped` arm's statuses shipped per action at the largest scale
//!   are ≥ 3× the smallest scale's and grow ≥ 2.5× over the final two
//!   doublings, and the `full` arm's peak resident table grows ≥ 8× over
//!   the 16× sweep;
//! * **the write half** — under `full` planting the per-action bill grows
//!   ≤ 1.15× over the final two doublings: a write ships what the site
//!   lacks, not everything the client knows (it grew over 3× there when
//!   writes carried whole views);
//! * **the fix** — under scoped+GC the per-action bill converges: over
//!   the final two doublings (a 4× action sweep) it grows ≤ 1.15×, in
//!   every mode. The tail is the honest window: the GC'd table takes a
//!   few doublings of warm-up to fill to its (bounded) asymptote, and
//!   measuring from a half-empty table would flatter *any* arm;
//! * **bounded tables** — with GC on, the peak resident status count at
//!   the largest scale stays below half of full planting's, and the GC
//!   actually collected something (`statuses_gcd > 0`). (Static-timestamp
//!   mode never folds committed prefixes, and `gc_below` keeps a
//!   committed status as long as a live entry references it, so there GC
//!   bounds the aborted statuses and the resolution table while committed
//!   tombstones stay pinned to their entries — half, not flat.)
//!
//! `--quick` runs the hybrid mode only; the default sweeps all three
//! concurrency-control modes.

use quorumcc_adts::queue::QueueInv;
use quorumcc_adts::Queue;
use quorumcc_bench::{experiment_bounds, section, threads_from_args, write_artifact};
use quorumcc_core::{minimal_static_relation, parallel};

use quorumcc_replication::cluster::{ProtocolConfig, RunBuilder, TuningConfig};
use quorumcc_replication::protocol::{Mode, Protocol};
use quorumcc_replication::{ObjId, RunTelemetry, Transaction};
use quorumcc_sim::Json;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

const BASE_SEED: u64 = 9_191;
/// Transactions per client at each scale: four doublings.
const SCALES: &[usize] = &[8, 16, 32, 64, 128];
const CLIENTS: usize = 3;
const OPS_PER_TXN: usize = 2;
/// Few shared objects: logs are read over and over, so whatever statuses
/// they carry actually travels.
const OBJECTS: u16 = 4;
const SITES: u32 = 3;
/// GC sweep hysteresis for the `scoped_gc` arm (small, so even the
/// smallest scale collects).
const GC_BATCH: u64 = 4;

/// One gossip configuration under test.
#[derive(Clone, Copy, PartialEq)]
enum Arm {
    Full,
    Scoped,
    ScopedGc,
}

const ARMS: &[Arm] = &[Arm::Full, Arm::Scoped, Arm::ScopedGc];

impl Arm {
    fn name(self) -> &'static str {
        match self {
            Arm::Full => "full",
            Arm::Scoped => "scoped",
            Arm::ScopedGc => "scoped_gc",
        }
    }
    /// Every arm compacts committed prefixes (PR 4's checkpoint
    /// machinery): compaction is what removes *entries*, which is the
    /// precondition for GC removing their committed statuses — scoped+GC
    /// folds into it rather than replacing it.
    fn tune(self, t: TuningConfig) -> TuningConfig {
        let t = t.compact_logs();
        match self {
            Arm::Full => t,
            Arm::Scoped => t.scoped_statuses(),
            Arm::ScopedGc => t.scoped_statuses().status_gc(GC_BATCH),
        }
    }
}

/// Seeded Enq-only workload over the shared object space (conflicts
/// impossible by construction — see the module docs). The same
/// (mode, scale) workload is replayed under every arm, so the decision
/// gate compares like with like.
fn workload(txns: usize, seed: u64) -> Vec<Vec<Transaction<QueueInv>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..CLIENTS)
        .map(|_| {
            (0..txns)
                .map(|_| Transaction {
                    ops: (0..OPS_PER_TXN)
                        .map(|_| {
                            let obj = ObjId(rng.gen_range(0..OBJECTS));
                            (obj, QueueInv::Enq(rng.gen_range(0..100)))
                        })
                        .collect(),
                })
                .collect()
        })
        .collect()
}

/// The deterministic record for one (mode, scale, arm) cell.
#[derive(Clone)]
struct Cell {
    arm: &'static str,
    txns_per_client: usize,
    t: RunTelemetry,
}

impl Cell {
    /// Statuses shipped per decided transaction — the gossip bill a
    /// single action pays; linear growth here is the wall.
    fn shipped_per_action(&self) -> f64 {
        self.t.statuses_shipped as f64 / self.t.decided().max(1) as f64
    }
    fn to_json(&self) -> Json {
        Json::object()
            .field("arm", self.arm)
            .field("txns_per_client", self.txns_per_client)
            .field("committed", self.t.committed)
            .field("aborted_conflict", self.t.aborted_conflict)
            .field("aborted_unavailable", self.t.aborted_unavailable)
            .field("statuses_shipped", self.t.statuses_shipped)
            .field("statuses_gcd", self.t.statuses_gcd)
            .field("status_table_peak", self.t.status_table_peak)
            .field("msgs_sent", self.t.msgs_sent)
            .field(
                "shipped_per_action",
                Json::Fixed(self.shipped_per_action(), 2),
            )
    }
}

fn run_cell(mode: Mode, txns: usize, arm: Arm, protocol: &Protocol) -> Cell {
    let seed = BASE_SEED ^ (txns as u64) << 8 ^ mode as u64;
    let report = RunBuilder::<Queue>::new(SITES)
        .protocol(ProtocolConfig::new(protocol.clone()).txn_retries(2))
        .tuning(arm.tune(TuningConfig::default()))
        .seed(seed)
        .workload(workload(txns, seed))
        .run()
        .expect("gossip sweep cell");
    Cell {
        arm: arm.name(),
        txns_per_client: txns,
        t: report.telemetry().clone(),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let bounds = experiment_bounds();
    let threads = threads_from_args();
    let modes: &[Mode] = if quick {
        &[Mode::Hybrid]
    } else {
        &[Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl]
    };
    let relation = minimal_static_relation::<Queue>(bounds).relation;

    let cells: Vec<(Mode, usize, Arm)> = modes
        .iter()
        .flat_map(|&m| {
            SCALES
                .iter()
                .flat_map(move |&t| ARMS.iter().map(move |&a| (m, t, a)))
        })
        .collect();
    let t0 = std::time::Instant::now();
    let results = parallel::map_indexed(threads, &cells, |_, &(m, t, a)| {
        let protocol = Protocol::new(m, relation.clone());
        run_cell(m, t, a, &protocol)
    });
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    section("Gossip wall: shipped statuses per action vs action count");
    println!("  ({} cells, {wall_ms:.1} ms wall)", cells.len());

    let mut by_mode = Json::object();
    for &mode in modes {
        let rows: Vec<(&(Mode, usize, Arm), &Cell)> = cells
            .iter()
            .zip(&results)
            .filter(|((m, ..), _)| *m == mode)
            .collect();
        println!("\n  {}:", mode.name());
        println!(
            "  {:>5} | {:>9} | {:>14} | {:>12} | {:>10} | {:>8}",
            "txns", "arm", "shipped", "shipped/act", "peak", "gcd"
        );
        for &scale in SCALES {
            // Decision identity across arms at this scale.
            let at: Vec<&Cell> = rows
                .iter()
                .filter(|((_, t, _), _)| *t == scale)
                .map(|(_, c)| *c)
                .collect();
            let base = at[0];
            for c in &at {
                println!(
                    "  {:>5} | {:>9} | {:>14} | {:>12.2} | {:>10} | {:>8}",
                    scale,
                    c.arm,
                    c.t.statuses_shipped,
                    c.shipped_per_action(),
                    c.t.status_table_peak,
                    c.t.statuses_gcd
                );
                assert_eq!(
                    c.t.verdicts(),
                    base.t.verdicts(),
                    "{} txns={scale} arm={}: decision drift vs full shipping",
                    mode.name(),
                    c.arm
                );
                assert_eq!(
                    c.t.aborted_conflict,
                    0,
                    "{} txns={scale} arm={}: conflicts in a commuting workload",
                    mode.name(),
                    c.arm
                );
            }
        }

        let per = |arm: Arm, scale: usize| -> &Cell {
            rows.iter()
                .find(|((_, t, a), _)| *t == scale && *a == arm)
                .map(|(_, c)| *c)
                .unwrap()
        };
        let first = SCALES[0];
        let last = SCALES[SCALES.len() - 1];
        // Tail of the sweep: the final two doublings, past GC warm-up.
        let tail = SCALES[SCALES.len() - 3];
        let bill = |arm: Arm, scale: usize| per(arm, scale).shipped_per_action();
        // The wall: with nothing licensing it to forget, the scoped arm's
        // per-action bill grows linearly — and so does the table full
        // planting keeps.
        let wall_growth = bill(Arm::Scoped, last) / bill(Arm::Scoped, first);
        let wall_tail = bill(Arm::Scoped, last) / bill(Arm::Scoped, tail);
        let table_growth = per(Arm::Full, last).t.status_table_peak as f64
            / per(Arm::Full, first).t.status_table_peak as f64;
        // The write half: under full planting a status crosses a link once.
        let full_tail = bill(Arm::Full, last) / bill(Arm::Full, tail);
        // The fix: scoped+GC converges — flat over the tail.
        let gc_tail = bill(Arm::ScopedGc, last) / bill(Arm::ScopedGc, tail);
        println!(
            "  per-action growth over the {}x sweep: scoped x{:.1}, full table x{:.1}; \
             tail ({}->{} txns): scoped x{:.2}, full x{:.3}, scoped+gc x{:.3}",
            last / first,
            wall_growth,
            table_growth,
            tail,
            last,
            wall_tail,
            full_tail,
            gc_tail
        );
        assert!(
            wall_growth >= 3.0,
            "{}: scoped shipping grew only x{wall_growth:.2} — no wall to break?",
            mode.name()
        );
        assert!(
            wall_tail >= 2.5,
            "{}: scoped shipping tail grew only x{wall_tail:.2} — wall already bent?",
            mode.name()
        );
        assert!(
            table_growth >= 8.0,
            "{}: full planting's table grew only x{table_growth:.2}",
            mode.name()
        );
        assert!(
            full_tail <= 1.15,
            "{}: full planting's per-action shipping grew x{full_tail:.3} over the tail — \
             are writes carrying whole views again?",
            mode.name()
        );
        assert!(
            gc_tail <= 1.15,
            "{}: scoped+gc per-action shipping grew x{gc_tail:.3} over the tail — not flat",
            mode.name()
        );
        // Bounded tables: GC keeps the peak resident status count below
        // half of full shipping's at the largest scale, and collects.
        let gc_last = per(Arm::ScopedGc, last);
        let full_last = per(Arm::Full, last);
        assert!(
            gc_last.t.status_table_peak * 2 <= full_last.t.status_table_peak,
            "{}: GC peak {} not well below full peak {}",
            mode.name(),
            gc_last.t.status_table_peak,
            full_last.t.status_table_peak
        );
        assert!(
            gc_last.t.statuses_gcd > 0,
            "{}: GC enabled but collected nothing",
            mode.name()
        );

        by_mode = by_mode.field(
            mode.name(),
            Json::array(rows.iter().map(|(_, c)| c.to_json())),
        );
    }

    if !quick {
        let shape = Json::object()
            .field("sites", SITES)
            .field("clients", CLIENTS)
            .field("ops_per_txn", OPS_PER_TXN)
            .field("gc_batch", GC_BATCH);
        let doc = Json::object()
            .field("id", "exp_gossip")
            .field("base_seed", BASE_SEED)
            .field("shape", shape)
            .field("modes", by_mode);
        write_artifact("exp_gossip", &doc)?;
    } else {
        println!("\n(quick mode: gates checked, BENCH_exp_gossip.json untouched)");
    }
    Ok(())
}
