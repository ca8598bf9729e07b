//! **Experiment F1** — the chaos sweep: deterministic fault fuzzing with
//! the online safety oracle.
//!
//! For each concurrency-control mode, `RUNS_PER_MODE` fault plans are
//! sampled from a fixed base seed — network profile (clean / lossy /
//! dup / reorder / stormy), crash and partition schedules, durability
//! (stable vs. volatile-with-WAL vs. amnesiac-with-peers), compaction,
//! anti-entropy cadence, and fan-out — and a replicated Queue cluster
//! runs the same seeded workload under each plan. Every run is audited
//! by the safety oracle (serializability, no-committed-write-lost,
//! version/epoch monotonicity, checkpoint nesting).
//!
//! The acceptance claims this binary checks and records:
//!
//! * **zero violations** across the whole sound sweep, in every mode;
//! * the oracle is not vacuous: with the test-only weakened-read-quorum
//!   bug injected, the sweep flags a violation and shrinks it to a
//!   minimal reproducing plan;
//! * `BENCH_exp_chaos.json` is **byte-identical at every `--threads`
//!   count** — the file carries counts and plan specs only, never
//!   wall-clock or pool sizes (those go to stdout).

use quorumcc_adts::Queue;
use quorumcc_bench::{experiment_bounds, section, threads_from_args, write_artifact};
use quorumcc_replication::chaos::{self, ChaosConfig, ChaosPlan, ProfileStats};
use quorumcc_replication::protocol::{Mode, Protocol};
use quorumcc_sim::Json;

const BASE_SEED: u64 = 2_026;
const RUNS_PER_MODE: u64 = 60;
/// Self-test scan bound: plans sampled from the unsound configuration
/// until one is flagged (the fixed seed flags well inside this bound).
const SELFTEST_SCAN: u64 = 100;
const SELFTEST_SEED: u64 = 77;

fn profile_row(p: &ProfileStats) -> String {
    format!(
        "  {:>8} | {:>4} | {:>9} | {:>6} | {:>7} | {:>6} | {:>6} | {:>6} | {:>5} | {:>9} | {:>10}",
        p.profile,
        p.runs,
        p.committed,
        p.aborted_conflict + p.aborted_unavailable,
        format!("{:.4}", p.abort_rate()),
        p.msgs_dropped,
        p.msgs_duplicated,
        p.msgs_reordered,
        p.recoveries,
        p.full_log_fallbacks,
        p.violations
    )
}

fn profile_record(p: &ProfileStats) -> Json {
    Json::object()
        .field("profile", p.profile.as_str())
        .field("runs", p.runs)
        .field("committed", p.committed)
        .field("aborted_conflict", p.aborted_conflict)
        .field("aborted_unavailable", p.aborted_unavailable)
        .field("abort_rate", Json::Fixed(p.abort_rate(), 4))
        .field("msgs_dropped", p.msgs_dropped)
        .field("msgs_duplicated", p.msgs_duplicated)
        .field("msgs_reordered", p.msgs_reordered)
        .field("recoveries", p.recoveries)
        .field("full_log_fallbacks", p.full_log_fallbacks)
        .field("violations", p.violations)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bounds = experiment_bounds();
    let threads = threads_from_args();
    let cfg = ChaosConfig::default();

    let modes = ["hybrid", "static", "dynamic"].map(|name| {
        let mode: Mode = name.parse().expect("a mode name");
        (name, Protocol::minimal::<Queue>(mode, bounds))
    });

    section("1. Sound sweep: every mode, every profile, oracle on every run");
    let mut total_violations = 0u64;
    let mut by_mode = Json::object();
    for (name, protocol) in &modes {
        let t0 = std::time::Instant::now();
        let outcomes = chaos::sweep::<Queue>(protocol, &cfg, BASE_SEED, RUNS_PER_MODE, threads);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        println!("\n  {name}: {RUNS_PER_MODE} plans from seed {BASE_SEED} ({ms:.1} ms wall)");
        println!(
            "  {:>8} | {:>4} | {:>9} | {:>6} | {:>7} | {:>6} | {:>6} | {:>6} | {:>5} | {:>9} | {:>10}",
            "profile",
            "runs",
            "committed",
            "aborts",
            "abort%",
            "drops",
            "dups",
            "reord",
            "recov",
            "fallbacks",
            "violations"
        );
        let stats = chaos::aggregate(&outcomes);
        for p in &stats {
            println!("{}", profile_row(p));
            total_violations += p.violations;
        }
        by_mode = by_mode.field(name, Json::array(stats.iter().map(profile_record)));
    }
    assert_eq!(
        total_violations, 0,
        "the sound sweep must pass the safety oracle in every mode"
    );
    println!("\n  safety oracle: OK on all {} runs", 3 * RUNS_PER_MODE);

    section("2. Oracle self-test: injected quorum weakening is caught and shrunk");
    // The test-only bug: every initial view is assembled from one site
    // too few (and one phantom reply pads the quorum check), silently
    // breaking ti + tf > n. Under narrow fan-out plans this is a real
    // unsoundness — the oracle must flag it, and the shrinker must
    // reduce the flagged plan to a minimal reproducer.
    let unsound = ChaosConfig {
        weaken_read_quorum: true,
        clients: 2,
        txns_per_client: 2,
        ops_per_txn: 1,
        ..ChaosConfig::default()
    };
    let protocol = &modes[0].1;
    let t0 = std::time::Instant::now();
    let mut flagged: Option<(u64, ChaosPlan, Vec<String>)> = None;
    for idx in 0..SELFTEST_SCAN {
        let plan = ChaosPlan::sample(SELFTEST_SEED, idx, &unsound);
        let outcome = chaos::run_outcome::<Queue>(protocol, &unsound, plan);
        if !outcome.violations.is_empty() {
            flagged = Some((idx, outcome.plan, outcome.violations));
            break;
        }
    }
    let (idx, plan, violations) =
        flagged.expect("the injected bug must be flagged within the scan bound");
    let minimal = chaos::shrink_failure::<Queue>(protocol, &unsound, plan.clone());
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("  flagged plan {idx}: {}", plan.encode());
    for v in &violations {
        println!("    - {v}");
    }
    println!(
        "  minimal reproducer: {} ({ms:.1} ms wall)",
        minimal.encode()
    );
    let (_, safety) = chaos::run_plan::<Queue>(protocol, &unsound, &minimal)?;
    assert!(
        !safety.is_ok(),
        "the shrunk plan must still violate safety on replay"
    );

    // Everything in the record is a pure function of (BASE_SEED,
    // RUNS_PER_MODE, cfg) — no thread counts, no timings — so the file is
    // byte-identical at every `--threads` count.
    let workload = Json::object()
        .field("sites", cfg.n_sites)
        .field("clients", cfg.clients)
        .field("txns_per_client", cfg.txns_per_client)
        .field("ops_per_txn", cfg.ops_per_txn);
    let selftest = Json::object()
        .field("seed", SELFTEST_SEED)
        .field("flagged_at", idx)
        .field("flagged_plan", plan.encode())
        .field("minimal_plan", minimal.encode())
        .field("violations", Json::array(violations));
    let doc = Json::object()
        .field("id", "exp_chaos")
        .field("base_seed", BASE_SEED)
        .field("runs_per_mode", RUNS_PER_MODE)
        .field("workload", workload)
        .field("modes", by_mode)
        .field("total_violations", total_violations)
        .field("selftest", selftest);
    write_artifact("exp_chaos", &doc)?;
    Ok(())
}
