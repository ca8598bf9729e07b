//! **Figure 1-2** — the availability lattice: the constraints on quorum
//! assignment under each property, across the whole data-type battery.
//!
//! For every type we compute the minimal static relation `≥S` (Theorem 6)
//! and minimal dynamic relation `≥D` (Theorem 10), extract the hybrid
//! Definition-2 clauses on a bounded corpus, and certify:
//!
//! * **Theorem 4 edge**: `≥S` verifies as a hybrid dependency relation.
//! * **hybrid ≤ static**: some minimal hybrid relation is ⊆ `≥S` (strictly
//!   smaller for the PROM).
//! * **static ⋈ dynamic / hybrid ⋈ dynamic**: containment verdicts per
//!   type.

use quorumcc_adts::*;
use quorumcc_bench::{experiment_bounds, section, threads_from_args, BenchRecorder};
use quorumcc_core::battery::report;
use quorumcc_core::enumerate::{CorpusConfig, Property};
use quorumcc_core::verifier::ClauseSet;
use quorumcc_model::{Classified, Enumerable};

fn corpus_cfg(threads: usize) -> CorpusConfig {
    CorpusConfig {
        exhaustive_ops: 2,
        max_actions: 3,
        samples: 4_000,
        sample_ops: 4,
        seed: 12,
        bounds: experiment_bounds(),
        threads,
    }
}

/// Corpus/clause/timing totals accumulated across the per-type rows.
#[derive(Default)]
struct Totals {
    histories: usize,
    clauses: usize,
    extract_ms: f64,
}

fn row<S: Enumerable + Classified>(threads: usize, totals: &mut Totals) {
    row_seeded::<S>(&[], threads, totals);
}

fn row_seeded<S: Enumerable + Classified>(
    seeds: &[quorumcc_model::BHistory<S::Inv, S::Res>],
    threads: usize,
    totals: &mut Totals,
) {
    let bounds = experiment_bounds();
    let r = report::<S>(bounds);
    let cfg = corpus_cfg(threads);
    let t0 = std::time::Instant::now();
    let hybrid_clauses = ClauseSet::extract::<S>(Property::Hybrid, &cfg, seeds);
    totals.extract_ms += t0.elapsed().as_secs_f64() * 1e3;
    totals.histories += hybrid_clauses.stats().histories;
    totals.clauses += hybrid_clauses.stats().clauses;
    let thm4 = hybrid_clauses.verify(&r.static_rel).is_ok();
    let minimal_hybrids = hybrid_clauses.minimal_relations_par(8, threads);
    let hybrid_min_size = minimal_hybrids.iter().map(|m| m.len()).min().unwrap_or(0);
    let hybrid_below_static = minimal_hybrids.iter().any(|m| m.is_subset(&r.static_rel));
    let strictly_below = minimal_hybrids
        .iter()
        .any(|m| m.is_subset(&r.static_rel) && *m != r.static_rel);
    println!(
        "{:>12} | {:>4} | {:>4} | {:>13} | {:>6} | {:>5} | {:>8} | {:>6}",
        S::NAME,
        r.static_rel.len(),
        r.dynamic_rel.len(),
        format!("{}", r.static_vs_dynamic()),
        if thm4 { "OK" } else { "FAIL" },
        hybrid_min_size,
        minimal_hybrids.len(),
        if strictly_below {
            "strict"
        } else if hybrid_below_static {
            "≤"
        } else {
            "?"
        },
    );
    assert!(thm4, "{}: Theorem 4 edge failed", S::NAME);
}

fn main() {
    let mut rec = BenchRecorder::new("fig_1_2", threads_from_args(), experiment_bounds());
    let threads = rec.threads();
    let cfg = corpus_cfg(threads);
    println!("Figure 1-2: constraints on quorum assignment (availability lattice)");
    println!(
        "bounds: state depth {}, hybrid corpus exhaustive ≤{} ops + {} samples ≤{} ops, {} thread(s)",
        experiment_bounds().depth,
        cfg.exhaustive_ops,
        cfg.samples,
        cfg.sample_ops,
        threads,
    );

    section("Per-type comparison");
    println!(
        "{:>12} | {:>4} | {:>4} | {:>13} | {:>6} | {:>5} | {:>8} | {:>6}",
        "type", "|≥S|", "|≥D|", "static vs dyn", "Thm4", "|≥H|", "#minimal", "H vs S"
    );
    let mut totals = Totals::default();
    row::<Register>(threads, &mut totals);
    row::<Counter>(threads, &mut totals);
    row::<Queue>(threads, &mut totals);
    row::<Prom>(threads, &mut totals);
    row::<DoubleBuffer>(threads, &mut totals);
    row::<GSet>(threads, &mut totals);
    row::<Account>(threads, &mut totals);
    row::<AppendLog>(threads, &mut totals);
    row::<Directory>(threads, &mut totals);
    row_seeded::<FlagSet>(
        &[quorumcc_core::certificates::flagset_dual_witness()],
        threads,
        &mut totals,
    );
    rec.record_phase("extract_ms", totals.extract_ms);
    rec.metric("corpus_histories", totals.histories as f64);
    rec.metric("clauses", totals.clauses as f64);
    println!(
        "\nextraction across all rows: {:.1} ms at {threads} thread(s)",
        totals.extract_ms,
    );

    section("Legend");
    println!("|≥S|, |≥D|  — pair counts of the unique minimal static/dynamic relations");
    println!("Thm4        — ≥S verifies as a hybrid dependency relation (bounded)");
    println!("|≥H|        — size of the smallest minimal hybrid relation found");
    println!("#minimal    — number of minimal hybrid relations found (non-unique ⇒ >1)");
    println!("H vs S      — 'strict' when a minimal hybrid relation is strictly ⊆ ≥S,");
    println!("              i.e. hybrid atomicity permits quorum assignments static forbids");
    println!("\nFigure 1-2 edges: hybrid constraints ≤ static constraints (Thm 4 column),");
    println!("static ⋈ dynamic (Queue row), hybrid ⋈ dynamic (DoubleBuffer: Thm 12).");
    rec.finish();
}
