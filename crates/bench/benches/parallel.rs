//! Thread-scaling benchmarks for the theorem-verification pipeline:
//! corpus enumeration, clause extraction, hitting-set search, and
//! Monte-Carlo availability at 1/2/4/8 workers.
//!
//! Outputs are bitwise-identical at every thread count, and extraction
//! equals the unmemoized `ClauseSet::extract_reference` oracle (see
//! `crates/core/tests/determinism.rs`, which is where that comparison
//! lives); these benches measure the only thing `--threads` changes —
//! wall-clock time.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use quorumcc_adts::FlagSet;
use quorumcc_core::enumerate::{histories, CorpusConfig, Property};
use quorumcc_core::verifier::ClauseSet;
use quorumcc_model::spec::ExploreBounds;
use quorumcc_quorum::montecarlo::{estimate_threaded, FaultModel};
use quorumcc_quorum::ThresholdAssignment;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn bounds() -> ExploreBounds {
    ExploreBounds {
        depth: 4,
        max_states: 4_096,
        budget: 5_000_000,
    }
}

fn cfg(threads: usize) -> CorpusConfig {
    CorpusConfig {
        exhaustive_ops: 2,
        max_actions: 3,
        samples: 1_000,
        sample_ops: 4,
        seed: 17,
        bounds: bounds(),
        threads,
    }
}

fn extraction(c: &mut Criterion) {
    let mut g = c.benchmark_group("extract/flagset");
    g.sample_size(10);
    for threads in THREAD_COUNTS {
        g.bench_function(format!("memoized_t{threads}"), |b| {
            b.iter(|| ClauseSet::extract::<FlagSet>(Property::Hybrid, &cfg(threads), &[]))
        });
    }
    g.finish();
}

fn corpus(c: &mut Criterion) {
    let mut g = c.benchmark_group("corpus/flagset");
    g.sample_size(10);
    for threads in THREAD_COUNTS {
        g.bench_function(format!("t{threads}"), |b| {
            b.iter(|| histories::<FlagSet>(Property::Hybrid, &cfg(threads)))
        });
    }
    g.finish();
}

fn hitting_sets(c: &mut Criterion) {
    let clauses = ClauseSet::extract::<FlagSet>(Property::Hybrid, &cfg(1), &[]);
    let mut g = c.benchmark_group("minimal_relations/flagset");
    g.sample_size(10);
    for threads in THREAD_COUNTS {
        g.bench_function(format!("t{threads}"), |b| {
            b.iter(|| black_box(&clauses).minimal_relations_par(16, threads))
        });
    }
    g.finish();
}

fn montecarlo(c: &mut Criterion) {
    let mut ta = ThresholdAssignment::new(5);
    ta.set_initial("Read", 2);
    ta.set_initial("Write", 4);
    let evs = [
        quorumcc_model::EventClass::new("Read", "Ok"),
        quorumcc_model::EventClass::new("Write", "Ok"),
    ];
    let model = FaultModel {
        site_up: 0.9,
        partition_prob: 0.3,
        same_block_prob: 0.5,
    };
    let mut g = c.benchmark_group("montecarlo/100k_trials");
    g.sample_size(10);
    for threads in THREAD_COUNTS {
        g.bench_function(format!("t{threads}"), |b| {
            b.iter(|| {
                estimate_threaded(&ta, &["Read", "Write"], &evs, model, 100_000, 7, threads)
                    .expect("valid model")
            })
        });
    }
    g.finish();
}

criterion_group!(benches, extraction, corpus, hitting_sets, montecarlo);
criterion_main!(benches);
