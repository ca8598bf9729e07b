//! Parallel determinism: every result produced by the work-stealing
//! pipeline — corpus enumeration, clause extraction, hitting-set search —
//! must be bitwise-identical at every thread count, and identical to the
//! retained unmemoized reference extractor.
//!
//! These tests are the contract that makes `--threads` safe to vary in
//! the experiment binaries: timings move, outputs do not.

use quorumcc_adts::{FlagSet, Prom, Queue};
use quorumcc_core::enumerate::{histories, CorpusConfig, Property};
use quorumcc_core::verifier::ClauseSet;
use quorumcc_model::spec::ExploreBounds;
use quorumcc_model::{Classified, Enumerable};

fn bounds() -> ExploreBounds {
    ExploreBounds {
        depth: 4,
        max_states: 4_096,
        budget: 5_000_000,
    }
}

fn cfg(seed: u64, threads: usize) -> CorpusConfig {
    CorpusConfig {
        exhaustive_ops: 2,
        max_actions: 3,
        samples: 1_500,
        sample_ops: 4,
        seed,
        bounds: bounds(),
        threads,
    }
}

/// Thread counts exercised against the sequential baseline (0 = all
/// available parallelism, so the suite covers whatever the host has).
const THREADS: [usize; 3] = [2, 4, 0];

fn corpus_is_thread_invariant<S: Enumerable + Classified>(prop: Property, seed: u64) {
    let seq = histories::<S>(prop, &cfg(seed, 1));
    assert!(!seq.is_empty(), "{}: empty corpus", S::NAME);
    for threads in THREADS {
        let par = histories::<S>(prop, &cfg(seed, threads));
        assert_eq!(
            seq,
            par,
            "{}: {prop:?} corpus differs at {threads} threads",
            S::NAME
        );
    }
}

fn extraction_is_thread_invariant<S: Enumerable + Classified>(prop: Property, seed: u64) {
    let reference = ClauseSet::extract_reference::<S>(prop, &cfg(seed, 1), &[]);
    let seq = ClauseSet::extract::<S>(prop, &cfg(seed, 1), &[]);
    assert_eq!(
        reference,
        seq,
        "{}: memoized sequential extraction diverged from the reference path",
        S::NAME
    );
    let seq_minimal = seq.minimal_relations(8);
    for threads in THREADS {
        let par = ClauseSet::extract::<S>(prop, &cfg(seed, threads), &[]);
        assert_eq!(
            seq,
            par,
            "{}: {prop:?} clause set differs at {threads} threads",
            S::NAME
        );
        assert_eq!(
            seq_minimal,
            par.minimal_relations_par(8, threads),
            "{}: {prop:?} minimal relations differ at {threads} threads",
            S::NAME
        );
    }
}

#[test]
fn queue_corpus_deterministic() {
    corpus_is_thread_invariant::<Queue>(Property::Hybrid, 41);
}

#[test]
fn prom_corpus_deterministic() {
    corpus_is_thread_invariant::<Prom>(Property::Static, 42);
}

#[test]
fn flagset_corpus_deterministic() {
    corpus_is_thread_invariant::<FlagSet>(Property::Hybrid, 43);
}

#[test]
fn queue_extraction_deterministic() {
    extraction_is_thread_invariant::<Queue>(Property::Hybrid, 44);
}

#[test]
fn prom_extraction_deterministic() {
    extraction_is_thread_invariant::<Prom>(Property::Hybrid, 45);
}

#[test]
fn flagset_extraction_deterministic() {
    extraction_is_thread_invariant::<FlagSet>(Property::Hybrid, 46);
}

/// Seeded witness histories ride along identically at every thread count
/// and through the reference path (the FlagSet's published
/// dual-minimality result depends on this; `fig_1_2` and `table_flagset`
/// extract with this seed and no longer run the oracle themselves).
#[test]
fn seeded_extraction_deterministic() {
    let witness = quorumcc_core::certificates::flagset_dual_witness();
    let seq = ClauseSet::extract::<FlagSet>(
        Property::Hybrid,
        &cfg(17, 1),
        std::slice::from_ref(&witness),
    );
    let reference = ClauseSet::extract_reference::<FlagSet>(
        Property::Hybrid,
        &cfg(17, 1),
        std::slice::from_ref(&witness),
    );
    assert_eq!(
        reference, seq,
        "seeded extraction diverged from the reference path"
    );
    for threads in THREADS {
        let par = ClauseSet::extract::<FlagSet>(
            Property::Hybrid,
            &cfg(17, threads),
            std::slice::from_ref(&witness),
        );
        assert_eq!(seq, par, "seeded clause set differs at {threads} threads");
    }
}
