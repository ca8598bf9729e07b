//! **§4 FlagSet** — the object with *two distinct minimal hybrid
//! dependency relations*: `Shift(3)` can learn about `Shift(1)` either
//! directly or transitively through `Shift(2)`.

use quorumcc_adts::FlagSet;
use quorumcc_bench::{experiment_bounds, indent, section, threads_from_args, BenchRecorder};
use quorumcc_core::certificates::{
    flagset_base_relation, flagset_dual_certificate, flagset_dual_witness,
    flagset_hybrid_relation_direct, flagset_hybrid_relation_transitive,
};
use quorumcc_core::enumerate::{CorpusConfig, Property};
use quorumcc_core::verifier::ClauseSet;

fn main() {
    let bounds = experiment_bounds();
    let mut rec = BenchRecorder::new("table_flagset", threads_from_args(), bounds);

    section("Certificate: the dual-minimality witness history");
    print!("{}", flagset_dual_certificate());

    section("Clause extraction (hybrid, corpus seeded with the witness)");
    let cfg = CorpusConfig {
        exhaustive_ops: 2,
        max_actions: 3,
        samples: 6_000,
        sample_ops: 5,
        seed: 17,
        bounds,
        threads: rec.threads(),
    };
    let clauses = rec.phase("extract_ms", || {
        ClauseSet::extract::<FlagSet>(Property::Hybrid, &cfg, &[flagset_dual_witness()])
    });
    let st = clauses.stats();
    println!(
        "  corpus: {} histories, {} failing tests, {} clauses",
        st.histories, st.failing_tests, st.clauses
    );
    rec.metric("corpus_histories", st.histories as f64);
    rec.metric("failing_tests", st.failing_tests as f64);
    rec.metric("clauses", st.clauses as f64);

    section("The paper's two candidate relations");
    let direct = flagset_hybrid_relation_direct();
    let transitive = flagset_hybrid_relation_transitive();
    println!(
        "  base + Shift(3) ≥ Shift(1):  verifies = {}",
        clauses.verify(&direct).is_ok()
    );
    println!(
        "  base + Shift(2) ≥ Shift(1):  verifies = {}",
        clauses.verify(&transitive).is_ok()
    );
    println!(
        "  base alone:                  verifies = {}  (must fail)",
        clauses.verify(&flagset_base_relation()).is_ok()
    );

    section("The disjunctive clause behind the non-uniqueness");
    for clause in clauses.clauses() {
        let shift1_ok = clause
            .iter()
            .all(|(_, ev)| ev.op == "Shift(1)" && ev.res == "Ok");
        if shift1_ok && clause.len() >= 2 {
            let rendered: Vec<String> = clause
                .iter()
                .map(|(inv, ev)| format!("{inv} \u{2265} {ev}"))
                .collect();
            println!("  {{ {} }}", rendered.join("  OR  "));
        }
    }

    section("Minimal hybrid relations on this corpus");
    let threads = rec.threads();
    let minimal = rec.phase("minimal_relations_ms", || {
        clauses.minimal_relations_par(16, threads)
    });
    rec.metric("minimal_relations", minimal.len() as f64);
    println!("  found {} minimal relation(s)", minimal.len());
    for m in &minimal {
        // Which paper variant is this closest to?
        let (variant, paper_rel) = if m.contains(
            "Shift(3)",
            quorumcc_model::EventClass::new("Shift(1)", "Ok"),
        ) {
            ("direct  (Shift(3) ≥ Shift(1))", &direct)
        } else {
            ("transitive (Shift(2) ≥ Shift(1))", &transitive)
        };
        println!("\n  minimal relation ({} pairs) — {variant}:", m.len());
        println!("{}", indent(m));
        let missing = paper_rel.difference(m);
        let extra = m.difference(paper_rel);
        if !missing.is_empty() {
            println!("    paper pairs found redundant at these bounds:");
            println!("{}", indent(&missing).replace("    ", "      "));
        }
        if !extra.is_empty() {
            println!("    pairs beyond the paper's list:");
            println!("{}", indent(&extra).replace("    ", "      "));
        }
    }
    println!(
        "\n  non-uniqueness certified: {} minimal relations, differing exactly in\n\
         \x20 how Shift(3) learns about Shift(1) — directly, or transitively\n\
         \x20 through Shift(2) — the paper's §4 conclusion.",
        minimal.len(),
    );
    assert!(
        minimal.len() >= 2,
        "FlagSet must exhibit multiple minimal hybrid relations"
    );
    // The defining disagreement between the two minimal relations.
    if minimal.len() == 2 {
        let diff_ab = minimal[0].difference(&minimal[1]);
        let diff_ba = minimal[1].difference(&minimal[0]);
        assert_eq!(diff_ab.len(), 1);
        assert_eq!(diff_ba.len(), 1);
    }
    rec.finish();
}
