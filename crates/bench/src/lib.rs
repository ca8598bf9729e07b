//! Shared plumbing for the experiment binaries (`src/bin/*`) and Criterion
//! benches (`benches/*`).
//!
//! Each binary regenerates one table or figure of the paper; see
//! `EXPERIMENTS.md` at the workspace root for the index and the recorded
//! paper-vs-measured outcomes.

pub mod telemetry;

pub use telemetry::{threads_from_args, write_artifact, BenchRecorder};

use quorumcc_core::DependencyRelation;
use quorumcc_model::spec::ExploreBounds;

/// The exploration bounds every experiment uses (recorded in outputs).
pub fn experiment_bounds() -> ExploreBounds {
    ExploreBounds {
        depth: 4,
        max_states: 4_096,
        budget: 5_000_000,
    }
}

/// Renders a relation as an indented block.
pub fn indent(rel: &DependencyRelation) -> String {
    rel.table()
        .lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Prints a section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorumcc_model::EventClass;

    #[test]
    fn indent_prefixes_each_line() {
        let rel = DependencyRelation::from_pairs([
            ("A", EventClass::new("B", "Ok")),
            ("C", EventClass::new("D", "Ok")),
        ]);
        let s = indent(&rel);
        assert!(s.lines().all(|l| l.starts_with("    ")));
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn bounds_are_exhaustive_for_paper_types() {
        let b = experiment_bounds();
        assert!(b.depth >= 4);
        assert!(b.budget >= 1_000_000);
    }
}
