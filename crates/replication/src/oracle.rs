//! The online safety oracle: after a run — every run, if you let it —
//! the committed history and the repositories' final state are audited
//! against the properties the protocol is supposed to keep *regardless of
//! what the network and the fault plan did*.
//!
//! Four families of checks:
//!
//! 1. **Atomicity**: each object's captured behavioral history must
//!    satisfy the run's serializability mode, via the same
//!    [`crate::history::satisfies`] machinery the verifier uses.
//! 2. **No committed write lost**: every operation a *committed* action
//!    performed must survive somewhere — as log entries on some set of
//!    repositories, or folded into a checkpoint that covers the action.
//! 3. **Version/epoch monotonicity per site**: a repository's per-object
//!    version counters and its configuration version must never fall
//!    below their all-time highs. The highs are tracked in shadow
//!    counters that survive crashes by design (instrumentation sits
//!    outside the failure model), so amnesia the durability layer failed
//!    to mask shows up here.
//! 4. **Checkpoint nesting**: any two repositories' checkpoints for the
//!    same object must cover nested sets of actions with identical commit
//!    timestamps — the invariant committed-prefix compaction relies on
//!    for exact checkpoint adoption.
//!
//! The oracle is deliberately conservative: it never consults protocol
//! internals, only client records and final repository state, so a bug
//! that corrupts internal bookkeeping still has to falsify one of these
//! observable properties to matter — and then the oracle flags it.

use crate::client::Record;
use crate::cluster::RunReport;
use crate::history;
use crate::types::ObjId;
use quorumcc_model::spec::ExploreBounds;
use quorumcc_model::{ActionId, Classified, Enumerable};
use quorumcc_sim::Timestamp;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One property the run falsified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SafetyViolation {
    /// An object's committed history is not serializable in the run's
    /// mode.
    NonAtomic {
        /// The violating object.
        obj: ObjId,
    },
    /// A committed action's operation on `obj` survives on no repository,
    /// neither as a log entry nor folded into a covering checkpoint.
    LostWrite {
        /// The committed action.
        action: ActionId,
        /// The object whose entries are missing.
        obj: ObjId,
        /// Entries the action appended (from its own records).
        expected: u32,
        /// Distinct entry timestamps found across all repositories.
        found: u32,
    },
    /// A repository's per-object version counter fell below its all-time
    /// high `count` times — a recovered site re-issued version numbers.
    VersionRegression {
        /// The repository (process id).
        repo: u32,
        /// How many regressions its shadow counter observed.
        count: u64,
    },
    /// A repository's configuration version fell below its all-time high.
    EpochRegression {
        /// The repository (process id).
        repo: u32,
        /// How many regressions its shadow counter observed.
        count: u64,
    },
    /// Two repositories hold checkpoints for `obj` whose covered action
    /// sets do not nest (or disagree on a commit timestamp).
    CheckpointDivergence {
        /// First repository.
        repo_a: u32,
        /// Second repository.
        repo_b: u32,
        /// The object with diverging checkpoints.
        obj: ObjId,
    },
}

impl fmt::Display for SafetyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SafetyViolation::NonAtomic { obj } => {
                write!(f, "non-atomic history on obj {}", obj.0)
            }
            SafetyViolation::LostWrite {
                action,
                obj,
                expected,
                found,
            } => write!(
                f,
                "lost write: committed action {} expected {expected} entries on obj {}, found {found}",
                action.0, obj.0
            ),
            SafetyViolation::VersionRegression { repo, count } => {
                write!(f, "version regression on repo {repo} ({count} observed)")
            }
            SafetyViolation::EpochRegression { repo, count } => {
                write!(f, "epoch regression on repo {repo} ({count} observed)")
            }
            SafetyViolation::CheckpointDivergence { repo_a, repo_b, obj } => write!(
                f,
                "checkpoints diverge between repos {repo_a} and {repo_b} on obj {}",
                obj.0
            ),
        }
    }
}

/// The oracle's verdict on one run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SafetyReport {
    violations: Vec<SafetyViolation>,
}

impl SafetyReport {
    /// Whether every property held.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations found, in check order.
    pub fn violations(&self) -> &[SafetyViolation] {
        &self.violations
    }
}

impl fmt::Display for SafetyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_ok() {
            return write!(f, "safety oracle: OK");
        }
        writeln!(f, "safety oracle: {} violation(s)", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

impl<S: Classified + Enumerable> RunReport<S> {
    /// Runs the full safety oracle over this run (see the module docs for
    /// the checked properties). `bounds` limit the serializability search
    /// exactly as in [`RunReport::check_atomicity`].
    pub fn safety(&self, bounds: ExploreBounds) -> SafetyReport {
        self.safety_gated(bounds, true)
    }

    /// The oracle with the atomicity family optionally disabled. The
    /// explorer audits *prefixes* of runs, where the lost-write,
    /// monotonicity, and nesting checks are sound at any commit boundary
    /// (a sound protocol commits only after a final quorum acknowledged,
    /// so the entries must already be on disk), but the serializability
    /// check is only meaningful once every transaction has decided — a
    /// committed read of a still-pending write is not yet a violation.
    pub(crate) fn safety_gated(
        &self,
        bounds: ExploreBounds,
        check_atomicity: bool,
    ) -> SafetyReport {
        let mut violations = Vec::new();

        // 1. Atomicity, per object.
        if check_atomicity {
            for obj in self.objects() {
                let h = self.history(*obj);
                if !history::satisfies::<S>(self.protocol().mode(), &h, bounds) {
                    violations.push(SafetyViolation::NonAtomic { obj: *obj });
                }
            }
        }

        // 2. No committed write lost.
        let mut committed: BTreeSet<ActionId> = BTreeSet::new();
        let mut expected: BTreeMap<(ActionId, ObjId), u32> = BTreeMap::new();
        for (_, records, _) in self.clients() {
            for r in records {
                match r {
                    Record::Commit { action, .. } => {
                        committed.insert(*action);
                    }
                    Record::Op { action, obj, .. } => {
                        *expected.entry((*action, *obj)).or_default() += 1;
                    }
                    _ => {}
                }
            }
        }
        for ((action, obj), want) in &expected {
            if !committed.contains(action) {
                continue;
            }
            let mut seen: BTreeSet<Timestamp> = BTreeSet::new();
            let mut covered = false;
            for repo in self.repo_state() {
                let Some((_, log)) = repo.iter().find(|(o, _)| o == obj) else {
                    continue;
                };
                covered |= log
                    .checkpoint()
                    .is_some_and(|cp| cp.covers(*action).is_some());
                for e in log.entries().filter(|e| e.action == *action) {
                    seen.insert(e.ts);
                }
            }
            let found = seen.len() as u32;
            if !covered && found < *want {
                violations.push(SafetyViolation::LostWrite {
                    action: *action,
                    obj: *obj,
                    expected: *want,
                    found,
                });
            }
        }

        // 3. Version/epoch monotonicity per site.
        for (repo, c) in self.repo_counters().iter().enumerate() {
            if c.version_regressions > 0 {
                violations.push(SafetyViolation::VersionRegression {
                    repo: repo as u32,
                    count: c.version_regressions,
                });
            }
            if c.config_regressions > 0 {
                violations.push(SafetyViolation::EpochRegression {
                    repo: repo as u32,
                    count: c.config_regressions,
                });
            }
        }

        // 4. Checkpoint nesting, pairwise per object.
        for obj in self.objects() {
            let cps: Vec<(u32, &BTreeMap<ActionId, Timestamp>)> = self
                .repo_state()
                .iter()
                .enumerate()
                .filter_map(|(repo, state)| {
                    state
                        .iter()
                        .find(|(o, _)| o == obj)
                        .and_then(|(_, log)| log.checkpoint())
                        .map(|cp| (repo as u32, cp.covered()))
                })
                .collect();
            for (i, (repo_a, a)) in cps.iter().enumerate() {
                for (repo_b, b) in &cps[i + 1..] {
                    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
                    let nested = small.iter().all(|(k, v)| large.get(k) == Some(v));
                    if !nested {
                        violations.push(SafetyViolation::CheckpointDivergence {
                            repo_a: *repo_a,
                            repo_b: *repo_b,
                            obj: *obj,
                        });
                    }
                }
            }
        }

        SafetyReport { violations }
    }
}
