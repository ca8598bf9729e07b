//! Bounded verification of atomic dependency relations (Definition 2) and
//! exact computation of **all minimal relations** via clause extraction.
//!
//! # The reduction
//!
//! Fix a property `P` (static / hybrid / dynamic) and a corpus of histories
//! `H ∈ P(T)`. A relation `≥` fails Definition 2 iff there is a *test*
//! `(H, [e A])` with `H·[e A] ∉ P(T)` and a closed subhistory `G ⊆ H`
//! containing every event `e'` with `e.inv ≥ e'` such that
//! `G·[e A] ∈ P(T)`.
//!
//! For a candidate violating subset `B` (the op entries `G` keeps), whether
//! `B` is closed and contains the required events depends **only** on which
//! pairs the relation contains:
//!
//! * `B` misses a required event `j ∉ B` iff `(cls(e.inv), cls(ev_j)) ∈ ≥`;
//! * `B` is non-closed at `j ∈ B, j' < j, j' ∉ B` iff
//!   `(cls(inv_j), cls(ev_j')) ∈ ≥`.
//!
//! So every test/subset combination with the membership signature
//! `G·[e] ∈ P(T) ∧ H·[e] ∉ P(T)` contributes a **clause** — a disjunction
//! of pairs, at least one of which every valid relation must contain. A
//! relation is a dependency relation (w.r.t. the corpus) iff it hits every
//! clause, and the minimal dependency relations are exactly the **minimal
//! hitting sets** of the clause set. Uniqueness of `≥S` (Theorem 6) and
//! non-uniqueness of minimal hybrid relations (§4, FlagSet) both fall out
//! of this computation.

use crate::enumerate::{alphabet, histories, CorpusConfig, Property};
use crate::parallel;
use crate::relation::{DependencyRelation, Pair};
use quorumcc_model::memo::SpecCache;
use quorumcc_model::{ActionId, BEntry, BHistory, Classified, Enumerable, Event};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A concrete counterexample to Definition 2: with relation `rel`, the view
/// `G` (subhistory of `history` keeping `kept` op entries) admits `event`
/// while the full history does not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The full history `H`, rendered.
    pub history: String,
    /// The event `[e A]` being appended, rendered.
    pub event: String,
    /// The appending action.
    pub action: ActionId,
    /// Rendered events of the violating closed subhistory `G`.
    pub kept: Vec<String>,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "appending {} {} to H =", self.event, self.action)?;
        write!(f, "{}", self.history)?;
        writeln!(f, "is illegal, yet legal for the closed view keeping:")?;
        for k in &self.kept {
            writeln!(f, "  {k}")?;
        }
        Ok(())
    }
}

/// Statistics from clause extraction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CorpusStats {
    /// Histories examined.
    pub histories: usize,
    /// (history, event, action) tests whose full extension was illegal.
    pub failing_tests: usize,
    /// Violating subsets found (before clause dedup).
    pub violations: usize,
    /// Distinct minimized clauses.
    pub clauses: usize,
}

/// The clause set extracted from a corpus: the complete Definition-2
/// obligations for one (type, property) at the corpus bounds.
///
/// `PartialEq` compares every component — property, pair universe, clause
/// masks, witnesses and statistics — so the determinism tests can assert
/// bitwise-identical extraction across thread counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClauseSet {
    property: Property,
    universe: Vec<Pair>,
    index: BTreeMap<Pair, usize>,
    clauses: Vec<u64>,
    witnesses: Vec<Counterexample>,
    stats: CorpusStats,
}

impl ClauseSet {
    /// Extracts the clause set for type `S` and property `prop`, fanning
    /// per-history work out over `cfg.threads` workers (each with its own
    /// [`SpecCache`]).
    ///
    /// `seeds` are extra histories (e.g. the paper's verbatim witnesses)
    /// added to the generated corpus; they make the published clauses
    /// deterministic regardless of sampling. Results are merged in corpus
    /// order, so extraction is bitwise-identical at every thread count and
    /// to [`ClauseSet::extract_reference`].
    pub fn extract<S: Enumerable + Classified>(
        prop: Property,
        cfg: &CorpusConfig,
        seeds: &[BHistory<S::Inv, S::Res>],
    ) -> ClauseSet {
        let mut corpus = histories::<S>(prop, cfg);
        for s in seeds {
            if prop.admits::<S>(s, cfg.bounds) {
                corpus.push(s.clone());
            }
        }
        let events = alphabet::<S>(cfg.bounds);

        let mut stats = CorpusStats {
            histories: corpus.len(),
            ..CorpusStats::default()
        };

        let per_history = parallel::map_indexed_with(
            cfg.threads,
            &corpus,
            || SpecCache::<S>::new(cfg.bounds),
            |cache, _, h| history_clauses::<S>(prop, &events, h, cache),
        );

        // Merge in corpus order: first witness per clause wins, exactly as
        // the sequential loop inserted them.
        let mut raw: BTreeMap<BTreeSet<Pair>, Counterexample> = BTreeMap::new();
        for part in per_history {
            stats.failing_tests += part.failing_tests;
            stats.violations += part.violations;
            for (clause, witness) in part.found {
                raw.entry(clause).or_insert(witness);
            }
        }
        ClauseSet::finish(prop, stats, raw)
    }

    /// The pre-parallel, unmemoized extraction path, retained verbatim as a
    /// correctness oracle.
    ///
    /// Runs the whole pipeline sequentially and decides every membership
    /// query from scratch via [`Property::admits`]. `extract` must produce
    /// an equal `ClauseSet`: `crates/core/tests/determinism.rs` asserts it,
    /// and is this function's only caller.
    pub fn extract_reference<S: Enumerable + Classified>(
        prop: Property,
        cfg: &CorpusConfig,
        seeds: &[BHistory<S::Inv, S::Res>],
    ) -> ClauseSet {
        let sequential = CorpusConfig { threads: 1, ..*cfg };
        let mut corpus = histories::<S>(prop, &sequential);
        for s in seeds {
            if prop.admits::<S>(s, cfg.bounds) {
                corpus.push(s.clone());
            }
        }
        let events = alphabet::<S>(cfg.bounds);

        let mut stats = CorpusStats {
            histories: corpus.len(),
            ..CorpusStats::default()
        };
        let mut raw: BTreeMap<BTreeSet<Pair>, Counterexample> = BTreeMap::new();

        for h in &corpus {
            let ops = h.op_entries();
            let n = ops.len();
            if n > 16 {
                continue; // subset enumeration is exponential; corpus keeps n small
            }
            let mut candidates: Vec<(ActionId, bool)> =
                h.active_actions().into_iter().map(|a| (a, false)).collect();
            let fresh = ActionId(h.actions().len() as u32 + 100);
            candidates.push((fresh, true));

            for (a, is_fresh) in candidates {
                for ev in &events {
                    let h_ext = extend::<S>(h, a, is_fresh, ev);
                    if prop.admits::<S>(&h_ext, cfg.bounds) {
                        continue; // implication trivially satisfied
                    }
                    stats.failing_tests += 1;
                    for mask in 0..(1u32 << n) {
                        if mask == (1u32 << n) - 1 {
                            continue; // B = all ops → G ≡ H, never violating
                        }
                        let keep: std::collections::HashSet<usize> = ops
                            .iter()
                            .enumerate()
                            .filter(|(k, _)| mask & (1 << *k) != 0)
                            .map(|(_, (i, _, _))| *i)
                            .collect();
                        let g = h.subhistory(&keep);
                        let g_ext = extend::<S>(&g, a, is_fresh, ev);
                        if !prop.admits::<S>(&g_ext, cfg.bounds) {
                            continue;
                        }
                        stats.violations += 1;
                        let clause = clause_for::<S>(&ops, mask, ev);
                        debug_assert!(
                            !clause.is_empty(),
                            "empty clause: corpus membership inconsistent"
                        );
                        raw.entry(clause)
                            .or_insert_with(|| witness_for::<S>(h, &ops, mask, a, ev));
                    }
                }
            }
        }
        ClauseSet::finish(prop, stats, raw)
    }

    /// Interns pairs, builds masks, minimizes (drops superset clauses) and
    /// assembles the final `ClauseSet`. Shared by every extraction path.
    fn finish(
        prop: Property,
        mut stats: CorpusStats,
        raw: BTreeMap<BTreeSet<Pair>, Counterexample>,
    ) -> ClauseSet {
        let mut universe: Vec<Pair> = raw
            .keys()
            .flat_map(|c| c.iter().cloned())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        universe.sort();
        assert!(universe.len() <= 64, "pair universe exceeds 64 pairs");
        let index: BTreeMap<Pair, usize> =
            universe.iter().enumerate().map(|(i, p)| (*p, i)).collect();
        let mut masked: Vec<(u64, Counterexample)> = raw
            .into_iter()
            .map(|(c, w)| {
                let m = c.iter().fold(0u64, |acc, p| acc | (1 << index[p]));
                (m, w)
            })
            .collect();
        // Keep only minimal clauses (a superset clause is implied).
        masked.sort_by_key(|(m, _)| m.count_ones());
        let mut clauses: Vec<u64> = Vec::new();
        let mut witnesses: Vec<Counterexample> = Vec::new();
        for (m, w) in masked {
            if !clauses.iter().any(|c| c & m == *c) {
                clauses.push(m);
                witnesses.push(w);
            }
        }
        stats.clauses = clauses.len();
        ClauseSet {
            property: prop,
            universe,
            index,
            clauses,
            witnesses,
            stats,
        }
    }

    /// The property this clause set certifies.
    pub fn property(&self) -> Property {
        self.property
    }

    /// Extraction statistics.
    pub fn stats(&self) -> CorpusStats {
        self.stats
    }

    /// The pairs that occur in at least one clause.
    pub fn pair_universe(&self) -> &[Pair] {
        &self.universe
    }

    /// The minimized clauses, as sets of pairs.
    pub fn clauses(&self) -> Vec<Vec<Pair>> {
        self.clauses
            .iter()
            .map(|m| {
                self.universe
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| m & (1 << *i) != 0)
                    .map(|(_, p)| *p)
                    .collect()
            })
            .collect()
    }

    fn rel_mask(&self, rel: &DependencyRelation) -> u64 {
        rel.iter()
            .filter_map(|p| self.index.get(p))
            .fold(0u64, |acc, i| acc | (1 << i))
    }

    /// Checks whether `rel` is a dependency relation with respect to every
    /// obligation in the corpus.
    ///
    /// # Errors
    ///
    /// Returns the stored [`Counterexample`] of the first clause `rel`
    /// fails to hit.
    pub fn verify(&self, rel: &DependencyRelation) -> Result<(), Counterexample> {
        let mask = self.rel_mask(rel);
        for (c, w) in self.clauses.iter().zip(&self.witnesses) {
            if c & mask == 0 {
                return Err(w.clone());
            }
        }
        Ok(())
    }

    /// Pairs forced into **every** dependency relation: the singleton
    /// clauses.
    pub fn forced_pairs(&self) -> DependencyRelation {
        self.clauses
            .iter()
            .filter(|c| c.count_ones() == 1)
            .map(|c| self.universe[c.trailing_zeros() as usize])
            .collect()
    }

    /// All **minimal** dependency relations (minimal hitting sets of the
    /// clause set), up to `cap` results.
    ///
    /// For static and dynamic atomicity this returns exactly one relation
    /// (Theorems 6 and 10 prove uniqueness); for hybrid atomicity it may
    /// return several (§4's FlagSet returns two).
    pub fn minimal_relations(&self, cap: usize) -> Vec<DependencyRelation> {
        self.minimal_relations_par(cap, 1)
    }

    /// [`ClauseSet::minimal_relations`] on `threads` workers (0 = all
    /// available parallelism).
    ///
    /// The DFS fans out over the first clause's branch choices; branch
    /// outputs are concatenated in bit order and truncated to the search
    /// budget — exactly the prefix the sequential DFS would have produced,
    /// so results are identical at every thread count.
    pub fn minimal_relations_par(&self, cap: usize, threads: usize) -> Vec<DependencyRelation> {
        let budget = cap.saturating_mul(64);
        let mut sets: Vec<u64> = Vec::new();
        if budget == 0 {
            // Nothing requested; keep the sequential DFS's empty answer.
        } else if self.clauses.is_empty() {
            sets.push(0);
        } else {
            // Root clause: with `current = 0`, the first unhit clause is
            // always `clauses[0]`; its set bits are the root branches.
            let root = self.clauses[0];
            let branches: Vec<usize> = (0..self.universe.len())
                .filter(|i| root & (1 << i) != 0)
                .collect();
            let per_branch = parallel::map_indexed(threads, &branches, |_, &bit| {
                let mut current = 1u64 << bit;
                let mut out = Vec::new();
                self.hit(&mut current, 1, &mut out, budget);
                out
            });
            for branch in per_branch {
                sets.extend(branch);
            }
            sets.truncate(budget);
        }
        // Filter to inclusion-minimal, dedup.
        sets.sort_by_key(|s| s.count_ones());
        let mut minimal: Vec<u64> = Vec::new();
        for s in sets {
            if !minimal.iter().any(|m| s & m == *m) && !minimal.contains(&s) {
                minimal.push(s);
            }
        }
        minimal.truncate(cap);
        minimal
            .into_iter()
            .map(|m| {
                self.universe
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| m & (1 << *i) != 0)
                    .map(|(_, p)| *p)
                    .collect()
            })
            .collect()
    }

    fn hit(&self, current: &mut u64, from: usize, out: &mut Vec<u64>, budget: usize) {
        if out.len() >= budget {
            return;
        }
        // First clause not yet hit.
        let unhit = self.clauses[from..].iter().position(|c| c & *current == 0);
        match unhit {
            None => out.push(*current),
            Some(off) => {
                let clause = self.clauses[from + off];
                for i in 0..self.universe.len() {
                    if clause & (1 << i) != 0 {
                        *current |= 1 << i;
                        self.hit(current, from + off + 1, out, budget);
                        *current &= !(1 << i);
                    }
                }
            }
        }
    }
}

/// Renders a behavioral history via `Debug` (user `Inv`/`Res` types need
/// not implement `Display`).
fn render_history<I: std::fmt::Debug + Clone, R: std::fmt::Debug + Clone>(
    h: &BHistory<I, R>,
) -> String {
    let mut s = String::new();
    for e in h.entries() {
        match e {
            BEntry::Begin(a) => s.push_str(&format!("Begin {a}\n")),
            BEntry::Commit(a) => s.push_str(&format!("Commit {a}\n")),
            BEntry::Abort(a) => s.push_str(&format!("Abort {a}\n")),
            BEntry::Op { action, event } => {
                s.push_str(&format!("{:?};{:?} {action}\n", event.inv, event.res))
            }
        }
    }
    s
}

/// One history's contribution to clause extraction. `found` keeps the
/// first witness per clause in (candidate, event, mask) discovery order —
/// the same first-wins rule the sequential merge applies globally.
struct HistoryClauses {
    failing_tests: usize,
    violations: usize,
    found: BTreeMap<BTreeSet<Pair>, Counterexample>,
}

/// Runs every Definition-2 test rooted at `h` — each candidate appending
/// action × alphabet event × kept-subset — answering membership queries
/// through `cache`. This is the unit of parallel work in
/// [`ClauseSet::extract`]; it is a pure function of `(prop, events, h)`.
fn history_clauses<S: Enumerable + Classified>(
    prop: Property,
    events: &[Event<S::Inv, S::Res>],
    h: &BHistory<S::Inv, S::Res>,
    cache: &mut SpecCache<S>,
) -> HistoryClauses {
    let mut out = HistoryClauses {
        failing_tests: 0,
        violations: 0,
        found: BTreeMap::new(),
    };
    let ops = h.op_entries();
    let n = ops.len();
    if n > 16 {
        return out; // subset enumeration is exponential; corpus keeps n small
    }
    // Candidate appending actions: each active action, plus one fresh one.
    let mut candidates: Vec<(ActionId, bool)> =
        h.active_actions().into_iter().map(|a| (a, false)).collect();
    let fresh = ActionId(h.actions().len() as u32 + 100);
    candidates.push((fresh, true));

    // Per-candidate bitmask of the op entries the candidate owns: bit `k`
    // set iff `ops[k]` belongs to the candidate action.
    let owned_ops: Vec<u32> = candidates
        .iter()
        .map(|(a, _)| {
            ops.iter()
                .enumerate()
                .filter(|(_, (_, aid, _))| aid == a)
                .fold(0u32, |bits, (k, _)| bits | (1 << k))
        })
        .collect();

    // The kept-subset view depends only on the mask, not on the candidate
    // or event under test — build each lazily, once per history, together
    // with its own membership verdict and (hybrid) committed-base end
    // state. Membership is prefix-closed, so a view outside the spec has
    // no admitted extension: those masks skip the extension entirely.
    #[allow(clippy::type_complexity)]
    let mut subviews: Vec<Option<(BHistory<S::Inv, S::Res>, bool, Option<S::State>)>> =
        (0..(1usize << n)).map(|_| None).collect();

    // Corpus histories are admits-checked at generation time, so seed the
    // verdict `h ∈ P(T)`: every extension test below then decides only its
    // appended steps instead of re-walking all of `h`'s prefixes.
    prop.assume_member_cached::<S>(h, cache);

    // Hybrid fast path. Two facts make extensions cheap:
    //
    // * An appended `Begin`/`Op` entry never commits anything, so the
    //   extension's committed-base serialization — and its end state — is
    //   its parent's. Computing that state once per view lets every
    //   extension check run only the active-subset permutation tree
    //   ([`atomicity::hybrid_step_ok_from_base`]). The intermediate
    //   `Begin`-only step of a fresh extension adds an event-free active
    //   action, whose every serialization duplicates one of the parent's —
    //   it can never fail and is skipped.
    // * When the candidate owns no kept op, `g·[e a]` differs from
    //   `g·[e fresh]` solely by the id and Begin position of an action that
    //   is otherwise event-free in `g`, and hybrid serializations are
    //   insensitive to both — all such candidates share one verdict per
    //   (mask, event).
    //
    // Static (Begin-order serialization) and dynamic (`precedes`) depend on
    // Begin positions and commit structure; they keep the generic path.
    let is_hybrid = matches!(prop, Property::Hybrid);
    let h_base: Option<S::State> = if is_hybrid {
        quorumcc_model::atomicity::hybrid_base_state::<S>(h)
    } else {
        None
    };
    let mut detached: std::collections::HashMap<
        (u32, usize),
        bool,
        std::hash::BuildHasherDefault<quorumcc_model::memo::FxHasher>,
    > = std::collections::HashMap::default();

    for (ci, (a, is_fresh)) in candidates.into_iter().enumerate() {
        // A fresh candidate appends Begin(a) and the op; an active one
        // appends only the op.
        let added = if is_fresh { 2 } else { 1 };
        for (ei, ev) in events.iter().enumerate() {
            let h_ext = extend::<S>(h, a, is_fresh, ev);
            let h_ext_ok = match &h_base {
                Some(base) => {
                    quorumcc_model::atomicity::hybrid_step_ok_from_base::<S>(&h_ext, base)
                }
                None => prop.admits_extension_cached::<S>(true, &h_ext, added, cache),
            };
            if h_ext_ok {
                continue; // implication trivially satisfied
            }
            out.failing_tests += 1;
            // Search for violating subsets B ⊂ ops.
            for mask in 0..(1u32 << n) {
                if mask == (1u32 << n) - 1 {
                    continue; // B = all ops → G ≡ H, never violating
                }
                let (g, g_ok, g_base) = subviews[mask as usize].get_or_insert_with(|| {
                    let keep: std::collections::HashSet<usize> = ops
                        .iter()
                        .enumerate()
                        .filter(|(k, _)| mask & (1 << *k) != 0)
                        .map(|(_, (i, _, _))| *i)
                        .collect();
                    let g = h.subhistory(&keep);
                    let ok = prop.admits_cached::<S>(&g, cache);
                    let base = if is_hybrid && ok {
                        quorumcc_model::atomicity::hybrid_base_state::<S>(&g)
                    } else {
                        None
                    };
                    (g, ok, base)
                });
                if !*g_ok {
                    continue; // g ∉ P(T) ⇒ g·[e] ∉ P(T): not a violation
                }
                let ext_ok = if is_hybrid && (is_fresh || mask & owned_ops[ci] == 0) {
                    match detached.get(&(mask, ei)) {
                        Some(&v) => v,
                        None => {
                            let g_ext = extend::<S>(g, a, is_fresh, ev);
                            let v = match g_base {
                                Some(base) => {
                                    quorumcc_model::atomicity::hybrid_step_ok_from_base::<S>(
                                        &g_ext, base,
                                    )
                                }
                                None => {
                                    prop.admits_extension_cached::<S>(true, &g_ext, added, cache)
                                }
                            };
                            detached.insert((mask, ei), v);
                            v
                        }
                    }
                } else {
                    let g_ext = extend::<S>(g, a, is_fresh, ev);
                    match (is_hybrid, &g_base) {
                        (true, Some(base)) => {
                            quorumcc_model::atomicity::hybrid_step_ok_from_base::<S>(&g_ext, base)
                        }
                        _ => prop.admits_extension_cached::<S>(true, &g_ext, added, cache),
                    }
                };
                if !ext_ok {
                    continue;
                }
                out.violations += 1;
                let clause = clause_for::<S>(&ops, mask, ev);
                debug_assert!(
                    !clause.is_empty(),
                    "empty clause: corpus membership inconsistent"
                );
                out.found
                    .entry(clause)
                    .or_insert_with(|| witness_for::<S>(h, &ops, mask, a, ev));
            }
        }
    }
    out
}

/// Renders the [`Counterexample`] for one violating (history, event,
/// subset) triple.
#[allow(clippy::type_complexity)]
fn witness_for<S: Enumerable>(
    h: &BHistory<S::Inv, S::Res>,
    ops: &[(usize, ActionId, &Event<S::Inv, S::Res>)],
    mask: u32,
    a: ActionId,
    ev: &Event<S::Inv, S::Res>,
) -> Counterexample {
    Counterexample {
        history: render_history(h),
        event: format!("{:?};{:?}", ev.inv, ev.res),
        action: a,
        kept: ops
            .iter()
            .enumerate()
            .filter(|(k, _)| mask & (1 << *k) != 0)
            .map(|(_, (_, act, e))| format!("{:?};{:?} {act}", e.inv, e.res))
            .collect(),
    }
}

/// Appends `[ev a]` to `h` (with a `Begin a` first if `fresh`).
fn extend<S: Enumerable>(
    h: &BHistory<S::Inv, S::Res>,
    a: ActionId,
    fresh: bool,
    ev: &Event<S::Inv, S::Res>,
) -> BHistory<S::Inv, S::Res> {
    let mut out = h.clone();
    if fresh {
        out = out.extended_with(BEntry::Begin(a));
    }
    out.extended_with(BEntry::Op {
        action: a,
        event: ev.clone(),
    })
}

/// The clause for test event `ev` and kept-subset `mask` over `ops`:
/// pairs whose presence disqualifies the subset as a legal view.
#[allow(clippy::type_complexity)]
fn clause_for<S: Classified>(
    ops: &[(usize, ActionId, &Event<S::Inv, S::Res>)],
    mask: u32,
    ev: &Event<S::Inv, S::Res>,
) -> BTreeSet<Pair> {
    let mut clause = BTreeSet::new();
    let inv_class = S::op_class(&ev.inv);
    for (j, &(_, _, e_j)) in ops.iter().enumerate() {
        if mask & (1 << j) == 0 {
            // Dropped event: making it *required* for `ev` disqualifies B.
            clause.insert((inv_class, S::event_class(&e_j.inv, &e_j.res)));
            // Breaking closedness: a *kept later* event depending on it.
            for (k, &(_, _, e_k)) in ops.iter().enumerate().skip(j + 1) {
                if mask & (1 << k) != 0 {
                    clause.insert((S::op_class(&e_k.inv), S::event_class(&e_j.inv, &e_j.res)));
                }
            }
        }
    }
    clause
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic_rel::minimal_dynamic_relation;
    use crate::static_rel::minimal_static_relation;
    use quorumcc_model::spec::ExploreBounds;
    use quorumcc_model::testtypes::TestRegister;
    use quorumcc_model::EventClass;

    fn cfg() -> CorpusConfig {
        CorpusConfig {
            exhaustive_ops: 3,
            max_actions: 3,
            samples: 1_000,
            sample_ops: 4,
            seed: 7,
            bounds: ExploreBounds {
                depth: 5,
                ..ExploreBounds::default()
            },
            threads: 1,
        }
    }

    fn ec(op: &'static str, res: &'static str) -> EventClass {
        EventClass::new(op, res)
    }

    /// The full relation always verifies, the empty one never does (for a
    /// type with real dependencies).
    #[test]
    fn full_passes_empty_fails() {
        let cs = ClauseSet::extract::<TestRegister>(Property::Hybrid, &cfg(), &[]);
        assert!(cs.stats().clauses > 0);
        assert!(cs
            .verify(&DependencyRelation::full::<TestRegister>())
            .is_ok());
        let err = cs.verify(&DependencyRelation::new()).unwrap_err();
        assert!(!err.history.is_empty());
    }

    /// Cross-validation of Theorem 6: the clause machinery over Static(T)
    /// recovers exactly the minimal static relation computed by the
    /// interference search, and it is unique.
    #[test]
    fn static_clauses_recover_theorem_6_for_register() {
        let cs = ClauseSet::extract::<TestRegister>(Property::Static, &cfg(), &[]);
        let closed_form = minimal_static_relation::<TestRegister>(ExploreBounds {
            depth: 5,
            ..ExploreBounds::default()
        });
        let minimal = cs.minimal_relations(8);
        assert_eq!(minimal.len(), 1, "static minimal relation must be unique");
        assert_eq!(minimal[0], closed_form.relation);
        cs.verify(&closed_form.relation).expect("≥S must verify");
    }

    /// Cross-validation of Theorem 10 for the register.
    #[test]
    fn dynamic_clauses_recover_theorem_10_for_register() {
        let cs = ClauseSet::extract::<TestRegister>(Property::Dynamic, &cfg(), &[]);
        let closed_form = minimal_dynamic_relation::<TestRegister>(ExploreBounds {
            depth: 5,
            ..ExploreBounds::default()
        });
        let minimal = cs.minimal_relations(8);
        assert_eq!(minimal.len(), 1, "dynamic minimal relation must be unique");
        assert_eq!(minimal[0], closed_form.relation);
    }

    /// Theorem 4 on the register: the minimal static relation verifies as a
    /// hybrid dependency relation.
    #[test]
    fn static_relation_is_hybrid_relation_for_register() {
        let hybrid = ClauseSet::extract::<TestRegister>(Property::Hybrid, &cfg(), &[]);
        let s = minimal_static_relation::<TestRegister>(ExploreBounds {
            depth: 5,
            ..ExploreBounds::default()
        });
        hybrid.verify(&s.relation).expect("Theorem 4");
    }

    /// Removing Read ≥ Write from the register's relation must break both
    /// static and hybrid verification.
    #[test]
    fn dropping_read_write_dependency_fails() {
        let rel = DependencyRelation::from_pairs([("Write", ec("Read", "Ok"))]);
        for prop in [Property::Static, Property::Hybrid] {
            let cs = ClauseSet::extract::<TestRegister>(prop, &cfg(), &[]);
            assert!(cs.verify(&rel).is_err(), "{prop:?} should fail");
        }
    }

    #[test]
    fn forced_pairs_are_in_every_minimal_relation() {
        let cs = ClauseSet::extract::<TestRegister>(Property::Hybrid, &cfg(), &[]);
        let forced = cs.forced_pairs();
        for m in cs.minimal_relations(8) {
            assert!(forced.is_subset(&m));
        }
    }

    /// Cross-validation of the strict Theorem-11 reading on the Queue: the
    /// Definition-2 clause machinery over Dynamic(T) agrees with the
    /// commutativity-based `≥D` — including that `Enq ≥ Deq/Ok` is *not*
    /// required — while `≥S` fails as a dynamic relation.
    #[test]
    fn queue_dynamic_clauses_agree_with_commutativity() {
        use quorumcc_model::testtypes::TestQueue;
        let cfg = CorpusConfig {
            exhaustive_ops: 2,
            max_actions: 3,
            samples: 500,
            sample_ops: 3,
            seed: 11,
            bounds: ExploreBounds {
                depth: 5,
                ..ExploreBounds::default()
            },
            threads: 1,
        };
        let cs = ClauseSet::extract::<TestQueue>(Property::Dynamic, &cfg, &[]);
        let d = minimal_dynamic_relation::<TestQueue>(ExploreBounds {
            depth: 5,
            ..ExploreBounds::default()
        });
        cs.verify(&d.relation)
            .expect("≥D must satisfy the dynamic clauses");
        // Dropping Enq ≥ Enq/Ok (the pair ≥S lacks) must fail…
        let weakened = d.relation.without(&("Enq", ec("Enq", "Ok")));
        assert!(cs.verify(&weakened).is_err());
        // …and ≥S itself fails as a dynamic dependency relation (Thm 11).
        let s = minimal_static_relation::<TestQueue>(ExploreBounds {
            depth: 5,
            ..ExploreBounds::default()
        });
        assert!(cs.verify(&s.relation).is_err());
    }

    #[test]
    fn stats_are_populated() {
        let cs = ClauseSet::extract::<TestRegister>(Property::Hybrid, &cfg(), &[]);
        let st = cs.stats();
        assert!(st.histories > 10);
        assert!(st.failing_tests > 0);
        assert!(st.violations >= st.clauses);
    }
}
