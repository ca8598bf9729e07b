//! Sequential specifications as deterministic, total state machines, plus
//! the state-space utilities every decision procedure is built on.

use crate::event::{Event, EventClass};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::Hash;

/// A sequential specification for a data type (§3.1).
///
/// The paper's types — Queue, PROM, FlagSet, DoubleBuffer — are all
/// *deterministic* and *total*: in every state every invocation has exactly
/// one response (exceptions are responses, not failures). A serial history
/// is **legal** exactly when replaying it from [`Sequential::initial`]
/// reproduces every recorded response.
///
/// Implementors are zero-sized marker types; all methods are associated
/// functions.
///
/// # Example
///
/// ```
/// use quorumcc_model::Sequential;
///
/// /// A saturating counter capped at 3.
/// #[derive(Debug)]
/// enum Cap3 {}
/// impl Sequential for Cap3 {
///     type State = u8;
///     type Inv = ();          // only one operation: increment
///     type Res = u8;          // returns the new value
///     const NAME: &'static str = "Cap3";
///     fn initial() -> u8 { 0 }
///     fn apply(s: &u8, _inv: &()) -> (u8, u8) {
///         let n = (*s + 1).min(3);
///         (n, n)
///     }
/// }
/// assert_eq!(Cap3::apply(&2, &()), (3, 3));
/// ```
pub trait Sequential {
    /// Abstract state of the object (`Send + Sync` so decision procedures
    /// can fan out across worker threads; `'static` so replicated-log
    /// checkpoints can carry type-erased state summaries).
    type State: Clone + Eq + Hash + std::fmt::Debug + Send + Sync + 'static;
    /// Invocations (operation name + arguments).
    type Inv: Clone + Eq + Hash + std::fmt::Debug + Send + Sync + 'static;
    /// Responses (normal results and signalled exceptions).
    type Res: Clone + Eq + Hash + std::fmt::Debug + Send + Sync + 'static;

    /// Human-readable type name, e.g. `"Queue"`.
    const NAME: &'static str;

    /// The initial state of a freshly created object.
    fn initial() -> Self::State;

    /// Executes `inv` in `state`, returning the response and successor state.
    ///
    /// Must be total and deterministic.
    fn apply(state: &Self::State, inv: &Self::Inv) -> (Self::Res, Self::State);

    /// Executes `inv` on `state` in place and returns the response — what
    /// [`Sequential::apply`] computes, for replays that keep only the
    /// latest state. Types whose `apply` clones a growing state override it.
    fn step(state: &mut Self::State, inv: &Self::Inv) -> Self::Res {
        let (res, next) = Self::apply(state, inv);
        *state = next;
        res
    }
}

/// A sequential specification with a finite invocation alphabet.
///
/// Decision procedures enumerate histories over this alphabet; data types
/// with parameters instantiate them over a small value domain (e.g. a Queue
/// over two distinct items), which is sufficient to expose every dependency
/// the paper discusses.
pub trait Enumerable: Sequential {
    /// The (finite) invocation alphabet used for enumeration.
    fn invocations() -> Vec<Self::Inv>;
}

/// Classifies concrete invocations and events into schema classes.
///
/// Dependency relations and quorum assignments are stated per class (see
/// [`EventClass`]); this trait provides the abstraction map.
pub trait Classified: Sequential {
    /// The class (operation name) of an invocation, e.g. `"Enq"`.
    fn op_class(inv: &Self::Inv) -> &'static str;

    /// The response kind of an event, e.g. `"Ok"` or `"Empty"`.
    fn res_class(inv: &Self::Inv, res: &Self::Res) -> &'static str;

    /// The full event class of an event.
    fn event_class(inv: &Self::Inv, res: &Self::Res) -> EventClass {
        EventClass::new(Self::op_class(inv), Self::res_class(inv, res))
    }

    /// All operation classes of the type, in declaration order.
    fn op_classes() -> Vec<&'static str>;

    /// All event classes the type can produce, in declaration order.
    fn event_classes() -> Vec<EventClass>;
}

/// Exploration bounds for the state-space utilities.
///
/// All procedures in this crate and in `quorumcc-core` are exhaustive *up to
/// these bounds*; results carry the bounds so reports can state them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreBounds {
    /// Maximum BFS depth from the initial state when collecting reachable
    /// states (bounds history length for infinite-state types like Queue).
    pub depth: usize,
    /// Hard cap on the number of states collected.
    pub max_states: usize,
    /// Hard cap on product-state pairs/tuples visited by the equivalence and
    /// interference searches.
    pub budget: usize,
}

impl Default for ExploreBounds {
    fn default() -> Self {
        ExploreBounds {
            depth: 8,
            max_states: 4_096,
            budget: 2_000_000,
        }
    }
}

impl ExploreBounds {
    /// Small bounds for quick tests.
    pub fn small() -> Self {
        ExploreBounds {
            depth: 5,
            max_states: 512,
            budget: 200_000,
        }
    }
}

/// Applies the event `ev` to `state`.
///
/// Returns the successor state if the recorded response matches what the
/// specification produces (i.e. the event is *legal* in `state`), `None`
/// otherwise.
pub fn apply_event<S: Sequential>(
    state: &S::State,
    ev: &Event<S::Inv, S::Res>,
) -> Option<S::State> {
    let (res, next) = S::apply(state, &ev.inv);
    (res == ev.res).then_some(next)
}

/// Collects the states reachable from [`Sequential::initial`] within
/// `bounds.depth` steps (breadth-first, deduplicated, capped at
/// `bounds.max_states`).
pub fn reachable_states<S: Enumerable>(bounds: ExploreBounds) -> Vec<S::State> {
    let invs = S::invocations();
    let mut seen: HashSet<S::State> = HashSet::new();
    let mut order: Vec<S::State> = Vec::new();
    let mut frontier = VecDeque::new();
    let init = S::initial();
    seen.insert(init.clone());
    order.push(init.clone());
    frontier.push_back((init, 0usize));
    while let Some((s, d)) = frontier.pop_front() {
        if d >= bounds.depth {
            continue;
        }
        for inv in &invs {
            let (_, next) = S::apply(&s, inv);
            if seen.len() >= bounds.max_states {
                return order;
            }
            if seen.insert(next.clone()) {
                order.push(next.clone());
                frontier.push_back((next, d + 1));
            }
        }
    }
    order
}

/// Every event `[inv; res]` that is legal in *some* state of `states`.
pub fn all_events<S: Enumerable>(states: &[S::State]) -> Vec<Event<S::Inv, S::Res>> {
    let invs = S::invocations();
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for s in states {
        for inv in &invs {
            let (res, _) = S::apply(s, inv);
            let ev = Event::new(inv.clone(), res);
            if seen.insert(ev.clone()) {
                out.push(ev);
            }
        }
    }
    out
}

/// Decides whether two states are *equivalent* — indistinguishable by any
/// future computation (`h ≡ h'` in the paper's notation, decided on the
/// states the histories end in).
///
/// Uses Hopcroft–Karp style coinduction over the product automaton: assume
/// pairs equal, search for a distinguishing invocation. Exact whenever the
/// reachable product graph fits in `bounds.budget` pairs; falls back to
/// plain state equality (sound, possibly incomplete) if the budget is
/// exhausted.
pub fn equivalent_states<S: Enumerable>(a: &S::State, b: &S::State, bounds: ExploreBounds) -> bool {
    if a == b {
        return true;
    }
    let invs = S::invocations();
    let mut assumed: HashSet<(S::State, S::State)> = HashSet::new();
    let mut work = VecDeque::new();
    work.push_back((a.clone(), b.clone()));
    assumed.insert((a.clone(), b.clone()));
    while let Some((x, y)) = work.pop_front() {
        for inv in &invs {
            let (rx, nx) = S::apply(&x, inv);
            let (ry, ny) = S::apply(&y, inv);
            if rx != ry {
                return false;
            }
            if nx != ny {
                if assumed.len() >= bounds.budget {
                    // Budget exhausted: conservative fallback.
                    return false;
                }
                if assumed.insert((nx.clone(), ny.clone())) {
                    work.push_back((nx, ny));
                }
            }
        }
    }
    true
}

/// Decides whether two events *commute* (Definition 8 of the paper):
/// for every reachable state where both are legal, both execution orders
/// must be legal and end in equivalent states.
///
/// `states` should come from [`reachable_states`] — commutativity is
/// quantified over all serial histories `h`, i.e. over all reachable states.
pub fn events_commute<S: Enumerable>(
    e1: &Event<S::Inv, S::Res>,
    e2: &Event<S::Inv, S::Res>,
    states: &[S::State],
    bounds: ExploreBounds,
) -> bool {
    for s in states {
        let s1 = apply_event::<S>(s, e1);
        let s2 = apply_event::<S>(s, e2);
        let (Some(s1), Some(s2)) = (s1, s2) else {
            continue; // not both legal here
        };
        // Both orders must stay legal…
        let (Some(s12), Some(s21)) = (apply_event::<S>(&s1, e2), apply_event::<S>(&s2, e1)) else {
            return false;
        };
        // …and end in equivalent states.
        if !equivalent_states::<S>(&s12, &s21, bounds) {
            return false;
        }
    }
    true
}

/// Memoizing wrapper around [`events_commute`] for repeated queries.
///
/// # Example
///
/// ```
/// # use quorumcc_model::{spec::*, Event, Sequential, Enumerable};
/// # #[derive(Debug)] enum Reg {}
/// # impl Sequential for Reg {
/// #     type State = u8; type Inv = Option<u8>; type Res = u8;
/// #     const NAME: &'static str = "Reg";
/// #     fn initial() -> u8 { 0 }
/// #     fn apply(s: &u8, inv: &Option<u8>) -> (u8, u8) {
/// #         match inv { Some(v) => (*v, *v), None => (*s, *s) }
/// #     }
/// # }
/// # impl Enumerable for Reg {
/// #     fn invocations() -> Vec<Option<u8>> { vec![None, Some(1), Some(2)] }
/// # }
/// let bounds = ExploreBounds::default();
/// let mut oracle = CommuteOracle::<Reg>::new(bounds);
/// // Two writes of different values do not commute.
/// let w1 = Event::new(Some(1), 1);
/// let w2 = Event::new(Some(2), 2);
/// assert!(!oracle.commute(&w1, &w2));
/// // A write commutes with itself.
/// assert!(oracle.commute(&w1, &w1));
/// ```
#[derive(Debug)]
pub struct CommuteOracle<S: Enumerable> {
    states: Vec<S::State>,
    bounds: ExploreBounds,
    #[allow(clippy::type_complexity)]
    cache: HashMap<(Event<S::Inv, S::Res>, Event<S::Inv, S::Res>), bool>,
}

impl<S: Enumerable> CommuteOracle<S> {
    /// Builds an oracle over the reachable state space at `bounds`.
    pub fn new(bounds: ExploreBounds) -> Self {
        CommuteOracle {
            states: reachable_states::<S>(bounds),
            bounds,
            cache: HashMap::new(),
        }
    }

    /// The reachable states the oracle quantifies over.
    pub fn states(&self) -> &[S::State] {
        &self.states
    }

    /// Whether `e1` and `e2` commute (memoized; symmetric).
    pub fn commute(&mut self, e1: &Event<S::Inv, S::Res>, e2: &Event<S::Inv, S::Res>) -> bool {
        let key = if canonical_le(e1, e2) {
            (e1.clone(), e2.clone())
        } else {
            (e2.clone(), e1.clone())
        };
        if let Some(&v) = self.cache.get(&key) {
            return v;
        }
        let v = events_commute::<S>(e1, e2, &self.states, self.bounds);
        self.cache.insert(key, v);
        v
    }
}

/// Stable ordering for memo keys regardless of `Ord` on user types.
fn canonical_le<I: Hash, R: Hash>(a: &Event<I, R>, b: &Event<I, R>) -> bool {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::Hasher;
    let mut ha = DefaultHasher::new();
    let mut hb = DefaultHasher::new();
    std::hash::Hash::hash(a, &mut ha);
    std::hash::Hash::hash(b, &mut hb);
    ha.finish() <= hb.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A bounded queue over items {0, 1}, capacity 3 — enough to exercise
    /// every utility without pulling in `quorumcc-adts` (which depends on
    /// this crate).
    #[derive(Debug)]
    enum MiniQueue {}

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum QInv {
        Enq(u8),
        Deq,
    }

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum QRes {
        Ok,
        Item(u8),
        Empty,
        Full,
    }

    impl Sequential for MiniQueue {
        type State = Vec<u8>;
        type Inv = QInv;
        type Res = QRes;
        const NAME: &'static str = "MiniQueue";
        fn initial() -> Vec<u8> {
            Vec::new()
        }
        fn apply(s: &Vec<u8>, inv: &QInv) -> (QRes, Vec<u8>) {
            match inv {
                QInv::Enq(x) => {
                    if s.len() >= 3 {
                        (QRes::Full, s.clone())
                    } else {
                        let mut t = s.clone();
                        t.push(*x);
                        (QRes::Ok, t)
                    }
                }
                QInv::Deq => {
                    if s.is_empty() {
                        (QRes::Empty, s.clone())
                    } else {
                        let mut t = s.clone();
                        let x = t.remove(0);
                        (QRes::Item(x), t)
                    }
                }
            }
        }
    }

    impl Enumerable for MiniQueue {
        fn invocations() -> Vec<QInv> {
            vec![QInv::Enq(0), QInv::Enq(1), QInv::Deq]
        }
    }

    fn bounds() -> ExploreBounds {
        ExploreBounds::default()
    }

    #[test]
    fn reachable_states_counts_bounded_queue() {
        // Queues over {0,1} with length ≤ 3: 1 + 2 + 4 + 8 = 15 states.
        let states = reachable_states::<MiniQueue>(bounds());
        assert_eq!(states.len(), 15);
        assert_eq!(states[0], Vec::<u8>::new());
    }

    #[test]
    fn apply_event_checks_response() {
        let ev_ok = Event::new(QInv::Enq(1), QRes::Ok);
        let ev_bad = Event::new(QInv::Enq(1), QRes::Full);
        assert_eq!(apply_event::<MiniQueue>(&vec![], &ev_ok), Some(vec![1]));
        assert_eq!(apply_event::<MiniQueue>(&vec![], &ev_bad), None);
    }

    #[test]
    fn all_events_enumerates_legal_pairs() {
        let states = reachable_states::<MiniQueue>(bounds());
        let evs = all_events::<MiniQueue>(&states);
        // Enq(0)/Ok, Enq(1)/Ok, Enq(0)/Full, Enq(1)/Full, Deq/Empty,
        // Deq/Item(0), Deq/Item(1)  → 7 events.
        assert_eq!(evs.len(), 7);
    }

    #[test]
    fn equivalence_is_state_equality_for_queue() {
        // Distinct queue contents are always distinguishable.
        assert!(!equivalent_states::<MiniQueue>(
            &vec![0],
            &vec![1],
            bounds()
        ));
        assert!(equivalent_states::<MiniQueue>(
            &vec![0, 1],
            &vec![0, 1],
            bounds()
        ));
    }

    #[test]
    fn enq_does_not_commute_with_enq_of_other_item() {
        let states = reachable_states::<MiniQueue>(bounds());
        let e0 = Event::new(QInv::Enq(0), QRes::Ok);
        let e1 = Event::new(QInv::Enq(1), QRes::Ok);
        assert!(!events_commute::<MiniQueue>(&e0, &e1, &states, bounds()));
    }

    #[test]
    fn enq_self_commutation_blocked_by_capacity() {
        let states = reachable_states::<MiniQueue>(bounds());
        let e0 = Event::new(QInv::Enq(0), QRes::Ok);
        // From a length-2 queue, Enq(0);Ok is legal, but a second Enq(0);Ok
        // then answers Full — the bounded queue's Enq does not self-commute.
        assert!(!events_commute::<MiniQueue>(&e0, &e0, &states, bounds()));
        // The Full event, by contrast, is pure and self-commutes.
        let full = Event::new(QInv::Enq(0), QRes::Full);
        assert!(events_commute::<MiniQueue>(&full, &full, &states, bounds()));
    }

    #[test]
    fn deq_empty_commutes_with_itself_and_is_pure() {
        let states = reachable_states::<MiniQueue>(bounds());
        let de = Event::new(QInv::Deq, QRes::Empty);
        assert!(events_commute::<MiniQueue>(&de, &de, &states, bounds()));
    }

    #[test]
    fn deq_item_does_not_commute_with_enq() {
        let states = reachable_states::<MiniQueue>(bounds());
        let deq = Event::new(QInv::Deq, QRes::Item(0));
        let enq = Event::new(QInv::Enq(0), QRes::Ok);
        // From state [0] with two slots free: Deq;Item(0) then Enq(0) ends
        // in [0]; Enq(0) then Deq;Item(0) ends in [0] as well — but from
        // state [0,1,?]… the orders differ in legality around capacity, and
        // from [0] the end states are [0] vs [0] — need a distinguishing
        // state: [0,1]: Deq→[1], +Enq(0)→[1,0]; Enq(0)→[0,1,0], Deq→[1,0].
        // Same! Capacity: from [0,1,1]: Enq(0) is Full → illegal, vacuous.
        // The real witness is Deq;Item(0) vs Enq where Deq;Item(0) is only
        // legal when 0 is at the head; orders agree… so check the oracle's
        // actual verdict instead of guessing: non-commutation comes from
        // states where one order is illegal.
        let verdict = events_commute::<MiniQueue>(&deq, &enq, &states, bounds());
        // From []: Deq;Item(0) illegal → vacuous. From [0,1,1] (full):
        // Enq(0);Ok illegal → vacuous. From [0,x,y] partial: both legal and
        // commute to the same queue. From [0]: same. So for the *bounded*
        // queue these commute; the interesting Enq/Deq dependency appears in
        // the unbounded queue via Deq;Empty (tested in quorumcc-core).
        assert!(verdict);
    }

    #[test]
    fn commute_oracle_memoizes_and_is_symmetric() {
        let mut o = CommuteOracle::<MiniQueue>::new(bounds());
        let e0 = Event::new(QInv::Enq(0), QRes::Ok);
        let e1 = Event::new(QInv::Enq(1), QRes::Ok);
        assert_eq!(o.commute(&e0, &e1), o.commute(&e1, &e0));
        assert!(!o.commute(&e0, &e1));
    }

    #[test]
    fn bounds_cap_state_collection() {
        let b = ExploreBounds {
            depth: 2,
            max_states: 4,
            budget: 1000,
        };
        let states = reachable_states::<MiniQueue>(b);
        assert!(states.len() <= 4);
    }
}
