//! A grow-only set: idempotent, commuting inserts.

use quorumcc_model::{Classified, Enumerable, EventClass, Sequential};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A grow-only set of integers (initially empty).
///
/// * `Insert(x)` — adds `x` (idempotent; always `Ok`).
/// * `Contains(x)` — returns whether `x` is present.
///
/// Inserts commute with each other *and with themselves*, so strong dynamic
/// atomicity permits fully concurrent inserts; only membership queries
/// constrain quorum intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GSet {}

/// Invocations of [`GSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum GSetInv {
    /// Add an element.
    Insert(u32),
    /// Query membership of an element.
    Contains(u32),
}

/// Responses of [`GSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum GSetRes {
    /// Normal termination of `Insert`.
    Ok,
    /// `Contains` verdict.
    Bool(bool),
}

impl fmt::Display for GSetInv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GSetInv::Insert(x) => write!(f, "Insert({x})"),
            GSetInv::Contains(x) => write!(f, "Contains({x})"),
        }
    }
}

impl fmt::Display for GSetRes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GSetRes::Ok => write!(f, "Ok()"),
            GSetRes::Bool(b) => write!(f, "Ok({b})"),
        }
    }
}

impl Sequential for GSet {
    type State = BTreeSet<u32>;
    type Inv = GSetInv;
    type Res = GSetRes;
    const NAME: &'static str = "GSet";

    fn initial() -> BTreeSet<u32> {
        BTreeSet::new()
    }

    fn apply(s: &BTreeSet<u32>, inv: &GSetInv) -> (GSetRes, BTreeSet<u32>) {
        match inv {
            GSetInv::Insert(x) => {
                let mut t = s.clone();
                t.insert(*x);
                (GSetRes::Ok, t)
            }
            GSetInv::Contains(x) => (GSetRes::Bool(s.contains(x)), s.clone()),
        }
    }

    fn step(s: &mut BTreeSet<u32>, inv: &GSetInv) -> GSetRes {
        match inv {
            GSetInv::Insert(x) => {
                s.insert(*x);
                GSetRes::Ok
            }
            GSetInv::Contains(x) => GSetRes::Bool(s.contains(x)),
        }
    }
}

impl Enumerable for GSet {
    fn invocations() -> Vec<GSetInv> {
        vec![
            GSetInv::Insert(1),
            GSetInv::Insert(2),
            GSetInv::Contains(1),
            GSetInv::Contains(2),
        ]
    }
}

impl Classified for GSet {
    fn op_class(inv: &GSetInv) -> &'static str {
        match inv {
            GSetInv::Insert(_) => "Insert",
            GSetInv::Contains(_) => "Contains",
        }
    }

    fn res_class(_inv: &GSetInv, res: &GSetRes) -> &'static str {
        match res {
            GSetRes::Ok => "Ok",
            GSetRes::Bool(true) => "True",
            GSetRes::Bool(false) => "False",
        }
    }

    fn op_classes() -> Vec<&'static str> {
        vec!["Insert", "Contains"]
    }

    fn event_classes() -> Vec<EventClass> {
        vec![
            EventClass::new("Insert", "Ok"),
            EventClass::new("Contains", "True"),
            EventClass::new("Contains", "False"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorumcc_model::{
        serial,
        spec::{self, ExploreBounds},
        Event,
    };

    #[test]
    fn insert_then_contains() {
        assert!(serial::is_legal::<GSet>(&[
            Event::new(GSetInv::Contains(1), GSetRes::Bool(false)),
            Event::new(GSetInv::Insert(1), GSetRes::Ok),
            Event::new(GSetInv::Contains(1), GSetRes::Bool(true)),
            Event::new(GSetInv::Contains(2), GSetRes::Bool(false)),
        ]));
    }

    #[test]
    fn inserts_commute_even_for_same_element() {
        let b = ExploreBounds::default();
        let states = spec::reachable_states::<GSet>(b);
        let i1 = Event::new(GSetInv::Insert(1), GSetRes::Ok);
        let i2 = Event::new(GSetInv::Insert(2), GSetRes::Ok);
        assert!(spec::events_commute::<GSet>(&i1, &i2, &states, b));
        assert!(spec::events_commute::<GSet>(&i1, &i1, &states, b));
    }

    #[test]
    fn insert_does_not_commute_with_negative_contains() {
        let b = ExploreBounds::default();
        let states = spec::reachable_states::<GSet>(b);
        let ins = Event::new(GSetInv::Insert(1), GSetRes::Ok);
        let c_false = Event::new(GSetInv::Contains(1), GSetRes::Bool(false));
        assert!(!spec::events_commute::<GSet>(&ins, &c_false, &states, b));
    }

    #[test]
    fn insert_commutes_with_unrelated_contains() {
        let b = ExploreBounds::default();
        let states = spec::reachable_states::<GSet>(b);
        let ins = Event::new(GSetInv::Insert(1), GSetRes::Ok);
        let c2 = Event::new(GSetInv::Contains(2), GSetRes::Bool(false));
        assert!(spec::events_commute::<GSet>(&ins, &c2, &states, b));
    }
}
// (additional coverage)
#[cfg(test)]
mod display_tests {
    use super::*;
    use quorumcc_model::Classified;

    #[test]
    fn display_and_classes() {
        assert_eq!(GSetInv::Insert(3).to_string(), "Insert(3)");
        assert_eq!(GSetRes::Bool(true).to_string(), "Ok(true)");
        assert_eq!(
            GSet::event_class(&GSetInv::Contains(1), &GSetRes::Bool(false)).to_string(),
            "Contains/False"
        );
        assert_eq!(GSet::op_classes().len(), 2);
        assert_eq!(GSet::event_classes().len(), 3);
    }
}
