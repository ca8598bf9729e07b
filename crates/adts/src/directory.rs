//! A directory (key → value map) in the style of Bloch–Daniels–Spector's
//! weighted voting for directories.

use quorumcc_model::{Classified, Enumerable, EventClass, Sequential};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A map from integer keys to integer values (initially empty).
///
/// * `Insert(k, v)` — binds `k` to `v`; signals `Exists` if `k` is bound.
/// * `Update(k, v)` — rebinds `k`; signals `Missing` if `k` is unbound.
/// * `Delete(k)` — removes `k`; signals `Missing` if unbound.
/// * `Lookup(k)` — returns the binding or signals `Missing`.
///
/// Operations on *different keys* commute, which a per-key (rather than
/// whole-object) quorum analysis can exploit; the sample alphabet uses two
/// keys to expose both same-key and cross-key behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Directory {}

/// Invocations of [`Directory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DirectoryInv {
    /// Bind a fresh key.
    Insert(u32, u32),
    /// Rebind an existing key.
    Update(u32, u32),
    /// Remove a binding.
    Delete(u32),
    /// Look a binding up.
    Lookup(u32),
}

/// Responses of [`Directory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DirectoryRes {
    /// Normal termination of `Insert`/`Update`/`Delete`.
    Ok,
    /// Normal termination of `Lookup`: the bound value.
    Val(u32),
    /// The key was not bound.
    Missing,
    /// `Insert` on an already-bound key.
    Exists,
}

impl fmt::Display for DirectoryInv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirectoryInv::Insert(k, v) => write!(f, "Insert({k},{v})"),
            DirectoryInv::Update(k, v) => write!(f, "Update({k},{v})"),
            DirectoryInv::Delete(k) => write!(f, "Delete({k})"),
            DirectoryInv::Lookup(k) => write!(f, "Lookup({k})"),
        }
    }
}

impl fmt::Display for DirectoryRes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirectoryRes::Ok => write!(f, "Ok()"),
            DirectoryRes::Val(v) => write!(f, "Ok({v})"),
            DirectoryRes::Missing => write!(f, "Missing()"),
            DirectoryRes::Exists => write!(f, "Exists()"),
        }
    }
}

impl Sequential for Directory {
    type State = BTreeMap<u32, u32>;
    type Inv = DirectoryInv;
    type Res = DirectoryRes;
    const NAME: &'static str = "Directory";

    fn initial() -> BTreeMap<u32, u32> {
        BTreeMap::new()
    }

    fn apply(s: &BTreeMap<u32, u32>, inv: &DirectoryInv) -> (DirectoryRes, BTreeMap<u32, u32>) {
        match inv {
            DirectoryInv::Insert(k, v) => {
                if s.contains_key(k) {
                    (DirectoryRes::Exists, s.clone())
                } else {
                    let mut t = s.clone();
                    t.insert(*k, *v);
                    (DirectoryRes::Ok, t)
                }
            }
            DirectoryInv::Update(k, v) => {
                if s.contains_key(k) {
                    let mut t = s.clone();
                    t.insert(*k, *v);
                    (DirectoryRes::Ok, t)
                } else {
                    (DirectoryRes::Missing, s.clone())
                }
            }
            DirectoryInv::Delete(k) => {
                if s.contains_key(k) {
                    let mut t = s.clone();
                    t.remove(k);
                    (DirectoryRes::Ok, t)
                } else {
                    (DirectoryRes::Missing, s.clone())
                }
            }
            DirectoryInv::Lookup(k) => match s.get(k) {
                Some(v) => (DirectoryRes::Val(*v), s.clone()),
                None => (DirectoryRes::Missing, s.clone()),
            },
        }
    }

    fn step(s: &mut BTreeMap<u32, u32>, inv: &DirectoryInv) -> DirectoryRes {
        match inv {
            DirectoryInv::Insert(k, _) if s.contains_key(k) => DirectoryRes::Exists,
            DirectoryInv::Update(k, _) if !s.contains_key(k) => DirectoryRes::Missing,
            DirectoryInv::Insert(k, v) | DirectoryInv::Update(k, v) => {
                s.insert(*k, *v);
                DirectoryRes::Ok
            }
            DirectoryInv::Delete(k) => s
                .remove(k)
                .map_or(DirectoryRes::Missing, |_| DirectoryRes::Ok),
            DirectoryInv::Lookup(k) => s
                .get(k)
                .map_or(DirectoryRes::Missing, |v| DirectoryRes::Val(*v)),
        }
    }
}

impl Enumerable for Directory {
    fn invocations() -> Vec<DirectoryInv> {
        vec![
            DirectoryInv::Insert(1, 1),
            DirectoryInv::Insert(2, 1),
            DirectoryInv::Update(1, 2),
            DirectoryInv::Delete(1),
            DirectoryInv::Lookup(1),
            DirectoryInv::Lookup(2),
        ]
    }
}

impl Classified for Directory {
    fn op_class(inv: &DirectoryInv) -> &'static str {
        match inv {
            DirectoryInv::Insert(..) => "Insert",
            DirectoryInv::Update(..) => "Update",
            DirectoryInv::Delete(_) => "Delete",
            DirectoryInv::Lookup(_) => "Lookup",
        }
    }

    fn res_class(_inv: &DirectoryInv, res: &DirectoryRes) -> &'static str {
        match res {
            DirectoryRes::Ok | DirectoryRes::Val(_) => "Ok",
            DirectoryRes::Missing => "Missing",
            DirectoryRes::Exists => "Exists",
        }
    }

    fn op_classes() -> Vec<&'static str> {
        vec!["Insert", "Update", "Delete", "Lookup"]
    }

    fn event_classes() -> Vec<EventClass> {
        vec![
            EventClass::new("Insert", "Ok"),
            EventClass::new("Insert", "Exists"),
            EventClass::new("Update", "Ok"),
            EventClass::new("Update", "Missing"),
            EventClass::new("Delete", "Ok"),
            EventClass::new("Delete", "Missing"),
            EventClass::new("Lookup", "Ok"),
            EventClass::new("Lookup", "Missing"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorumcc_model::{serial, Event};

    type E = Event<DirectoryInv, DirectoryRes>;

    fn ev(inv: DirectoryInv, res: DirectoryRes) -> E {
        Event::new(inv, res)
    }

    #[test]
    fn insert_update_delete_lookup_lifecycle() {
        assert!(serial::is_legal::<Directory>(&[
            ev(DirectoryInv::Lookup(1), DirectoryRes::Missing),
            ev(DirectoryInv::Insert(1, 1), DirectoryRes::Ok),
            ev(DirectoryInv::Lookup(1), DirectoryRes::Val(1)),
            ev(DirectoryInv::Update(1, 2), DirectoryRes::Ok),
            ev(DirectoryInv::Lookup(1), DirectoryRes::Val(2)),
            ev(DirectoryInv::Delete(1), DirectoryRes::Ok),
            ev(DirectoryInv::Lookup(1), DirectoryRes::Missing),
        ]));
    }

    #[test]
    fn double_insert_signals_exists() {
        assert!(serial::is_legal::<Directory>(&[
            ev(DirectoryInv::Insert(1, 1), DirectoryRes::Ok),
            ev(DirectoryInv::Insert(1, 2), DirectoryRes::Exists),
            ev(DirectoryInv::Lookup(1), DirectoryRes::Val(1)),
        ]));
    }

    #[test]
    fn update_and_delete_on_missing_key_signal_missing() {
        assert!(serial::is_legal::<Directory>(&[
            ev(DirectoryInv::Update(1, 2), DirectoryRes::Missing),
            ev(DirectoryInv::Delete(1), DirectoryRes::Missing),
        ]));
        assert!(!serial::is_legal::<Directory>(&[ev(
            DirectoryInv::Delete(1),
            DirectoryRes::Ok
        )]));
    }

    #[test]
    fn keys_are_independent() {
        assert!(serial::is_legal::<Directory>(&[
            ev(DirectoryInv::Insert(1, 1), DirectoryRes::Ok),
            ev(DirectoryInv::Lookup(2), DirectoryRes::Missing),
            ev(DirectoryInv::Insert(2, 1), DirectoryRes::Ok),
            ev(DirectoryInv::Delete(1), DirectoryRes::Ok),
            ev(DirectoryInv::Lookup(2), DirectoryRes::Val(1)),
        ]));
    }
}
// (additional coverage)
#[cfg(test)]
mod display_tests {
    use super::*;
    use quorumcc_model::Classified;

    #[test]
    fn display_and_classes() {
        assert_eq!(DirectoryInv::Insert(1, 2).to_string(), "Insert(1,2)");
        assert_eq!(DirectoryRes::Exists.to_string(), "Exists()");
        assert_eq!(
            Directory::event_class(&DirectoryInv::Lookup(1), &DirectoryRes::Missing).to_string(),
            "Lookup/Missing"
        );
        assert_eq!(Directory::op_classes().len(), 4);
        assert_eq!(Directory::event_classes().len(), 8);
    }
}
