//! An append-only log with full scans — the "event-sourcing" primitive.

use quorumcc_model::{Classified, Enumerable, EventClass, Sequential};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An append-only sequence of records (initially empty).
///
/// * `Append(x)` — adds `x` at the end.
/// * `Scan()` — returns the whole sequence.
///
/// Unlike the queue, `Append` does **not** commute with `Append` (scans
/// observe order), and `Scan` observes everything — the worst case for
/// quorum availability, a useful upper-bound comparison point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendLog {}

/// Invocations of [`AppendLog`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AppendLogInv {
    /// Append a record.
    Append(u32),
    /// Read the whole log.
    Scan,
}

/// Responses of [`AppendLog`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AppendLogRes {
    /// Normal termination of `Append`.
    Ok,
    /// Normal termination of `Scan`: the records in order.
    Records(Vec<u32>),
}

impl fmt::Display for AppendLogInv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppendLogInv::Append(x) => write!(f, "Append({x})"),
            AppendLogInv::Scan => write!(f, "Scan()"),
        }
    }
}

impl fmt::Display for AppendLogRes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppendLogRes::Ok => write!(f, "Ok()"),
            AppendLogRes::Records(rs) => write!(f, "Ok({rs:?})"),
        }
    }
}

impl Sequential for AppendLog {
    type State = Vec<u32>;
    type Inv = AppendLogInv;
    type Res = AppendLogRes;
    const NAME: &'static str = "AppendLog";

    fn initial() -> Vec<u32> {
        Vec::new()
    }

    fn apply(s: &Vec<u32>, inv: &AppendLogInv) -> (AppendLogRes, Vec<u32>) {
        match inv {
            AppendLogInv::Append(x) => {
                let mut t = s.clone();
                t.push(*x);
                (AppendLogRes::Ok, t)
            }
            AppendLogInv::Scan => (AppendLogRes::Records(s.clone()), s.clone()),
        }
    }

    fn step(s: &mut Vec<u32>, inv: &AppendLogInv) -> AppendLogRes {
        match inv {
            AppendLogInv::Append(x) => {
                s.push(*x);
                AppendLogRes::Ok
            }
            AppendLogInv::Scan => AppendLogRes::Records(s.clone()),
        }
    }
}

impl Enumerable for AppendLog {
    fn invocations() -> Vec<AppendLogInv> {
        vec![
            AppendLogInv::Append(1),
            AppendLogInv::Append(2),
            AppendLogInv::Scan,
        ]
    }
}

impl Classified for AppendLog {
    fn op_class(inv: &AppendLogInv) -> &'static str {
        match inv {
            AppendLogInv::Append(_) => "Append",
            AppendLogInv::Scan => "Scan",
        }
    }

    fn res_class(_inv: &AppendLogInv, _res: &AppendLogRes) -> &'static str {
        "Ok"
    }

    fn op_classes() -> Vec<&'static str> {
        vec!["Append", "Scan"]
    }

    fn event_classes() -> Vec<EventClass> {
        vec![
            EventClass::new("Append", "Ok"),
            EventClass::new("Scan", "Ok"),
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
    fn scan_sees_appends_in_order() {
        assert!(serial::is_legal::<AppendLog>(&[
            Event::new(AppendLogInv::Append(1), AppendLogRes::Ok),
            Event::new(AppendLogInv::Append(2), AppendLogRes::Ok),
            Event::new(AppendLogInv::Scan, AppendLogRes::Records(vec![1, 2])),
        ]));
        assert!(!serial::is_legal::<AppendLog>(&[
            Event::new(AppendLogInv::Append(1), AppendLogRes::Ok),
            Event::new(AppendLogInv::Scan, AppendLogRes::Records(vec![])),
        ]));
    }

    #[test]
    fn appends_do_not_commute() {
        let b = ExploreBounds::default();
        let states = spec::reachable_states::<AppendLog>(b);
        let a1 = Event::new(AppendLogInv::Append(1), AppendLogRes::Ok);
        let a2 = Event::new(AppendLogInv::Append(2), AppendLogRes::Ok);
        assert!(!spec::events_commute::<AppendLog>(&a1, &a2, &states, b));
    }
}
// (additional coverage)
#[cfg(test)]
mod display_tests {
    use super::*;
    use quorumcc_model::Classified;

    #[test]
    fn display_and_classes() {
        assert_eq!(AppendLogInv::Append(4).to_string(), "Append(4)");
        assert_eq!(AppendLogRes::Records(vec![1, 2]).to_string(), "Ok([1, 2])");
        assert_eq!(AppendLog::op_class(&AppendLogInv::Scan), "Scan");
        assert_eq!(AppendLog::event_classes().len(), 2);
    }
}
