//! The paper's running example: an unbounded FIFO queue (§3).

use quorumcc_model::{Classified, Enumerable, EventClass, Sequential};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An unbounded first-in-first-out queue of items.
///
/// Two operations (§3): `Enq` places an item in the queue, and `Deq`
/// removes the least recently enqueued item, signalling `Empty` if the
/// queue is empty.
///
/// # Example
///
/// ```
/// use quorumcc_adts::queue::{Queue, QueueInv, QueueRes};
/// use quorumcc_model::{serial, Event};
///
/// let h = vec![
///     Event::new(QueueInv::Enq(7), QueueRes::Ok),
///     Event::new(QueueInv::Deq, QueueRes::Item(7)),
///     Event::new(QueueInv::Deq, QueueRes::Empty),
/// ];
/// assert!(serial::is_legal::<Queue>(&h));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Queue {}

/// Items are plain integers.
pub type Item = u32;

/// Invocations of [`Queue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum QueueInv {
    /// Place `item` at the back of the queue.
    Enq(Item),
    /// Remove the item at the front of the queue.
    Deq,
}

/// Responses of [`Queue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum QueueRes {
    /// Normal termination of `Enq`.
    Ok,
    /// Normal termination of `Deq`: the dequeued item.
    Item(Item),
    /// `Deq` found the queue empty.
    Empty,
}

impl fmt::Display for QueueInv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueInv::Enq(x) => write!(f, "Enq({x})"),
            QueueInv::Deq => write!(f, "Deq()"),
        }
    }
}

impl fmt::Display for QueueRes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueRes::Ok => write!(f, "Ok()"),
            QueueRes::Item(x) => write!(f, "Ok({x})"),
            QueueRes::Empty => write!(f, "Empty()"),
        }
    }
}

impl Sequential for Queue {
    type State = Vec<Item>;
    type Inv = QueueInv;
    type Res = QueueRes;
    const NAME: &'static str = "Queue";

    fn initial() -> Vec<Item> {
        Vec::new()
    }

    fn apply(s: &Vec<Item>, inv: &QueueInv) -> (QueueRes, Vec<Item>) {
        match inv {
            QueueInv::Enq(x) => {
                let mut t = s.clone();
                t.push(*x);
                (QueueRes::Ok, t)
            }
            QueueInv::Deq => {
                if s.is_empty() {
                    (QueueRes::Empty, s.clone())
                } else {
                    let mut t = s.clone();
                    let x = t.remove(0);
                    (QueueRes::Item(x), t)
                }
            }
        }
    }

    fn step(s: &mut Vec<Item>, inv: &QueueInv) -> QueueRes {
        match inv {
            QueueInv::Enq(x) => {
                s.push(*x);
                QueueRes::Ok
            }
            QueueInv::Deq if s.is_empty() => QueueRes::Empty,
            QueueInv::Deq => QueueRes::Item(s.remove(0)),
        }
    }
}

impl Enumerable for Queue {
    /// Two distinct items suffice to expose every Queue dependency.
    fn invocations() -> Vec<QueueInv> {
        vec![QueueInv::Enq(1), QueueInv::Enq(2), QueueInv::Deq]
    }
}

impl Classified for Queue {
    fn op_class(inv: &QueueInv) -> &'static str {
        match inv {
            QueueInv::Enq(_) => "Enq",
            QueueInv::Deq => "Deq",
        }
    }

    fn res_class(_inv: &QueueInv, res: &QueueRes) -> &'static str {
        match res {
            QueueRes::Ok | QueueRes::Item(_) => "Ok",
            QueueRes::Empty => "Empty",
        }
    }

    fn op_classes() -> Vec<&'static str> {
        vec!["Enq", "Deq"]
    }

    fn event_classes() -> Vec<EventClass> {
        vec![
            EventClass::new("Enq", "Ok"),
            EventClass::new("Deq", "Ok"),
            EventClass::new("Deq", "Empty"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorumcc_model::{serial, spec, Event};

    fn enq(x: Item) -> Event<QueueInv, QueueRes> {
        Event::new(QueueInv::Enq(x), QueueRes::Ok)
    }
    fn deq(x: Item) -> Event<QueueInv, QueueRes> {
        Event::new(QueueInv::Deq, QueueRes::Item(x))
    }
    fn deq_empty() -> Event<QueueInv, QueueRes> {
        Event::new(QueueInv::Deq, QueueRes::Empty)
    }

    #[test]
    fn fifo_order_enforced() {
        assert!(serial::is_legal::<Queue>(&[enq(1), enq(2), deq(1), deq(2)]));
        assert!(!serial::is_legal::<Queue>(&[enq(1), enq(2), deq(2)]));
    }

    #[test]
    fn paper_serial_history_is_legal() {
        // Enq(x);Ok Enq(y);Ok Deq();Ok(x) Deq();Empty — §3.1.
        assert!(serial::is_legal::<Queue>(&[
            enq(1),
            enq(2),
            deq(1),
            deq(2),
            deq_empty(),
        ]));
    }

    #[test]
    fn empty_exception_only_on_empty_queue() {
        assert!(serial::is_legal::<Queue>(&[deq_empty()]));
        assert!(!serial::is_legal::<Queue>(&[enq(1), deq_empty()]));
    }

    #[test]
    fn classification() {
        assert_eq!(Queue::op_class(&QueueInv::Deq), "Deq");
        assert_eq!(
            Queue::event_class(&QueueInv::Deq, &QueueRes::Item(5)).to_string(),
            "Deq/Ok"
        );
        assert_eq!(
            Queue::event_class(&QueueInv::Deq, &QueueRes::Empty).to_string(),
            "Deq/Empty"
        );
        assert_eq!(Queue::event_classes().len(), 3);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(enq(1).to_string(), "Enq(1);Ok()");
        assert_eq!(deq(1).to_string(), "Deq();Ok(1)");
        assert_eq!(deq_empty().to_string(), "Deq();Empty()");
    }

    #[test]
    fn state_space_grows_with_depth() {
        let small = spec::reachable_states::<Queue>(spec::ExploreBounds {
            depth: 2,
            max_states: 1000,
            budget: 1000,
        });
        let big = spec::reachable_states::<Queue>(spec::ExploreBounds {
            depth: 4,
            max_states: 1000,
            budget: 1000,
        });
        assert!(big.len() > small.len());
    }
}
