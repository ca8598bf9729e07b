//! The paper's atomic data types, plus a battery of companions.
//!
//! Each type implements [`Sequential`] (deterministic, total state machine),
//! [`Enumerable`] (a small sample invocation alphabet for the decision
//! procedures), and [`Classified`] (the schema classes that dependency
//! relations and quorum assignments are stated over).
//!
//! From the paper (Herlihy, PODC 1985):
//!
//! * [`Queue`] — the running example (§3): FIFO with `Enq`, `Deq`.
//! * [`Prom`] — §4: write-then-seal-then-read container separating hybrid
//!   from static atomicity (Theorem 5).
//! * [`FlagSet`] — §4: the type whose minimal *hybrid* dependency relation
//!   is not unique.
//! * [`DoubleBuffer`] — §5: producer/consumer buffers separating dynamic
//!   from hybrid dependency (Theorem 12).
//!
//! Companions used by the availability battery and the replication
//! examples:
//!
//! * [`Register`] — read/write file, the Gifford weighted-voting baseline.
//! * [`Counter`] — commuting increments/decrements plus reads.
//! * [`Account`] — bank account whose `Withdraw` can signal `Overdraft`.
//! * [`GSet`] — grow-only set with idempotent, commuting inserts.
//! * [`Directory`] — insert/update/delete/lookup map (Bloch–Daniels–Spector).
//! * [`AppendLog`] — append-only log with full scans.
//!
//! Invocations carry real (unbounded) argument values so the replication
//! layer can run realistic workloads; [`Enumerable::invocations`] returns a
//! small *sample alphabet* chosen to expose every dependency of the type
//! (two distinct items is always enough for the paper's types).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod account;
pub mod appendlog;
pub mod counter;
pub mod directory;
pub mod doublebuffer;
pub mod flagset;
pub mod gset;
pub mod prom;
pub mod queue;
pub mod register;

pub use account::Account;
pub use appendlog::AppendLog;
pub use counter::Counter;
pub use directory::Directory;
pub use doublebuffer::DoubleBuffer;
pub use flagset::FlagSet;
pub use gset::GSet;
pub use prom::Prom;
pub use queue::Queue;
pub use register::Register;

pub use quorumcc_model::{Classified, Enumerable, Sequential};

#[cfg(test)]
mod tests {
    use super::*;

    /// Every invocation sequence up to `depth`, `step` and `apply` side by
    /// side: same response, same successor state, at every prefix.
    fn step_is_apply<S: Enumerable>(depth: usize) {
        let invs = S::invocations();
        let mut frontier = vec![S::initial()];
        for _ in 0..depth {
            let mut next = Vec::new();
            for state in &frontier {
                for inv in &invs {
                    let (res, after) = S::apply(state, inv);
                    let mut stepped = state.clone();
                    assert_eq!(S::step(&mut stepped, inv), res, "{}: {inv:?}", S::NAME);
                    assert_eq!(stepped, after, "{}: {inv:?} from {state:?}", S::NAME);
                    next.push(after);
                }
            }
            frontier = next;
        }
    }

    #[test]
    fn step_matches_apply_on_every_adt() {
        step_is_apply::<Queue>(4);
        step_is_apply::<Prom>(4);
        step_is_apply::<FlagSet>(4);
        step_is_apply::<DoubleBuffer>(4);
        step_is_apply::<Register>(4);
        step_is_apply::<Counter>(4);
        step_is_apply::<Account>(4);
        step_is_apply::<GSet>(4);
        step_is_apply::<Directory>(4);
        step_is_apply::<AppendLog>(4);
    }
}
