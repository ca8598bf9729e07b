//! A replicated bank account: deposits commute, withdrawals can bounce,
//! and the final balance always audits — the motivating scenario for
//! typed (rather than read/write) concurrency control.
//!
//! ```text
//! cargo run --example replicated_bank
//! ```

use quorumcc::core::{minimal_dynamic_relation, minimal_static_relation};
use quorumcc::model::BEntry;
use quorumcc::prelude::*;
use quorumcc::replication::workload::{generate, WorkloadSpec};
use quorumcc_adts::account::{Account, AccountInv, AccountRes};
use rand::Rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bounds = ExploreBounds {
        depth: 4,
        ..ExploreBounds::default()
    };

    println!("== Account dependency relations ==");
    println!("static (Theorem 6):");
    let s = minimal_static_relation::<Account>(bounds);
    println!("{}", s.relation);
    println!("dynamic (Theorem 10):");
    let d = minimal_dynamic_relation::<Account>(bounds);
    println!("{}", d.relation);

    // A teller workload: mostly deposits and withdrawals, some balance
    // checks.
    let workload = generate(
        WorkloadSpec {
            clients: 4,
            txns_per_client: 6,
            ops_per_txn: 2,
            objects: 1,
            seed: 2026,
        },
        |rng| match rng.gen_range(0..10) {
            0..=4 => AccountInv::Deposit(rng.gen_range(1..=3)),
            5..=8 => AccountInv::Withdraw(rng.gen_range(1..=3)),
            _ => AccountInv::Balance,
        },
    );

    for mode in [Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl] {
        let run = RunBuilder::<Account>::new(5)
            .protocol(
                ProtocolConfig::new(Protocol::minimal::<Account>(mode, bounds)).txn_retries(5),
            )
            .seed(11)
            .workload(workload.clone())
            .run()?;
        let t = run.stats();
        run.check_atomicity(bounds)
            .map_err(|o| format!("{mode}: non-atomic history for {o}"))?;

        // Audit: replay the committed deposits/withdrawals; the balance
        // must be non-negative and every bounced withdrawal justified.
        let h = run.history(ObjId(0));
        let mut balance: i64 = 0;
        let mut bounced = 0usize;
        for a in h.committed_actions() {
            for e in h.events_of(a) {
                match (e.inv, e.res) {
                    (AccountInv::Deposit(k), AccountRes::Ok) => balance += k as i64,
                    (AccountInv::Withdraw(k), AccountRes::Ok) => balance -= k as i64,
                    (AccountInv::Withdraw(_), AccountRes::Overdraft) => bounced += 1,
                    _ => {}
                }
            }
        }
        assert!(balance >= 0, "{mode}: negative audited balance {balance}");
        let ops = h
            .entries()
            .iter()
            .filter(|e| matches!(e, BEntry::Op { .. }))
            .count();
        println!(
            "{mode:>11}: committed={:<3} conflict-aborts={:<3} balance={balance} \
             bounced={bounced} committed-ops={ops}",
            t.committed, t.aborted_conflict
        );
    }
    println!("all audits passed");
    Ok(())
}
