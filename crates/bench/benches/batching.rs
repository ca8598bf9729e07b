//! Criterion bench for the throughput engine: what op batching saves on
//! a full quorum round.
//!
//! `quorum_round` is a whole seeded cluster run, per-message
//! (`batch = 1`) vs batched + pipelined (`batch = 8` over 8 shards): the
//! end-to-end cost of delivering the same committed workload, so the
//! measured difference is exactly the envelope coalescing and the
//! read/write overlap.

use criterion::{criterion_group, criterion_main, Criterion};
use quorumcc_adts::Queue;
use quorumcc_core::DependencyRelation;
use quorumcc_model::{Enumerable as _, Sequential};
use quorumcc_replication::cluster::{ProtocolConfig, RunBuilder, TuningConfig};
use quorumcc_replication::protocol::{Mode, Protocol};
use quorumcc_replication::{ObjId, Transaction};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

/// A contention-free workload (each transaction owns a disjoint object
/// range, ops round-robin across it) — both engines commit everything,
/// so the bench compares transport cost, not abort handling.
fn workload(
    clients: usize,
    txns: usize,
    ops: usize,
    per_txn: u16,
) -> Vec<Vec<Transaction<<Queue as Sequential>::Inv>>> {
    let alphabet = Queue::invocations();
    let mut rng = StdRng::seed_from_u64(7);
    (0..clients)
        .map(|c| {
            (0..txns)
                .map(|t| Transaction {
                    ops: (0..ops)
                        .map(|k| {
                            let obj = ObjId((c * txns + t) as u16 * per_txn + k as u16 % per_txn);
                            (obj, alphabet[rng.gen_range(0..alphabet.len())])
                        })
                        .collect(),
                })
                .collect()
        })
        .collect()
}

fn bench_quorum_round(c: &mut Criterion) {
    let protocol = Protocol::new(Mode::Hybrid, DependencyRelation::full::<Queue>());
    let w = workload(8, 2, 8, 8);
    let mut g = c.benchmark_group("quorum_round");
    for (name, shards, batch) in [("per_message", 1u16, 1u32), ("batched", 8, 8)] {
        let protocol = protocol.clone();
        let w = w.clone();
        g.bench_function(name, |b| {
            b.iter(|| {
                let report = RunBuilder::<Queue>::new(5)
                    .protocol(ProtocolConfig::new(protocol.clone()).txn_retries(3))
                    .tuning(TuningConfig::default().shards(shards).batch(batch))
                    .seed(11)
                    .workload(w.clone())
                    .run()
                    .expect("bench run");
                report.stats().committed
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_quorum_round);
criterion_main!(benches);
