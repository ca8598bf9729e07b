//! Criterion benches: full replicated-cluster runs under each protocol
//! (simulated operations per wall-clock second).

use criterion::{criterion_group, criterion_main, Criterion};
use quorumcc_model::spec::ExploreBounds;
use quorumcc_model::testtypes::{QInv, TestQueue};
use quorumcc_replication::cluster::{ProtocolConfig, RunBuilder};
use quorumcc_replication::protocol::{Mode, Protocol};
use quorumcc_replication::workload::{generate, WorkloadSpec};
use quorumcc_sim::trace::TraceConfig;
use rand::Rng;

fn bench_cluster(c: &mut Criterion) {
    let bounds = ExploreBounds {
        depth: 4,
        ..ExploreBounds::default()
    };

    let mut g = c.benchmark_group("cluster_run_3repos_3clients_5txns");
    g.sample_size(20);
    for mode in [Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl] {
        let protocol = Protocol::minimal::<TestQueue>(mode, bounds);
        g.bench_function(mode.name(), |b| {
            b.iter(|| {
                let w = generate(
                    WorkloadSpec {
                        clients: 3,
                        txns_per_client: 5,
                        ops_per_txn: 2,
                        objects: 1,
                        seed: 7,
                    },
                    |rng| {
                        if rng.gen_bool(0.7) {
                            QInv::Enq(rng.gen_range(1..=2))
                        } else {
                            QInv::Deq
                        }
                    },
                );
                RunBuilder::<TestQueue>::new(3)
                    .protocol(ProtocolConfig::new(protocol.clone()).txn_retries(2))
                    .seed(7)
                    .workload(w)
                    .run()
                    .unwrap()
                    .stats()
            })
        });
    }
    g.finish();

    // The acceptance gate for the trace layer: a disabled TraceConfig must
    // cost nothing measurable vs the plain run above (compare the two
    // hybrid groups; delta must stay within noise).
    let mut g = c.benchmark_group("cluster_run_trace_overhead");
    g.sample_size(20);
    let hybrid = Protocol::minimal::<TestQueue>(Mode::Hybrid, bounds);
    for (label, cfg) in [
        ("disabled", TraceConfig::disabled()),
        ("ring4096", TraceConfig::ring(4096)),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let w = generate(
                    WorkloadSpec {
                        clients: 3,
                        txns_per_client: 5,
                        ops_per_txn: 2,
                        objects: 1,
                        seed: 7,
                    },
                    |rng| {
                        if rng.gen_bool(0.7) {
                            QInv::Enq(rng.gen_range(1..=2))
                        } else {
                            QInv::Deq
                        }
                    },
                );
                RunBuilder::<TestQueue>::new(3)
                    .protocol(ProtocolConfig::new(hybrid.clone()).txn_retries(2))
                    .trace(cfg)
                    .seed(7)
                    .workload(w)
                    .run()
                    .unwrap()
                    .stats()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
