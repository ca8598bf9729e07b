//! **Experiment R1** — online quorum reconfiguration after a site loss.
//!
//! A 5-site PROM cluster loses site 4 permanently mid-run. Four scenarios
//! — {hybrid, static} × {reconfiguration off, `ReconfigPolicy::Reactive`}
//! — run the *same* workload (each transaction writes then seals its own
//! PROM, so every transaction needs a full-membership Seal/Write quorum),
//! and the committed-transaction counts are windowed into before / during
//! / after the loss:
//!
//! * with reconfiguration **off**, availability never comes back — the
//!   pre-fault thresholds keep demanding the dead site;
//! * with the **reactive** policy, the planner replans over the four
//!   survivors, a joint-then-stable epoch installs, and commits resume.
//!
//! The planner section makes the paper's §4 comparison explicit: over the
//! survivors, hybrid atomicity replans PROM to (Read = 1, Write = 1,
//! Seal = 4) while static atomicity's extra constraints force Write to
//! cover the whole surviving membership — so hybrid's recovered Write
//! availability strictly beats the best static can do.

use quorumcc_adts::prom::PromInv;
use quorumcc_adts::Prom;
use quorumcc_bench::{experiment_bounds, section, threads_from_args, BenchRecorder};
use quorumcc_core::certificates::{prom_hybrid_relation, prom_static_extra_pairs};
use quorumcc_core::parallel::{effective_threads, map_indexed};
use quorumcc_model::Classified;
use quorumcc_quorum::{planner, threshold, SiteSet};
use quorumcc_replication::cluster::{ProtocolConfig, RunBuilder};
use quorumcc_replication::protocol::{Mode, Protocol};
use quorumcc_replication::types::ObjId;
use quorumcc_replication::{ReconfigPolicy, Transaction, TuningConfig};
use quorumcc_sim::FaultPlan;

const N: u32 = 5;
const CRASH_AT: u64 = 3_000;
const DETECT_DELAY: u64 = 300;
const MAX_TIME: u64 = 12_000;
/// Window boundary separating "during the outage" from "after the
/// reconfiguration had time to commit" (fixed, so the off/on scenarios
/// are windowed identically).
const RECOVER_AT: u64 = 4_000;

fn workload(clients: u32, txns: u32) -> Vec<Vec<Transaction<PromInv>>> {
    (0..clients)
        .map(|c| {
            (0..txns)
                .map(|j| {
                    // Each transaction owns one PROM: write it, then seal
                    // it. The Seal is the full-membership quorum that
                    // makes the site loss bite under *both* mechanisms.
                    let obj = ObjId((c * 64 + j) as u16);
                    Transaction {
                        ops: vec![(obj, PromInv::Write(j)), (obj, PromInv::Seal)],
                    }
                })
                .collect()
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bounds = experiment_bounds();
    let threads = threads_from_args();
    let mut rec = BenchRecorder::new("exp_reconfig", threads, bounds);
    let ops = Prom::op_classes();
    let evs = Prom::event_classes();
    let priority = ["Read", "Write", "Seal"];

    let hybrid_rel = prom_hybrid_relation();
    let static_rel = hybrid_rel.union(&prom_static_extra_pairs());
    let ta_h = threshold::optimize(&hybrid_rel, N, &ops, &evs, &priority)?;
    let ta_s = threshold::optimize(&static_rel, N, &ops, &evs, &priority)?;

    section("1. Replanning over the survivors (site 4 lost, p = 0.9)");
    let survivors = SiteSet::from_ids([0, 1, 2, 3]);
    let up = [0.9, 0.9, 0.9, 0.9, 0.0];
    let plan_h = planner::plan(&hybrid_rel, survivors, &up, &ops, &evs, &priority)?;
    let plan_s = planner::plan(&static_rel, survivors, &up, &ops, &evs, &priority)?;
    println!(
        "  {:>9} | {:>13} | {:>13} | {:>20}",
        "mechanism", "Read/Write/Seal", "quorum of", "Write availability"
    );
    for (name, plan) in [("hybrid", &plan_h), ("static", &plan_s)] {
        println!(
            "  {:>9} | {:>5}/{}/{:>5} | {:>13} | {:>20.6}",
            name,
            plan.thresholds.op_size_worst("Read", &evs),
            plan.thresholds.op_size_worst("Write", &evs),
            plan.thresholds.op_size_worst("Seal", &evs),
            survivors.len(),
            plan.availability_of("Write").unwrap_or(0.0),
        );
    }
    // The acceptance shape: hybrid replans to (Read = 1, Seal = n-1,
    // Write = 1); static cannot follow — its Write must cover the whole
    // surviving membership, so its availability stays strictly behind.
    assert_eq!(plan_h.thresholds.op_size_worst("Read", &evs), 1);
    assert_eq!(plan_h.thresholds.op_size_worst("Write", &evs), 1);
    assert_eq!(plan_h.thresholds.op_size_worst("Seal", &evs), (N - 1));
    assert_eq!(plan_s.thresholds.op_size_worst("Write", &evs), (N - 1));
    let (hw, sw) = (
        plan_h.availability_of("Write").unwrap_or(0.0),
        plan_s.availability_of("Write").unwrap_or(0.0),
    );
    assert!(hw > sw, "hybrid Write availability must beat static");
    rec.metric("replanned_write_avail_hybrid", hw);
    rec.metric("replanned_write_avail_static", sw);

    section("2. Operational: committed transactions per window");
    // The four scenarios are independent simulations; they fan out over
    // `quorumcc_core::parallel` and report in item order, so the table,
    // metrics, and telemetry are byte-identical at every `--threads`
    // count.
    let mechs = [
        (Mode::Hybrid, &hybrid_rel, &ta_h),
        (Mode::StaticTs, &static_rel, &ta_s),
    ];
    let pols = ["off", "on"];
    let items: Vec<(usize, usize)> = (0..mechs.len())
        .flat_map(|m| (0..pols.len()).map(move |p| (m, p)))
        .collect();
    rec.set_threads_effective(effective_threads(threads).min(items.len()));
    let sim_t0 = std::time::Instant::now();
    let results = map_indexed(threads, &items, |_, &(m, p)| {
        let (mode, rel, ta) = &mechs[m];
        let policy = if pols[p] == "off" {
            ReconfigPolicy::None
        } else {
            ReconfigPolicy::Reactive {
                detect_delay: DETECT_DELAY,
                priority: vec!["Read", "Write", "Seal"],
            }
        };
        let name = format!("{mode}_{}", pols[p]);
        let mut faults = FaultPlan::none();
        faults.crash(4, CRASH_AT, MAX_TIME);
        let report = RunBuilder::<Prom>::new(N)
            .protocol(
                ProtocolConfig::new(Protocol::new(*mode, (*rel).clone()))
                    .op_timeout(60)
                    .txn_retries(1),
            )
            .thresholds((*ta).clone())
            .tuning(TuningConfig::default().think_time(250))
            .faults(faults)
            .max_time(MAX_TIME)
            .reconfig(policy)
            .workload(workload(2, 24))
            .run()
            .map_err(|e| format!("{name}: {e}"))?;
        report
            .check_atomicity(bounds)
            .map_err(|o| format!("{name}: non-atomic history {o}"))?;

        // Window the committed transactions by commit-record time.
        let (mut before, mut during, mut after) = (0u64, 0u64, 0u64);
        for (_, records, _) in report.clients() {
            for r in records {
                if let quorumcc_replication::client::Record::Commit { t, .. } = r {
                    match *t {
                        t if t < CRASH_AT => before += 1,
                        t if t < RECOVER_AT => during += 1,
                        _ => after += 1,
                    }
                }
            }
        }
        let t = report.stats();
        Ok::<_, String>((
            name,
            before,
            during,
            after,
            t.aborted_unavailable,
            t.stale_retries,
            report.reconfigs().last().map(|r| r.committed),
            report.telemetry().clone(),
        ))
    });
    rec.record_phase("cluster_sim_ms", sim_t0.elapsed().as_secs_f64() * 1e3);
    println!(
        "  {:>10} | {:>8} | {:>8} | {:>8} | {:>7} | {:>6} | {:>11}",
        "scenario", "before", "during", "after", "unavail", "stale", "reconfig@t"
    );
    let mut after_counts = std::collections::HashMap::new();
    for res in results {
        let (name, before, during, after, unavail, stale, reconfig_t, telemetry) = res?;
        let commit_t = reconfig_t.map_or("-".to_string(), |t| t.to_string());
        println!(
            "  {:>10} | {:>8} | {:>8} | {:>8} | {:>7} | {:>6} | {:>11}",
            name, before, during, after, unavail, stale, commit_t
        );
        after_counts.insert(name.clone(), after);
        rec.metric(&format!("{name}_committed_before"), before as f64);
        rec.metric(&format!("{name}_committed_during"), during as f64);
        rec.metric(&format!("{name}_committed_after"), after as f64);
        rec.metric(&format!("{name}_aborted_unavailable"), unavail as f64);
        rec.metric(&format!("{name}_stale_retries"), stale as f64);
        if let Some(t) = reconfig_t {
            rec.metric(&format!("{name}_reconfig_committed_t"), t as f64);
        }
        rec.section(&format!("telemetry_{name}"), telemetry.to_json());
    }

    // Availability comes back only through reconfiguration: with the
    // policy off, no transaction commits after the loss under either
    // mechanism; with it on, both resume — and hybrid resumes onto
    // strictly cheaper Write quorums (section 1).
    for mech in ["hybrid", "static"] {
        assert_eq!(
            after_counts[&format!("{mech}_off")],
            0,
            "{mech} without reconfiguration must stay unavailable"
        );
        assert!(
            after_counts[&format!("{mech}_on")] > 0,
            "{mech} with reactive reconfiguration must recover"
        );
    }
    println!(
        "\n  Shape check: with reconfiguration off, commits stop at the site\n\
         \x20 loss and never resume; the reactive policy installs epoch 1 over\n\
         \x20 the survivors and commits resume — onto (Read=1, Write=1, Seal=4)\n\
         \x20 under hybrid, while static is forced to Write=4 of 4."
    );
    rec.finish();
    Ok(())
}
