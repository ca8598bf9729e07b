//! **Experiment R2** — self-healing under crashes: kill a repository
//! under load on every host, and gate that the run *recovers* rather
//! than merely survives.
//!
//! Three phases, strongest oracle first: two in virtual time on the
//! simulator (the one stepping loop, `host::run`, over the in-memory
//! loopback), one over real sockets.
//!
//! 1. **DES** — a 5-site Queue cluster per mode with a volatile (WAL)
//!    repository crashed mid-run, the self-healing reconfiguration
//!    policy, and the frontier-repair retransmitter on. Gates: the
//!    safety oracle, a grow-epoch rejoin, at least one recovery, a
//!    stalled-then-repaired durable-GC frontier (`statuses_gcd > 0`
//!    despite the crash swallowing `ResolveAck`s), and retransmits
//!    actually firing. Full [`RunTelemetry`] per mode is embedded in the
//!    JSON — the runs are deterministic, so the artifact is
//!    byte-identical at every `--threads` count.
//! 2. **Scripted crash** — a long crash window on a microsecond-scale
//!    tick (the socket harness's unit) and no reconfiguration. The run is
//!    deterministic, so like phase 1 it gates exact counts (commits,
//!    recoveries) and embeds its full [`RunTelemetry`].
//! 3. **Event loop** — the real-socket harness ([`run_load`]) with a
//!    lossy fault profile, supervised reconnecting links, and a scripted
//!    kill/restart of one repository per cell. Gates: every client
//!    finishes, the durable frontier repairs (`statuses_gcd > 0`,
//!    retransmits and stall detections nonzero), the victim recovers,
//!    and post-recovery goodput reaches ≥ 80% of a matched no-crash
//!    control run over the same wall-clock window (or the workload
//!    drains entirely right after recovery — the stronger outcome).
//!    Rates are printed to stdout only; the JSON keeps the asserted
//!    booleans so it stays byte-stable.
//!
//! [`RunTelemetry`]: quorumcc_replication::RunTelemetry

use quorumcc_adts::queue::QueueInv;
use quorumcc_adts::Queue;
use quorumcc_bench::{experiment_bounds, section, threads_from_args, write_artifact};
use quorumcc_core::parallel::map_indexed;
use quorumcc_net::{run_load, CrashSpec, LoadConfig, LoadReport, NetFaultProfile};
use quorumcc_replication::cluster::{ProtocolConfig, RunBuilder};
use quorumcc_replication::protocol::{Mode, Protocol};
use quorumcc_replication::{Durability, ObjId, ReconfigPolicy, Transaction, TuningConfig};
use quorumcc_sim::{FaultPlan, Json, SimTime};
use std::time::Duration;

const BASE_SEED: u64 = 20_260;
const N_SITES: u32 = 5;
/// Crashed repository (virtual-time phases).
const VICTIM: u32 = 1;

/// `mode` under its minimal relation (majority thresholds satisfy any
/// well-formed relation — same convention as the backend tests).
fn protocol(mode: Mode) -> Protocol {
    Protocol::minimal::<Queue>(mode, experiment_bounds())
}

/// Enq-only, one private object per client: commutative *and*
/// conflict-free (dynamic-2pl takes per-object locks, so shared objects
/// would measure lock churn, not crash handling). Long enough (txns x
/// think time) that clients are still running after the rejoin installs
/// — the frontier piggyback and the retransmit timer both need live
/// traffic to finish the repair.
fn workload(clients: u16, txns: usize) -> Vec<Vec<Transaction<QueueInv>>> {
    (0..clients)
        .map(|c| {
            (0..txns)
                .map(|k| Transaction {
                    ops: vec![(ObjId(c), QueueInv::Enq(k as u32))],
                })
                .collect()
        })
        .collect()
}

fn des_phase(threads: usize) -> Json {
    section("1. DES: crash + self-healing rejoin + frontier repair, all modes");
    let modes = [Mode::StaticTs, Mode::Hybrid, Mode::Dynamic2pl];
    let items: Vec<Mode> = modes.to_vec();
    let results = map_indexed(threads, &items, |_, &mode| {
        let mut faults = FaultPlan::none();
        // Down for 800 ticks mid-run: long enough that the 150-tick
        // retransmitter observes a stalled frontier several times.
        faults.crash(VICTIM, 400, 1_200);
        let w = workload(4, 40);
        let total: usize = w.iter().map(Vec::len).sum();
        let report = RunBuilder::<Queue>::new(N_SITES)
            .protocol(ProtocolConfig::new(protocol(mode)).op_timeout(60))
            .faults(faults)
            .seed(BASE_SEED)
            .workload(w)
            .tuning(
                TuningConfig::default()
                    .think_time(30)
                    .anti_entropy(200)
                    .durability(Durability::Volatile { wal: true })
                    .scoped_statuses()
                    .status_gc(2)
                    .resolve_retransmit(150),
            )
            .reconfig(ReconfigPolicy::SelfHealing {
                detect_delay: 100,
                heartbeat: 100,
                clean_heartbeats: 3,
                priority: vec!["Enq", "Deq"],
            })
            .max_time(20_000)
            .run()
            .unwrap_or_else(|e| panic!("{mode:?}: DES run failed: {e}"));
        report
            .check_atomicity(experiment_bounds())
            .unwrap_or_else(|o| panic!("{mode:?}: non-atomic history on {o}"));
        (total, report.stats().committed, report.telemetry().clone())
    });
    println!(
        "  {:>11} | {:>9} | {:>6} | {:>7} | {:>9} | {:>7} | {:>7}",
        "mode", "committed", "recov", "rejoins", "gc'd", "retrans", "stalls"
    );
    let mut by_mode = Json::object();
    for (mode, (total, committed, t)) in modes.iter().zip(&results) {
        println!(
            "  {:>11} | {:>5}/{:<3} | {:>6} | {:>7} | {:>9} | {:>7} | {:>7}",
            mode.name(),
            committed,
            total,
            t.recoveries,
            t.rejoins,
            t.statuses_gcd,
            t.resolve_ack_retransmits,
            t.frontier_stalls,
        );
        let name = mode.name();
        assert!(
            *committed * 10 >= *total * 8,
            "{name}: only {committed}/{total} committed with 4/5 sites up"
        );
        assert!(t.recoveries >= 1, "{name}: the victim never recovered");
        assert!(t.rejoins >= 1, "{name}: no grow-epoch rejoin installed");
        assert!(
            t.statuses_gcd > 0,
            "{name}: durable-GC frontier never advanced (repair failed)"
        );
        assert!(
            t.resolve_ack_retransmits >= 1,
            "{name}: frontier repair never retransmitted"
        );
        assert!(
            t.frontier_stalls >= 1,
            "{name}: crash never stalled the frontier (shape too easy)"
        );
        by_mode = by_mode.field(name, t.to_json());
    }
    println!("  safety oracle: OK in every mode; rejoin + frontier repair observed");
    by_mode
}

fn scripted_crash_phase() -> Json {
    section("2. Scripted crash window, no reconfiguration");
    // Virtual ticks: the victim is dark from tick 50 000 to 150 000 of a
    // run that 40 txns x 5 000 ticks of think time keep busy past the
    // window end, so the recovery fires while clients still run.
    let mut faults = FaultPlan::none();
    faults.crash(VICTIM, 50_000, 150_000);
    let mode = Mode::Hybrid;
    let w = workload(3, 40);
    let total: usize = w.iter().map(Vec::len).sum();
    let report = RunBuilder::<Queue>::new(N_SITES)
        .protocol(ProtocolConfig::new(protocol(mode)).op_timeout(30_000))
        .faults(faults)
        .seed(BASE_SEED + 1)
        .workload(w)
        .tuning(
            TuningConfig::default()
                .think_time(5_000)
                .anti_entropy(20_000)
                .durability(Durability::Volatile { wal: true })
                .scoped_statuses()
                .status_gc(2)
                .resolve_retransmit(25_000),
        )
        .max_time(400_000)
        .run()
        .unwrap_or_else(|e| panic!("scripted-crash run failed: {e}"));
    report
        .check_atomicity(experiment_bounds())
        .unwrap_or_else(|o| panic!("scripted crash: non-atomic history on {o}"));
    let committed = report.stats().committed;
    let t = report.telemetry();
    println!(
        "  {}: {committed}/{total} committed, {} recoveries, {} retransmits, {} statuses gc'd",
        mode.name(),
        t.recoveries,
        t.resolve_ack_retransmits,
        t.statuses_gcd
    );
    assert_eq!(
        committed, total,
        "scripted crash: Enq-only leaves no conflicts"
    );
    assert_eq!(t.recoveries, 1, "scripted crash: the window must fire once");
    Json::object().field(mode.name(), t.to_json())
}

struct LoadShape {
    clients: usize,
    clusters: usize,
    txns_per_client: usize,
    // Per-op cost in the harness grows with per-object log length
    // (compaction is off), so the object count is sized to keep logs
    // short rather than to create contention — the workload is
    // conflict-free either way.
    objects: u16,
    crash_at_ms: u64,
    crash_down_ms: u64,
}

fn load_shape(quick: bool) -> LoadShape {
    if quick {
        LoadShape {
            clients: 24,
            clusters: 1,
            txns_per_client: 240,
            objects: 256,
            crash_at_ms: 400,
            crash_down_ms: 400,
        }
    } else {
        LoadShape {
            clients: 96,
            clusters: 4,
            txns_per_client: 480,
            objects: 256,
            crash_at_ms: 800,
            crash_down_ms: 800,
        }
    }
}

/// Commits per tick over `[from, to)` of the sorted commit series.
fn rate(ticks: &[SimTime], from: SimTime, to: SimTime) -> f64 {
    if to <= from {
        return 0.0;
    }
    let n = ticks.partition_point(|&t| t < to) - ticks.partition_point(|&t| t < from);
    n as f64 / (to - from) as f64
}

fn eventloop_phase(quick: bool) -> Json {
    section("3. Event loop: lossy sockets + kill/restart under load");
    let sh = load_shape(quick);
    let mode = Mode::Hybrid;
    let cfg = LoadConfig {
        mode,
        relation: protocol(mode).rel().clone(),
        clusters: sh.clusters,
        n_repos: 3,
        clients: sh.clients,
        txns_per_client: sh.txns_per_client,
        ops_per_txn: 1,
        objects: sh.objects,
        workers: 2,
        seed: BASE_SEED + 2,
        op_timeout_ticks: 2_000_000,
        narrow: false,
        deq_fraction: 0.0,
        ramp: Duration::from_millis(0),
        deadline: Duration::from_secs(if quick { 120 } else { 300 }),
        scoped_statuses: true,
        status_gc: Some(4),
        fault_profile: NetFaultProfile::lossy(BASE_SEED + 2),
        // Paced well above per-op service latency: an aggressive period
        // (50 ms here) re-sends the whole dark-window backlog every
        // sweep and congests the event loop into a retransmission storm
        // that outlives the crash (DESIGN §3.17).
        resolve_retransmit: Some(250_000),
        crash: Some(CrashSpec {
            repo: 2,
            at_ms: sh.crash_at_ms,
            down_ms: sh.crash_down_ms,
        }),
        ..LoadConfig::default()
    };
    let report: LoadReport = run_load(&cfg);
    let total = sh.clients * sh.txns_per_client;
    println!(
        "  {} committed {}/{} ({} unfinished)  reconnects {}  replayed {}  \
         retransmits {}  stalls {}  gc'd {}  recoveries {}",
        report.mode,
        report.committed,
        total,
        report.unfinished,
        report.reconnects,
        report.retransmit_frames,
        report.resolve_ack_retransmits,
        report.frontier_stalls,
        report.statuses_gcd,
        report.recoveries,
    );
    assert_eq!(report.unfinished, 0, "clients abandoned at the deadline");
    assert!(
        report.committed * 10 >= total * 9,
        "only {}/{total} committed (Enq-only leaves no conflicts)",
        report.committed
    );
    assert!(
        report.recoveries >= sh.clusters as u64,
        "scripted crash never recovered in some cell"
    );
    assert!(
        report.frontier_stalls >= 1,
        "the crash never stalled the durable frontier"
    );
    assert!(
        report.resolve_ack_retransmits >= 1,
        "frontier repair never retransmitted"
    );
    assert!(
        report.statuses_gcd > 0,
        "durable GC never ran — the frontier repair failed"
    );

    // Goodput recovery: commits/tick after the victim is back and the
    // links have resettled, against a matched control run (same shape,
    // same lossy profile, no crash) over the same wall-clock window.
    // The harness's absolute rate decays with total actions applied, so
    // comparing against the run's own pre-crash burst would conflate
    // that drift with the crash; the control isolates the crash cost.
    // Draining the whole workload right after recovery is the stronger
    // outcome and also passes. Wall-clock rates go to stdout only.
    let control: LoadReport = run_load(&LoadConfig { crash: None, ..cfg });
    assert_eq!(control.unfinished, 0, "control run abandoned clients");
    let crash_end = (sh.crash_at_ms + sh.crash_down_ms) * 1_000;
    let settle = crash_end + 150_000;
    // Average each run's rate over its whole post-settle tail (settle
    // until that run drains) rather than a fixed window: a short window
    // leaves the ratio hostage to one scheduling burst, while the full
    // tail averages over every remaining commit.
    let tail = |ticks: &[SimTime]| -> Option<f64> {
        let last = *ticks.last()?;
        (last > settle).then(|| rate(ticks, settle, last))
    };
    let post = tail(&report.commit_ticks);
    let post_ctl = tail(&control.commit_ticks);
    let (drained, ratio) = match (post, post_ctl) {
        // Either run finishing before the settle point is the strongest
        // outcome on its side: crashed-drained passes outright, and a
        // drained control leaves nothing to normalize against.
        (None, _) | (_, None) => (true, 1.0),
        (Some(p), Some(c)) => (false, p / c),
    };
    println!(
        "  goodput from {}ms to drain: crashed {:.1} txn/ms vs control {:.1} txn/ms ({})",
        settle / 1_000,
        post.unwrap_or(0.0) * 1_000.0,
        post_ctl.unwrap_or(0.0) * 1_000.0,
        if drained {
            "workload drained post-recovery".to_string()
        } else {
            format!("ratio {ratio:.2}")
        }
    );
    assert!(
        drained || ratio >= 0.8,
        "goodput after recovery fell to {ratio:.2} of the no-crash control"
    );
    let shape = Json::object()
        .field("clients", sh.clients)
        .field("cells", sh.clusters)
        .field("txns_per_client", sh.txns_per_client);
    Json::object()
        .field("shape", shape)
        .field("unfinished_zero", true)
        .field("recovered", true)
        .field("frontier_repaired", true)
        .field("goodput_recovered", true)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = threads_from_args();

    let doc = Json::object()
        .field("experiment", "exp_recovery")
        .field("des", des_phase(threads))
        .field("scripted_crash", scripted_crash_phase())
        .field("eventloop", eventloop_phase(quick));
    write_artifact("exp_recovery", &doc)?;
    Ok(())
}
