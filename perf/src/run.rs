//! The run modes: one workload (`--workload`, the contract the benchmark
//! driver calls), every workload (`--all`) and `compare`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use quorumcc_adts::queue::QueueInv;
use quorumcc_adts::Queue;
use quorumcc_core::DependencyRelation;
use quorumcc_model::ActionId;
use quorumcc_net::LoadConfig;
use quorumcc_replication::protocol::Mode;
use quorumcc_replication::types::VersionedLog;
use quorumcc_replication::Protocol;
use quorumcc_sim::Timestamp;

use crate::json::{object, Json};
use crate::metrics::{
    check_complete, iqr, median, quantile, to_json, Metric, Values, END_TO_END, PER_LAYER,
};
use crate::replay::{replay, Replay};
use crate::sock::{self, Round};
use crate::workload::{dynamic_relation, find, setup, Shape, WORKLOADS};

/// Options of one run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
}

/// What one run hands back: the result line's fields.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub values: Values,
}

impl Outcome {
    /// The one-line JSON result the driver reads.
    pub fn result_line(&self, table: &[Metric]) -> String {
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted,
            self.failed,
            to_json(table, &self.values)
        )
    }
}

/// How often set-up is repeated: once before each of the first rounds, so
/// the samples spread over several seconds of a machine whose speed changes
/// from one second to the next.
const SETUPS: usize = 9;

fn shape_for(name: &str, quick: bool) -> Result<Shape, String> {
    let shape = *find(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?} (expected one of {names:?})")
    })?;
    Ok(if quick { shape.quick() } else { shape })
}

fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

/// The better quartile of repeated measurements: the value a quarter of
/// them beat. Whatever else runs on the host only ever makes a repetition
/// slower, so the better side of the distribution is the steady one: cut
/// into 24 s windows, a ten-minute recording of `sock_shallow` rounds
/// spread 0.06 to 0.08 of the median under this statistic and 0.08 to 0.13
/// under the median over rounds (README, *Noise*).
fn better_quartile(samples: &[f64], higher_is_better: bool) -> f64 {
    quantile(samples, if higher_is_better { 0.75 } else { 0.25 })
}

/// CPU time per committed transaction, one sample per span of consecutive
/// rounds that used at least a quarter of a second of CPU: the kernel
/// counts in 10 ms ticks, so a shorter span reads to worse than 4 %. A
/// full-size round is a span of its own (0.6 s of CPU on `sock_lossy`,
/// more on the others); `--quick` rounds pool.
fn cpu_us_per_txn(rounds: &[Round]) -> Vec<f64> {
    const SPAN_US: f64 = 250_000.0;
    let mut samples = Vec::new();
    let (mut cpu_us, mut txns) = (0.0, 0);
    for (i, r) in rounds.iter().enumerate() {
        cpu_us += r.cpu_us;
        txns += r.committed;
        // The last rounds, short of a span, still make the only sample of
        // a short run.
        if cpu_us >= SPAN_US || (samples.is_empty() && i + 1 == rounds.len()) {
            samples.push(cpu_us / txns as f64);
            (cpu_us, txns) = (0.0, 0);
        }
    }
    samples
}

/// The end-to-end run: socket rounds with tracing off for `seconds`, with
/// set-up timed again before each of the first [`SETUPS`] rounds. Every
/// metric is the [`better_quartile`] of its repetitions.
///
/// # Errors
/// A failed correctness check, described.
pub fn end_to_end(name: &str, opts: &Opts) -> Result<Outcome, String> {
    let shape = shape_for(name, opts.quick)?;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut relation = None;
    let rounds = sock::rounds(Duration::from_secs(opts.seconds), opts.seed, |seed| {
        if setups.len() < SETUPS {
            let (made, took) = setup();
            setups.push(took.as_secs_f64());
            relation = Some(made);
        }
        let relation = relation.as_ref().expect("set up before the first round");
        shape.config(Mode::Hybrid, relation, seed)
    })?;
    let over_rounds = |higher_is_better: bool, f: &dyn Fn(&Round) -> f64| {
        better_quartile(&rounds.iter().map(f).collect::<Vec<_>>(), higher_is_better)
    };
    let mut values = Values::new();
    values.insert("txn_per_s", over_rounds(true, &|r| r.txn_per_s));
    values.insert("p50_ms", over_rounds(false, &|r| r.p50_ms));
    values.insert("p90_ms", over_rounds(false, &|r| r.p90_ms));
    values.insert("p99_ms", over_rounds(false, &|r| r.p99_ms));
    values.insert(
        "cpu_us_per_txn",
        better_quartile(&cpu_us_per_txn(&rounds), false),
    );
    values.insert("setup_s", better_quartile(&setups, false));
    check_complete(END_TO_END, &values)?;
    let attempted: usize = rounds.iter().map(|r| r.attempted).sum();
    let committed: usize = rounds.iter().map(|r| r.committed).sum();
    Ok(Outcome {
        attempted,
        failed: attempted - committed,
        values,
    })
}

/// Median wall time of `f` over `reps` calls, microseconds.
fn time_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// `replication.types` and `replication.protocol` timed standalone on the
/// longest log the replay produced.
fn standalone(rep: &Replay, relation: &DependencyRelation, values: &mut Values) {
    const REPS: usize = 15;
    let log = &rep.longest_log;
    // A view write-back: merging a log into a copy that already holds it.
    let mut copies: Vec<_> = (0..REPS).map(|_| log.clone()).collect();
    values.insert(
        "types.merge_us_at_max",
        time_us(REPS, || copies.pop().expect("one copy per rep").merge(log)),
    );
    let mut served = VersionedLog::new();
    served.merge(log);
    // The reply to a reader two changes behind.
    let since = served.version().saturating_sub(2);
    values.insert(
        "types.delta_tail_us_at_max",
        time_us(REPS, || served.delta_since(since)),
    );
    // A reader fenced into a full transfer (every status GC fences them).
    let full = served.delta_since(0);
    values.insert(
        "types.apply_delta_us_at_max",
        time_us(REPS, || {
            let mut mirror = VersionedLog::new();
            mirror.apply_delta(&full)
        }),
    );
    let protocol = Protocol::new(Mode::Hybrid, relation.clone());
    let late = Timestamp {
        counter: u64::MAX,
        node: u32::MAX,
    };
    values.insert(
        "protocol.evaluate_us_at_max",
        time_us(REPS, || {
            protocol.evaluate::<Queue>(log, &[], ActionId(u32::MAX), late, &QueueInv::Deq)
        }),
    );
}

/// The replay's counts — every metric marked `exact` in [`PER_LAYER`].
/// They repeat bit for bit at a given seed because the replay is single
/// threaded on a virtual clock.
pub fn exact_values(rep: &Replay) -> Values {
    let n = rep.committed as f64;
    let (w, r) = (&rep.wire, &rep.repo);
    Values::from([
        ("wire.msgs_per_txn", w.msgs as f64 / n),
        ("wire.bytes_per_txn", w.bytes as f64 / n),
        (
            "wire.logreply_bytes_avg",
            w.logreply_bytes as f64 / w.logreply_msgs.max(1) as f64,
        ),
        (
            "wire.writelog_bytes_avg",
            w.writelog_bytes as f64 / w.writelog_msgs.max(1) as f64,
        ),
        ("tcp.frames_per_txn", w.frames as f64 / n),
        (
            "repo.statuses_shipped_per_txn",
            r.statuses_shipped as f64 / n,
        ),
        ("repo.statuses_gcd_per_txn", r.statuses_gcd as f64 / n),
        ("repo.status_table_peak", r.status_table_peak as f64),
        ("repo.full_log_fallbacks", r.full_log_fallbacks as f64),
        ("client.attempts_per_commit", rep.attempts as f64 / n),
        ("client.phase_retries_per_txn", rep.phase_retries as f64 / n),
        ("types.log_len_max", rep.longest_log.len() as f64),
        ("trace.spans_per_txn", rep.tracer.spans().len() as f64 / n),
    ])
}

/// Where the span file of `workload` goes: beside the build's own
/// outputs, `<target dir>/perf/trace_<workload>.jsonl`.
fn trace_path(workload: &str) -> PathBuf {
    let target = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("perf").join(format!("trace_{workload}.jsonl"))
}

/// Total transactions of one point of the closed-loop curve.
const CURVE_TXNS: usize = 1024;

/// The traced run: socket rounds for a third of `seconds` (the `net.load`
/// and `net.fault` rows), the closed-loop curve, the other two modes, then
/// the replay twice — spans off, spans on — for the ledger.
///
/// # Errors
/// A failed correctness check, described.
pub fn per_layer(name: &str, opts: &Opts) -> Result<Outcome, String> {
    let shape = shape_for(name, opts.quick)?;
    let (relation, relation_took) = setup();
    let cfg_for = |seed: u64| shape.config(Mode::Hybrid, &relation, seed);
    let mut values = Values::new();
    values.insert("core.relation_s", relation_took.as_secs_f64());

    let budget = Duration::from_millis(opts.seconds * 1000 / 3);
    let rounds = sock::rounds(budget, opts.seed, cfg_for)?;
    let mut attempted: usize = rounds.iter().map(|r| r.attempted).sum();
    let mut committed: usize = rounds.iter().map(|r| r.committed).sum();
    let socket_txns = committed as f64;
    let per_txn = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).sum::<f64>() / socket_txns;
    values.insert("client.fail_ratio", 1.0 - socket_txns / attempted as f64);
    values.insert("load.sys_us_per_txn", per_txn(&|r| r.sys_us));
    values.insert(
        "load.max_commit_gap_ms",
        median_of(&rounds, |r| r.max_commit_gap_ms),
    );
    values.insert("load.peak_rss_mb", median_of(&rounds, |r| r.peak_rss_mb));
    values.insert(
        "fault.reconnects",
        median_of(&rounds, |r| r.report.reconnects as f64),
    );
    values.insert(
        "fault.retransmit_frames_per_txn",
        per_txn(&|r| r.report.retransmit_frames as f64),
    );
    values.insert(
        "fault.resolve_ack_retransmits_per_txn",
        per_txn(&|r| r.report.resolve_ack_retransmits as f64),
    );
    values.insert(
        "fault.frontier_stalls",
        median_of(&rounds, |r| r.report.frontier_stalls as f64),
    );
    values.insert(
        "fault.recoveries",
        median_of(&rounds, |r| r.report.recoveries as f64),
    );
    if shape.faults && !opts.quick && values["fault.recoveries"] != 1.0 {
        return Err(format!(
            "the scripted crash recovered {} times per round, not once",
            values["fault.recoveries"]
        ));
    }
    let cpu_us_per_txn = per_txn(&|r| r.cpu_us);

    // The closed-loop curve, always on the shallow shape: where
    // throughput stops rising with concurrency, and what latency costs.
    let shallow = shape_for("sock_shallow", false)?;
    let curve_txns = if opts.quick {
        CURVE_TXNS / 16
    } else {
        CURVE_TXNS
    };
    for (clients, tps, p99) in [
        (1, "load.curve.c1.txn_per_s", "load.curve.c1.p99_ms"),
        (4, "load.curve.c4.txn_per_s", "load.curve.c4.p99_ms"),
        (16, "load.curve.c16.txn_per_s", "load.curve.c16.p99_ms"),
        (64, "load.curve.c64.txn_per_s", "load.curve.c64.p99_ms"),
    ] {
        let point = Shape {
            clients,
            txns_per_client: curve_txns / clients,
            ..shallow
        };
        let r = sock::round(&point.config(Mode::Hybrid, &relation, opts.seed))?;
        values.insert(tps, r.txn_per_s);
        values.insert(p99, r.p99_ms);
    }

    // Static and dynamic atomicity on a quarter of the Deq workload, so a
    // mode-specific regression cannot hide behind the hybrid headline.
    let mixed = shape_for("sock_mixed", opts.quick)?;
    let quarter = Shape {
        txns_per_client: (mixed.txns_per_client / 4).max(2),
        ..mixed
    };
    let dynamic = dynamic_relation(&relation);
    for (mode, relation, tps, fail) in [
        (
            Mode::StaticTs,
            &relation,
            "mode.static.txn_per_s",
            "mode.static.fail_ratio",
        ),
        (
            Mode::Dynamic2pl,
            &dynamic,
            "mode.dynamic.txn_per_s",
            "mode.dynamic.fail_ratio",
        ),
    ] {
        let r = sock::round(&quarter.config(mode, relation, opts.seed))?;
        values.insert(tps, r.txn_per_s);
        values.insert(fail, 1.0 - r.committed as f64 / r.attempted as f64);
    }

    // The ledger: the same seeded round, replayed in process.
    let cfg: LoadConfig = cfg_for(opts.seed);
    let plain = replay(&cfg, false)?;
    let traced = replay(&cfg, true)?;
    if (plain.wire, plain.committed) != (traced.wire, traced.committed) {
        return Err("two replays of one seed disagree".into());
    }
    attempted += traced.attempted;
    committed += traced.committed;
    let n = traced.committed as f64;
    let own = traced.tracer.self_times();
    let us_per_txn = |span: &str| own.get(span).copied().unwrap_or(0) as f64 / 1e3 / n;
    for (metric, span) in [
        ("wire.encode_us_per_txn", "wire.encode"),
        ("wire.decode_us_per_txn", "wire.decode"),
        ("tcp.write_frame_us_per_txn", "tcp.write_frame"),
        ("tcp.drain_frames_us_per_txn", "tcp.drain_frames"),
        ("tcp.read_frame_us_per_txn", "tcp.read_frame"),
        ("repo.readlog_us_per_txn", "repo.readlog"),
        ("repo.writelog_us_per_txn", "repo.writelog"),
        ("repo.resolve_us_per_txn", "repo.resolve"),
        ("client.logreply_us_per_txn", "client.logreply"),
        ("client.writeack_us_per_txn", "client.writeack"),
        ("client.resolveack_us_per_txn", "client.resolveack"),
        ("client.tick_us_per_txn", "client.tick"),
    ] {
        values.insert(metric, us_per_txn(span));
    }
    // Every span but the replay host's own turns is a call into a layer;
    // the few with no row of their own (`client.start`, `*.other`) still
    // belong to the sum.
    let ledger: f64 = own
        .keys()
        .filter(|span| **span != "host.turn")
        .map(|span| us_per_txn(span))
        .sum();
    values.insert("load.ledger_us_per_txn", ledger);
    values.insert("load.unattributed_us_per_txn", cpu_us_per_txn - ledger);
    values.insert("trace.host_us_per_txn", us_per_txn("host.turn"));
    values.insert(
        "trace.overhead_ratio",
        traced.wall.as_secs_f64() / plain.wall.as_secs_f64(),
    );
    values.extend(exact_values(&traced));
    standalone(&traced, &relation, &mut values);
    check_complete(PER_LAYER, &values)?;
    traced
        .tracer
        .write_jsonl(&trace_path(shape.name))
        .map_err(|e| format!("writing the span file: {e}"))?;
    Ok(Outcome {
        attempted,
        failed: attempted - committed,
        values,
    })
}

// ---------------------------------------------------------------------
// `--all`: every workload, each run in its own process
// ---------------------------------------------------------------------

/// Options of `--all`.
#[derive(Debug, Clone)]
pub struct AllOpts {
    pub run: Opts,
    /// Runs per workload and trace mode, on seeds `seed, seed + 1000, …`.
    pub runs: usize,
    /// Where to write the full result (and append a line to the history).
    pub json: Option<PathBuf>,
}

/// One metric over the runs of `--all`.
struct Series {
    unit: String,
    runs: Vec<f64>,
}

/// Re-executes this binary for one (workload, trace) pair and returns the
/// parsed result line.
fn child(workload: &str, trace: bool, opts: &Opts) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {workload} run failed with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    let result = Json::parse(line)?;
    if result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("the {workload} run reported incorrect outputs"));
    }
    Ok(result)
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Runs every workload with tracing off and on, each run in a process of
/// its own (so CPU time and peak RSS are per workload), prints every
/// metric as `workload metric value unit` and, with `--json`, writes the
/// full result and (at full size) appends one line to `history.jsonl`.
///
/// # Errors
/// The first run that failed.
pub fn all(opts: &AllOpts) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let loadavg = sock::loadavg_1m().unwrap_or(-1.0);
    if loadavg > 1.0 {
        eprintln!("warning: 1-minute load average is {loadavg} at start; timings will be noisy");
    }
    // workload -> section ("end_to_end" / "per_layer") -> metric -> series
    let mut results: Vec<(&str, [BTreeMap<String, Series>; 2])> = Vec::new();
    for shape in &WORKLOADS {
        let mut sections = [BTreeMap::new(), BTreeMap::new()];
        for i in 0..opts.runs.max(1) {
            let run = Opts {
                seed: opts.run.seed.wrapping_add(1000 * i as u64),
                ..opts.run.clone()
            };
            for (trace, section) in sections.iter_mut().enumerate() {
                let result = child(shape.name, trace == 1, &run)?;
                let metrics = result
                    .get("metrics")
                    .and_then(Json::as_obj)
                    .ok_or("the run's result has no metrics")?;
                for (name, m) in metrics {
                    let value = m.get("value").and_then(Json::as_f64);
                    let unit = m.get("unit").and_then(Json::as_str);
                    let (Some(value), Some(unit)) = (value, unit) else {
                        return Err(format!("metric {name} has no value or unit"));
                    };
                    section
                        .entry(name.clone())
                        .or_insert_with(|| Series {
                            unit: unit.to_string(),
                            runs: Vec::new(),
                        })
                        .runs
                        .push(value);
                }
            }
        }
        for table in &sections {
            for (name, s) in table {
                println!("{} {name} {} {}", shape.name, median(&s.runs), s.unit);
            }
        }
        results.push((shape.name, sections));
    }
    let Some(path) = &opts.json else {
        return Ok(());
    };
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let head = [
        ("commit", format!("\"{}\"", git_commit())),
        ("unix_time", unix_time.to_string()),
        ("nproc", nproc.to_string()),
        ("loadavg_1m", loadavg.to_string()),
        ("seconds", opts.run.seconds.to_string()),
        ("quick", opts.run.quick.to_string()),
        ("runs", opts.runs.max(1).to_string()),
    ];
    let section = |table: &BTreeMap<String, Series>| {
        object(table.iter().map(|(metric, s)| {
            let fields = [
                ("value", median(&s.runs).to_string()),
                ("unit", format!("\"{}\"", s.unit)),
                ("iqr", iqr(&s.runs).to_string()),
                ("runs", format!("{:?}", s.runs)),
            ];
            (metric.as_str(), object(fields))
        }))
    };
    let workloads = object(results.iter().map(|(name, [end_to_end, per_layer])| {
        let sections = [
            ("end_to_end", section(end_to_end)),
            ("per_layer", section(per_layer)),
        ];
        (*name, format!("\n{}", object(sections)))
    }));
    let full = object(head.iter().cloned().chain([("workloads", workloads)]));
    // The history keeps the trajectory in the tree: one line per run set,
    // end-to-end medians only.
    let medians = results.iter().map(|(name, [end_to_end, _])| {
        let values = end_to_end
            .iter()
            .map(|(metric, s)| (metric.as_str(), median(&s.runs).to_string()));
        (*name, object(values))
    });
    let history = object(head.iter().cloned().chain(medians)) + "\n";
    std::fs::write(path, full).map_err(|e| format!("writing {}: {e}", path.display()))?;
    if opts.run.quick {
        return Ok(());
    }
    let history_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("history.jsonl");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history_path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, history.as_bytes()))
        .map_err(|e| format!("appending to {}: {e}", history_path.display()))
}

// ---------------------------------------------------------------------
// `compare A.json B.json`
// ---------------------------------------------------------------------

/// Verdict on one (workload, end-to-end metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// Worse by more than the bound, but the runs of either side spread
    /// wider than the bound: not resolvable from these files.
    Unresolved,
}

/// Applies `m`'s bound to a parent (`a`) and a change (`b`), each a
/// median and the quartile spread of its runs.
pub fn judge(m: &Metric, a: (f64, f64), b: (f64, f64)) -> Verdict {
    let worse_by = if m.higher_is_better {
        (a.0 - b.0) / a.0
    } else {
        (b.0 - a.0) / a.0
    };
    if worse_by.is_nan() || worse_by <= m.bound {
        Verdict::Ok
    } else if a.1 / a.0 > m.bound || b.1 / b.0 > m.bound {
        Verdict::Unresolved
    } else {
        Verdict::Regressed
    }
}

/// Compares two `--all --json` files; returns whether any pair regressed.
///
/// # Errors
/// An unreadable or malformed file.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let load = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("reading {}: {e}", p.display()))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let (a, b) = (load(a)?, load(b)?);
    let cell = |file: &Json, workload: &str, metric: &str| -> Option<(f64, f64)> {
        let m = file
            .get("workloads")?
            .get(workload)?
            .get("end_to_end")?
            .get(metric)?;
        Some((m.get("value")?.as_f64()?, m.get("iqr")?.as_f64()?))
    };
    let mut regressed = false;
    for shape in &WORKLOADS {
        for m in END_TO_END {
            let (Some(pa), Some(pb)) = (cell(&a, shape.name, m.name), cell(&b, shape.name, m.name))
            else {
                return Err(format!("{} {} is missing from a file", shape.name, m.name));
            };
            let verdict = judge(m, pa, pb);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{:<10} {:<13} {:<15} {:>12.4} -> {:>12.4} {} ({:+.1}%, bound {:.0}%)",
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
                shape.name,
                m.name,
                pa.0,
                pb.0,
                m.unit,
                (pb.0 - pa.0) / pa.0 * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_the_bound_in_the_metrics_direction() {
        let tps = &END_TO_END[0];
        assert!(tps.higher_is_better && tps.name == "txn_per_s");
        assert_eq!(judge(tps, (1000.0, 10.0), (1200.0, 10.0)), Verdict::Ok);
        assert_eq!(judge(tps, (1000.0, 10.0), (900.0, 10.0)), Verdict::Ok);
        assert_eq!(
            judge(tps, (1000.0, 10.0), (700.0, 10.0)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(tps, (1000.0, 400.0), (700.0, 10.0)),
            Verdict::Unresolved
        );
        let p50 = &END_TO_END[1];
        assert!(!p50.higher_is_better);
        assert_eq!(judge(p50, (10.0, 0.1), (5.0, 0.1)), Verdict::Ok);
        assert_eq!(judge(p50, (10.0, 0.1), (14.0, 0.1)), Verdict::Regressed);
    }
}
