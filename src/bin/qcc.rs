//! `qcc` — the quorumcc command line.
//!
//! ```text
//! qcc relations <type>                 dependency relations + comparison
//! qcc certificates                     re-check the paper's theorems
//! qcc quorums <type> [opts]            optimal threshold assignment
//! qcc frontier <type> [opts]           Pareto frontier of quorum sizes
//! qcc simulate <type> [opts]           run a replicated cluster
//! qcc trace <type> [opts]              capture + filter a run trace
//! qcc reconfig <type> [opts]           replan quorums after a site loss
//! qcc chaos <type> [opts]              fuzz fault plans + safety oracle
//! qcc explore <type> [opts]            exhaust all interleavings (model check)
//! qcc types                            list available data types
//! ```
//!
//! `qcc types` lists the data types; a command given an option it does not
//! read lists the ones it does.

use quorumcc::core::{battery, certificates};
use quorumcc::model::{Classified, Enumerable};
use quorumcc::prelude::*;
use quorumcc::quorum::{availability, pareto, planner, threshold, SiteSet};
use quorumcc::replication::chaos::{self, ChaosConfig, ChaosPlan};
use quorumcc::replication::explore::{self as rexplore, ExploreSetup, ExploreSpec, Knob};
use quorumcc::replication::workload::{generate, WorkloadSpec};
use quorumcc::sim::explore::ExploreConfig;
use rand::Rng;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

fn bounds() -> ExploreBounds {
    ExploreBounds {
        depth: 4,
        max_states: 4_096,
        budget: 5_000_000,
    }
}

/// Parsed `--key value` options. A subcommand declares its options by
/// reading them: every lookup is remembered with the default it falls back
/// to, and [`Opts::finish`] rejects whatever was given but never asked for
/// — listing what was.
struct Opts {
    given: HashMap<String, String>,
    /// `(key, default)` in reading order; `""` where there is no default.
    read: RefCell<Vec<(String, String)>>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let mut given = HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument: {a}"));
            };
            let Some(v) = it.next() else {
                return Err(format!("--{key} needs a value"));
            };
            // Keeping the last of a repeated option would report numbers
            // for a configuration the user did not ask for.
            if given.insert(key.to_string(), v.clone()).is_some() {
                return Err(format!("--{key} given more than once"));
            }
        }
        Ok(Opts {
            given,
            read: RefCell::default(),
        })
    }

    fn lookup(&self, key: &str, default: String) -> Option<&String> {
        let mut read = self.read.borrow_mut();
        if read.iter().all(|(k, _)| k != key) {
            read.push((key.to_string(), default));
        }
        self.given.get(key)
    }

    /// The raw value of `--key`, if given.
    fn raw(&self, key: &str) -> Option<&String> {
        self.lookup(key, String::new())
    }

    fn parsed<T: FromStr>(key: &str, v: &String) -> Result<T, String> {
        v.parse().map_err(|_| format!("bad value for --{key}: {v}"))
    }

    /// `--key` parsed, if given.
    fn maybe<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.raw(key).map(|v| Self::parsed(key, v)).transpose()
    }

    fn get<T: FromStr + Display>(&self, key: &str, default: T) -> Result<T, String> {
        let given = self.lookup(key, default.to_string());
        given.map_or(Ok(default), |v| Self::parsed(key, v))
    }

    fn str(&self, key: &str, default: &str) -> String {
        let given = self.lookup(key, default.to_string());
        given.map_or(default, String::as_str).to_string()
    }

    /// Rejects options the subcommand never read; each command calls this
    /// once its configuration is built and before it does any work. A
    /// typo'd or stale flag (say `--batch` on `qcc quorums`) is an error,
    /// not a silent ignore — silently dropping a tuning knob would report
    /// numbers for a configuration the user never asked for. The error
    /// lists the options the command did read, each with its default
    /// (bracketed where there is none), so no second list of them is kept.
    fn finish(&self) -> Result<(), String> {
        let read = self.read.borrow();
        let mut unknown: Vec<&str> = (self.given.keys().map(String::as_str))
            .filter(|k| read.iter().all(|(r, _)| r != k))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        unknown.sort_unstable();
        let s = if unknown.len() == 1 { "" } else { "s" };
        // The planted-bug switches stay undocumented.
        let mut reads: Vec<String> = (read.iter())
            .filter(|(key, _)| !key.starts_with("unsound-"))
            .map(|(key, default)| match default.as_str() {
                "" => format!("[--{key}]"),
                default => format!("--{key} {default}"),
            })
            .collect();
        if reads.is_empty() {
            reads.push("no options".to_string());
        }
        Err(format!(
            "unknown option{s} for this command: --{}\nit reads: {}",
            unknown.join(" --"),
            reads.join(" ")
        ))
    }
}

/// `with_type!(name, f, args…)` runs `f::<S>(args…)` with the sequential
/// type `S` named by `name`; [`TYPES`] is the names. Both come from the
/// `@types` row, the one place a data type meets its command-line name.
macro_rules! with_type {
    (@types $($then:tt)*) => {
        with_type!($($then)* "queue" Queue, "prom" Prom, "flagset" FlagSet,
            "doublebuffer" DoubleBuffer, "register" Register, "counter" Counter,
            "account" Account, "gset" GSet, "directory" Directory, "appendlog" AppendLog)
    };
    (@names $($name:literal $ty:ident),*) => { &[$($name),*] };
    (@call $on:expr, $f:ident, $args:tt, $($name:literal $ty:ident),*) => {
        match $on {
            $($name => $f::<quorumcc_adts::$ty> $args,)*
            other => Err(format!("unknown type: {other} (try `qcc types`)")),
        }
    };
    ($on:expr, $f:ident, $($arg:expr),*) => {
        with_type!(@types @call $on, $f, ($($arg),*),)
    };
}

const TYPES: &[&str] = with_type!(@types @names);

/// `--relation static|hybrid|dynamic`: the relation the named mode runs
/// under, which `quorums`, `frontier` and `reconfig` plan against.
fn relation_from_opts<S: Enumerable + Classified>(
    opts: &Opts,
    default: &str,
) -> Result<(String, quorumcc::core::DependencyRelation), String> {
    let which = opts.str("relation", default);
    let rel = Protocol::minimal::<S>(which.parse()?, bounds())
        .rel()
        .clone();
    Ok((which, rel))
}

/// `--priority Read,Write`: the named operation classes of `S`, in the
/// type's own order (names match case-insensitively; others are ignored).
fn priority_from_opts<S: Classified>(opts: &Opts) -> Vec<&'static str> {
    let raw = opts.str("priority", "");
    let named = |op: &&str| raw.split(',').any(|p| p.trim().eq_ignore_ascii_case(op));
    S::op_classes().into_iter().filter(named).collect()
}

/// `--shards N --batch B`: the throughput engine's two sizes, both at
/// least 1.
fn shards_and_batch(opts: &Opts) -> Result<(u16, u32), String> {
    let shards: u16 = opts.get("shards", 1u16)?;
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    let batch: u32 = opts.get("batch", 1u32)?;
    if batch == 0 {
        return Err("--batch must be at least 1".to_string());
    }
    Ok((shards, batch))
}

fn cmd_relations<S: Enumerable + Classified>(opts: &Opts) -> Result<(), String> {
    opts.finish()?;
    let report = battery::report::<S>(bounds());
    print!("{report}");
    Ok(())
}

fn cmd_quorums<S: Enumerable + Classified>(opts: &Opts) -> Result<(), String> {
    let n: u32 = opts.get("sites", 5u32)?;
    let (which, rel) = relation_from_opts::<S>(opts, "static")?;
    let priority = priority_from_opts::<S>(opts);
    opts.finish()?;
    let ops = S::op_classes();
    let evs = S::event_classes();
    let ta = threshold::optimize(&rel, n, &ops, &evs, &priority).map_err(|e| e.to_string())?;
    println!("relation ({which}):");
    for line in rel.table().lines() {
        println!("  {line}");
    }
    println!("\noptimal thresholds over {n} sites:");
    print!("{ta}");
    println!("\neffective quorum sizes and availability (p = 0.9):");
    for op in &ops {
        let size = ta.op_size_worst(op, &evs);
        let avail =
            availability::op_availability_worst(&ta, op, &evs, 0.9).map_err(|e| e.to_string())?;
        println!("  {op:>12}: {size} of {n}   availability {avail:.6}");
    }
    Ok(())
}

fn cmd_frontier<S: Enumerable + Classified>(opts: &Opts) -> Result<(), String> {
    let n: u32 = opts.get("sites", 5u32)?;
    let (which, rel) = relation_from_opts::<S>(opts, "static")?;
    opts.finish()?;
    let ops = S::op_classes();
    let evs = S::event_classes();
    let f = pareto::frontier(&rel, n, &ops, &evs);
    println!(
        "Pareto frontier of {:?} quorum sizes over {n} sites ({which}):",
        ops
    );
    for p in f {
        println!("  {p:?}");
    }
    Ok(())
}

/// `qcc reconfig <type>`: the planner's view of a site loss. Plans the
/// availability-optimal threshold assignment before the fault (over all
/// sites) and after it (over the survivors), and reports the change —
/// the command-line face of `ReconfigPolicy::Reactive`.
fn cmd_reconfig<S: Enumerable + Classified>(opts: &Opts) -> Result<(), String> {
    let n: u32 = opts.get("sites", 5u32)?;
    if n == 0 || n > 16 {
        return Err(format!("--sites must be in 1..=16, got {n}"));
    }
    let (which, rel) = relation_from_opts::<S>(opts, "hybrid")?;
    let ops = S::op_classes();
    let evs = S::event_classes();

    // --lost 4 or --lost 2,4: sites removed from the membership.
    let lost_raw = opts.str("lost", "");
    let mut lost: Vec<u8> = Vec::new();
    for part in lost_raw.split(',').filter(|p| !p.trim().is_empty()) {
        let id: u8 = part
            .trim()
            .parse()
            .map_err(|_| format!("bad value for --lost: {part}"))?;
        if u32::from(id) >= n {
            return Err(format!("--lost names site {id}, but --sites is {n}"));
        }
        lost.push(id);
    }
    if lost.is_empty() {
        lost.push((n - 1) as u8);
    }

    // --up 0.9 (homogeneous) applied to every surviving site.
    let p: f64 = opts.get("up", 0.9f64)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("--up must be a probability, got {p}"));
    }
    let up: Vec<f64> = (0..n)
        .map(|s| if lost.contains(&(s as u8)) { 0.0 } else { p })
        .collect();

    let priority = priority_from_opts::<S>(opts);
    opts.finish()?;

    let before = planner::plan(
        &rel,
        SiteSet::all(n as usize),
        &vec![p; n as usize],
        &ops,
        &evs,
        &priority,
    )
    .map_err(|e| e.to_string())?;
    let after = planner::replan(
        &rel,
        SiteSet::all(n as usize),
        SiteSet::from_ids(lost.iter().copied()),
        &up,
        &ops,
        &evs,
        &priority,
    )
    .map_err(|e| e.to_string())?;

    println!("relation ({which}), {n} sites, p(up) = {p}");
    println!("\nbefore the fault:");
    for line in before.to_string().lines() {
        println!("  {line}");
    }
    println!(
        "\nafter losing {}:",
        SiteSet::from_ids(lost.iter().copied())
    );
    for line in after.to_string().lines() {
        println!("  {line}");
    }
    println!("\nreplanned quorum sizes (worst case over response classes):");
    for op in &ops {
        let b = before.thresholds.op_size_worst(op, &evs);
        let a = after.thresholds.op_size_worst(op, &evs);
        let ba = before.availability_of(op).unwrap_or(0.0);
        let aa = after.availability_of(op).unwrap_or(0.0);
        println!(
            "  {op:>12}: {b} of {n} -> {a} of {}   availability {ba:.6} -> {aa:.6}",
            after.members.len()
        );
    }
    Ok(())
}

/// Builds the `RunBuilder` shared by `simulate` and `trace` from the
/// common command-line options.
fn builder_from_opts<S: Enumerable + Classified>(opts: &Opts) -> Result<RunBuilder<S>, String> {
    let (_, protocol) = protocol_from_opts::<S>(opts)?;
    let spec = WorkloadSpec {
        clients: opts.get("clients", 3usize)?,
        txns_per_client: opts.get("txns", 4usize)?,
        ops_per_txn: opts.get("ops", 2usize)?,
        objects: opts.get("objects", 1u16)?,
        seed: opts.get("seed", 0u64)?,
    };
    let alphabet = S::invocations();
    let workload = generate(spec, |rng| {
        alphabet[rng.gen_range(0..alphabet.len())].clone()
    });
    // --compact-logs true folds resolved prefixes into checkpoints;
    // --delta false ships full logs in every LogReply (the ablation).
    let mut tuning = TuningConfig::default();
    if opts.get("compact-logs", false)? {
        tuning = tuning.compact_logs();
    }
    if !opts.get("delta", true)? {
        tuning = tuning.full_log_shipping();
    }
    // The throughput engine: --shards N partitions the object space into
    // independently-quorumed shards, --batch B coalesces up to B payloads
    // per destination into one envelope (and sets the pipeline depth),
    // --batch-window W holds under-filled envelopes up to W ticks.
    let (shards, batch) = shards_and_batch(opts)?;
    tuning = tuning
        .shards(shards)
        .batch(batch)
        .batch_window(opts.get("batch-window", 0)?);
    Ok(RunBuilder::<S>::new(opts.get("sites", 3u32)?)
        .protocol(ProtocolConfig::new(protocol).txn_retries(opts.get("retries", 3u32)?))
        .tuning(tuning)
        .seed(spec.seed)
        .workload(workload))
}

fn cmd_simulate<S: Enumerable + Classified>(opts: &Opts) -> Result<(), String> {
    let builder = builder_from_opts::<S>(opts)?;
    opts.finish()?;
    let report = builder.run().map_err(|e| e.to_string())?;
    let t = report.stats();
    println!(
        "mode {}: committed {} / conflict aborts {} / unavailable {} / ops {}",
        report.protocol().mode(),
        t.committed,
        t.aborted_conflict,
        t.aborted_unavailable,
        t.ops_completed
    );
    let s = report.sim_stats();
    println!(
        "messages sent {} delivered {} dropped {}",
        s.sent, s.delivered, s.dropped
    );
    let tel = report.telemetry();
    println!(
        "log entries shipped {} ({:.2}/op)",
        tel.log_entries_shipped,
        tel.entries_shipped_per_op()
    );
    match report.check_atomicity(bounds()) {
        Ok(()) => println!("atomicity check: OK"),
        Err(o) => return Err(format!("atomicity VIOLATION on {o}")),
    }
    Ok(())
}

fn cmd_trace<S: Enumerable + Classified>(opts: &Opts) -> Result<(), String> {
    let builder = builder_from_opts::<S>(opts)?.trace(TraceConfig::unbounded());
    let f_obj: Option<u64> = opts.maybe("obj")?;
    let f_site: Option<u32> = opts.maybe("site")?;
    let f_action = opts.raw("action");
    let f_from: SimTime = opts.get("from", 0)?;
    let f_until: SimTime = opts.maybe("until")?.unwrap_or(SimTime::MAX);
    let limit: usize = opts.maybe("limit")?.unwrap_or(usize::MAX);
    let save = opts.raw("save");
    opts.finish()?;

    let report = builder.run().map_err(|e| e.to_string())?;
    let trace = report.trace().expect("tracing was enabled");

    let selected: Vec<&TraceEvent> = trace
        .events()
        .iter()
        .filter(|e| e.t >= f_from && e.t <= f_until)
        .filter(|e| f_site.is_none_or(|s| e.site == s))
        .filter(|e| f_obj.is_none_or(|o| e.action.obj() == Some(o)))
        .filter(|e| {
            f_action.is_none_or(|kinds| kinds.split(',').any(|k| k.trim() == e.action.kind()))
        })
        .collect();

    if trace.overwritten() > 0 {
        println!(
            "# ring buffer overwrote {} earlier events",
            trace.overwritten()
        );
    }
    for e in selected.iter().take(limit) {
        println!("{e}");
    }
    if selected.len() > limit {
        println!("# ... {} more (raise --limit)", selected.len() - limit);
    }
    println!(
        "# {} of {} events matched",
        selected.len(),
        trace.events().len()
    );

    if let Some(path) = save {
        std::fs::write(path, trace.render()).map_err(|e| format!("--save {path}: {e}"))?;
        println!("# full trace saved to {path}");
    }

    // Derived per-op latency and round-trip summaries, from telemetry.
    let t = report.telemetry();
    println!("\nlatency summaries (logical ticks):");
    for (name, h) in [
        ("op latency", &t.op_latency),
        ("initial-quorum rtt", &t.initial_rt),
        ("final-quorum rtt", &t.final_rt),
    ] {
        println!("  {name:>18}: {h}");
    }
    println!(
        "counters: committed {} aborted(conflict) {} aborted(unavail) {} \
         phase-retries {} txn-reruns {} msgs/op {:.2}",
        t.committed,
        t.aborted_conflict,
        t.aborted_unavailable,
        t.phase_retries,
        t.txn_reruns,
        t.messages_per_op()
    );
    Ok(())
}

/// `--mode static|hybrid|dynamic`: the protocol every run-shaped
/// subcommand uses.
fn protocol_from_opts<S: Enumerable + Classified>(
    opts: &Opts,
) -> Result<(String, Protocol), String> {
    let mode_s = opts.str("mode", "hybrid");
    let protocol = Protocol::minimal::<S>(mode_s.parse()?, bounds());
    Ok((mode_s, protocol))
}

/// `qcc chaos <type>`: the deterministic fuzz driver. Samples `--runs`
/// fault plans (network profile × crash/partition schedule × durability ×
/// tuning) from `--seed`, runs each over the worker pool, audits every
/// run with the safety oracle, and prints a per-profile table. On a
/// violation it greedily shrinks the first failing plan to a locally
/// minimal reproducer and prints the exact replay command. `--replay
/// SPEC` re-runs one encoded plan instead.
fn cmd_chaos<S: Enumerable + Classified>(ty: &str, opts: &Opts) -> Result<(), String> {
    let (mode_s, protocol) = protocol_from_opts::<S>(opts)?;
    let (shards, batch) = shards_and_batch(opts)?;
    let cfg = ChaosConfig {
        n_sites: opts.get("sites", 3u32)?,
        clients: opts.get("clients", 3usize)?,
        txns_per_client: opts.get("txns", 3usize)?,
        ops_per_txn: opts.get("ops", 2usize)?,
        objects: opts.get("objects", 1u16)?,
        shards,
        batch,
        // Deliberately undocumented: inject a planted bug so the
        // oracle's own detection path can be exercised.
        weaken_read_quorum: opts.get("unsound-weaken-read-quorum", false)?,
        skip_final_ack: opts.get("unsound-skip-final-ack", false)?,
        ..ChaosConfig::default()
    };

    let seed: u64 = opts.get("seed", 0u64)?;
    let runs: u64 = opts.get("runs", 200u64)?;
    let threads: usize = opts.get("threads", 0usize)?;
    let replay = opts.raw("replay");
    opts.finish()?;

    // --replay SPEC: run exactly one encoded plan and show its verdict.
    if let Some(spec) = replay {
        let plan = ChaosPlan::parse(spec)?;
        let (report, safety) =
            chaos::run_plan::<S>(&protocol, &cfg, &plan).map_err(|e| e.to_string())?;
        let t = report.stats();
        println!("replaying {}", plan.encode());
        println!(
            "committed {} / conflict aborts {} / unavailable {} / recoveries {}",
            t.committed,
            t.aborted_conflict,
            t.aborted_unavailable,
            report.telemetry().recoveries
        );
        println!("{safety}");
        if safety.is_ok() {
            return Ok(());
        }
        return Err("replayed plan violates safety".to_string());
    }

    let outcomes = chaos::sweep::<S>(&protocol, &cfg, seed, runs, threads);

    println!(
        "chaos sweep: {} plans from seed {seed} ({} mode, {} sites)",
        outcomes.len(),
        protocol.mode(),
        cfg.n_sites
    );
    println!(
        "{:>8} {:>5} {:>9} {:>7} {:>8} {:>7} {:>7} {:>7} {:>6} {:>9} {:>10}",
        "profile",
        "runs",
        "committed",
        "aborts",
        "abort%",
        "drops",
        "dups",
        "reord",
        "recov",
        "fallbacks",
        "violations"
    );
    for p in chaos::aggregate(&outcomes) {
        println!(
            "{:>8} {:>5} {:>9} {:>7} {:>8.4} {:>7} {:>7} {:>7} {:>6} {:>9} {:>10}",
            p.profile,
            p.runs,
            p.committed,
            p.aborted_conflict + p.aborted_unavailable,
            p.abort_rate(),
            p.msgs_dropped,
            p.msgs_duplicated,
            p.msgs_reordered,
            p.recoveries,
            p.full_log_fallbacks,
            p.violations
        );
    }

    let Some(failing) = outcomes.iter().find(|o| !o.violations.is_empty()) else {
        println!("safety oracle: OK on all {} runs", outcomes.len());
        return Ok(());
    };
    println!("\nsafety VIOLATION in plan {}", failing.plan.encode());
    for v in &failing.violations {
        println!("  - {v}");
    }
    println!("shrinking to a minimal reproducing plan ...");
    let minimal = chaos::shrink_failure::<S>(&protocol, &cfg, failing.plan.clone());
    println!("minimal plan: {}", minimal.encode());
    let mut unsound = String::new();
    if cfg.weaken_read_quorum {
        unsound.push_str(" --unsound-weaken-read-quorum true");
    }
    if cfg.skip_final_ack {
        unsound.push_str(" --unsound-skip-final-ack true");
    }
    println!(
        "replay with: qcc chaos {ty} --mode {mode_s} --sites {} --clients {} --txns {} --ops {}{unsound} --replay '{}'",
        cfg.n_sites,
        cfg.clients,
        cfg.txns_per_client,
        cfg.ops_per_txn,
        minimal.encode()
    );
    Err(format!(
        "{} of {} plans violated safety",
        outcomes.iter().filter(|o| !o.violations.is_empty()).count(),
        outcomes.len()
    ))
}

/// `qcc explore <type>`: the exhaustive interleaving model checker.
/// Enumerates every enabled-event schedule (message deliveries, and —
/// with `--drops`/`--crashes` budgets — message drops and crash points)
/// of a small seeded shape, depth-first with iterative deepening and
/// sleep-set partial-order reduction, auditing every branch with the
/// safety oracle. A violation is reported as a minimal-depth witness
/// spec (same `key=value;` codec as the chaos plans) that `--replay
/// SPEC` re-executes step for step.
fn cmd_explore<S: Enumerable + Classified + Clone + std::fmt::Debug>(
    ty: &str,
    opts: &Opts,
) -> Result<(), String> {
    // --replay SPEC is self-contained: the spec carries the whole shape,
    // so any other shape option alongside it would be silently ignored —
    // reject the combination instead.
    if let Some(raw) = opts.raw("replay") {
        if opts.given.len() > 1 {
            return Err("--replay takes no other options (the spec carries the shape)".to_string());
        }
        let spec = ExploreSpec::parse(raw)?;
        let protocol = Protocol::minimal::<S>(spec.mode.parse()?, bounds());
        let r = rexplore::replay_setup::<S>(&protocol, &spec.setup, &spec.sched)
            .map_err(|e| e.to_string())?;
        println!("replaying {spec}");
        for step in &r.steps {
            println!("  {step}");
        }
        return match r.verdict {
            None => {
                println!("safety oracle: OK on the replayed schedule");
                Ok(())
            }
            Some(v) => {
                println!("safety VIOLATION: {v}");
                Err("replayed schedule violates safety".to_string())
            }
        };
    }

    let (mode_s, protocol) = protocol_from_opts::<S>(opts)?;
    let knob = match (
        opts.get("unsound-weaken-read-quorum", false)?,
        opts.get("unsound-skip-final-ack", false)?,
    ) {
        (false, false) => Knob::None,
        (true, false) => Knob::WeakenReadQuorum,
        (false, true) => Knob::SkipFinalAck,
        (true, true) => return Err("at most one planted bug per exploration".to_string()),
    };
    let setup = ExploreSetup {
        sites: opts.get("sites", 2u32)?,
        clients: opts.get("clients", 1usize)?,
        txns_per_client: opts.get("txns", 1usize)?,
        ops_per_txn: opts.get("ops", 1usize)?,
        objects: opts.get("objects", 1u16)?,
        seed: opts.get("seed", 0u64)?,
        narrow: match opts.str("fan", "b").as_str() {
            "n" => true,
            "b" => false,
            other => return Err(format!("bad value for --fan: {other} (want n|b)")),
        },
        knob,
        ..ExploreSetup::default()
    };
    let depth: usize = opts.get("depth", 20usize)?;
    let budget: u64 = opts.get("budget", 1_000_000u64)?;
    let por = match opts.str("por", "on").as_str() {
        "on" => true,
        "off" => false,
        other => return Err(format!("bad value for --por: {other} (want on|off)")),
    };
    let cfg = ExploreConfig {
        max_depth: depth,
        max_states: budget,
        max_transitions: budget.saturating_mul(4),
        por,
        drop_budget: opts.get("drops", 0u32)?,
        crash_budget: opts.get("crashes", 0u32)?,
        ..ExploreConfig::default()
    };
    opts.finish()?;
    let out = rexplore::explore_setup::<S>(&protocol, &setup, cfg).map_err(|e| e.to_string())?;
    let st = out.stats;
    println!(
        "explored {} states / {} transitions / {} complete schedules (por {})",
        st.states,
        st.transitions,
        st.schedules,
        if por { "on" } else { "off" }
    );
    println!(
        "max depth {} over {} deepening iterations{}",
        st.max_depth_reached,
        st.iterations,
        if st.budget_exhausted {
            " (budget exhausted)"
        } else {
            ""
        }
    );
    match out.witness {
        None => {
            if st.complete {
                println!("safety oracle: OK on every schedule to depth {depth}");
            } else {
                println!("safety oracle: no violation found before the budget");
            }
            Ok(())
        }
        Some(w) => {
            println!(
                "\nsafety VIOLATION at depth {}: {}",
                w.schedule.len(),
                w.verdict
            );
            let spec = ExploreSpec {
                mode: mode_s,
                setup,
                depth,
                por,
                sched: w.schedule,
            };
            println!("witness: {spec}");
            println!("replay with: qcc explore {ty} --replay '{spec}'");
            Err("exploration found a violating schedule".to_string())
        }
    }
}

/// Drives the real-socket load harness: the same sans-I/O protocol
/// drivers as `simulate`, but hosted over loopback TCP with the client
/// fleet split across independent cells. Queue-only — the harness
/// generates `Enq`/`Deq` workloads (`--deq 0` is the conflict-free
/// Enq-only shape the `exp_load` bench uses).
fn cmd_load(opts: &Opts) -> Result<(), String> {
    let (_, protocol) = protocol_from_opts::<quorumcc_adts::Queue>(opts)?;
    let gc_batch = opts.get("gc", 0u64)?;
    let fault_profile = quorumcc::net::NetFaultProfile::parse(&opts.str("fault-profile", "none"))?;
    let crash = match opts.str("crash", "").as_str() {
        "" => None,
        spec => Some(quorumcc::net::CrashSpec::parse(spec)?),
    };
    let retransmit_ms = opts.get("retransmit-ms", 0u64)?;
    let cfg = quorumcc::net::LoadConfig {
        mode: protocol.mode(),
        relation: protocol.rel().clone(),
        clusters: opts.get("cells", 1usize)?.max(1),
        n_repos: opts.get("sites", 3u32)?,
        clients: opts.get("clients", 300usize)?,
        txns_per_client: opts.get("txns", 1usize)?,
        ops_per_txn: opts.get("ops", 1usize)?,
        objects: opts.get("objects", 64u16)?,
        workers: opts.get("workers", 1usize)?,
        seed: opts.get("seed", 1u64)?,
        // Ticks are microseconds in the load harness.
        op_timeout_ticks: opts.get("timeout-ms", 10_000u64)?.saturating_mul(1_000),
        narrow: opts.get("narrow", true)?,
        deq_fraction: opts.get("deq", 0.0f64)?,
        ramp: std::time::Duration::from_millis(opts.get("ramp-ms", 1_000u64)?),
        deadline: std::time::Duration::from_secs(opts.get("deadline", 120u64)?),
        scoped_statuses: opts.get("scoped", false)?,
        status_gc: (gc_batch > 0).then_some(gc_batch),
        fault_profile,
        // Ticks are microseconds, like --timeout-ms.
        resolve_retransmit: (retransmit_ms > 0).then(|| retransmit_ms.saturating_mul(1_000)),
        crash,
        ..quorumcc::net::LoadConfig::default()
    };
    opts.finish()?;
    let report = quorumcc::net::run_load(&cfg);
    println!(
        "{} clients x {} txns over {} cells ({} sites each, {} mode)",
        cfg.clients, cfg.txns_per_client, cfg.clusters, cfg.n_repos, report.mode
    );
    println!(
        "  committed {}  aborted(attempts) {}  unfinished {}",
        report.committed, report.aborted, report.unfinished
    );
    println!(
        "  {:.0} txn/s   p50 {:.1} ms   p99 {:.1} ms",
        report.txns_per_sec,
        report.p50_us as f64 / 1000.0,
        report.p99_us as f64 / 1000.0
    );
    if report.reconnects > 0 || report.resolve_ack_retransmits > 0 || report.recoveries > 0 {
        println!(
            "  reconnects {}  retransmit_frames {}  resolve_ack_retransmits {}  \
             frontier_stalls {}  recoveries {}",
            report.reconnects,
            report.retransmit_frames,
            report.resolve_ack_retransmits,
            report.frontier_stalls,
            report.recoveries
        );
    }
    // The same telemetry a simulated run carries, harvested from the
    // drivers that served the sockets.
    let tel = report.telemetry();
    println!(
        "  messages sent {} delivered {} ({:.2}/op)   log entries shipped {} ({:.2}/op)",
        tel.msgs_sent,
        tel.msgs_delivered,
        tel.messages_per_op(),
        tel.log_entries_shipped,
        tel.entries_shipped_per_op()
    );
    println!(
        "  phase retries {}  txn reruns {}  statuses shipped {}  gc'd {}  table peak {}  \
         delta writes refused {}  evaluations {} (rebuilt {}, {:.1} entries replayed each)",
        tel.phase_retries,
        tel.txn_reruns,
        tel.statuses_shipped,
        tel.statuses_gcd,
        tel.status_table_peak,
        tel.write_delta_refusals,
        tel.evaluations,
        tel.eval_rebuilds,
        tel.eval_suffix_entries as f64 / tel.evaluations.max(1) as f64
    );
    println!("{}", report.to_json());
    if report.unfinished > 0 {
        return Err(format!(
            "{} clients did not finish inside --deadline",
            report.unfinished
        ));
    }
    Ok(())
}

fn usage() -> String {
    "usage: qcc <relations|certificates|quorums|frontier|simulate|trace|reconfig|chaos|explore|load|types> [type] [--key value ...]\n\
     try: qcc relations queue | qcc quorums prom --sites 5 --relation static --priority Read\n\
     \x20    qcc simulate counter --mode hybrid --clients 4 | qcc frontier prom\n\
     \x20    qcc simulate queue --compact-logs true | qcc simulate queue --delta false\n\
     \x20    qcc simulate queue --shards 4 --batch 8 --objects 16 --clients 8\n\
     \x20    qcc trace queue --mode dynamic --action conflict,abort --site 3 --limit 20\n\
     \x20    qcc reconfig prom --sites 5 --lost 4 --relation hybrid --priority Read,Write\n\
     \x20    qcc chaos queue --seed 7 --runs 200 | qcc chaos queue --replay 's=7;...'\n\
     \x20    qcc explore queue --sites 2 --clients 2 --depth 14 | qcc explore queue --replay 'mode=...'\n\
     \x20    qcc load --mode static --clients 2000 --cells 8 | qcc load --scoped true --gc 64\n\
     options: a command given one it does not read (say `qcc load --help me`) lists\n\
     \x20    those it does, each with its default"
        .to_string()
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    match cmd.as_str() {
        "types" => {
            for t in TYPES {
                println!("{t}");
            }
            Ok(())
        }
        "certificates" => {
            for c in certificates::all() {
                print!("{c}");
            }
            Ok(())
        }
        // The load harness is queue-only (its workload generator speaks
        // `QueueInv`), so it takes no type argument.
        "load" => cmd_load(&Opts::parse(&args[1..])?),
        "relations" | "quorums" | "frontier" | "simulate" | "trace" | "reconfig" | "chaos"
        | "explore" => {
            let Some(ty) = args.get(1) else {
                return Err(format!("{cmd} needs a type (try `qcc types`)"));
            };
            let opts = Opts::parse(&args[2..])?;
            match cmd.as_str() {
                "relations" => with_type!(ty.as_str(), cmd_relations, &opts),
                "quorums" => with_type!(ty.as_str(), cmd_quorums, &opts),
                "frontier" => with_type!(ty.as_str(), cmd_frontier, &opts),
                "trace" => with_type!(ty.as_str(), cmd_trace, &opts),
                "reconfig" => with_type!(ty.as_str(), cmd_reconfig, &opts),
                "chaos" => with_type!(ty.as_str(), cmd_chaos, ty, &opts),
                "explore" => with_type!(ty.as_str(), cmd_explore, ty, &opts),
                _ => with_type!(ty.as_str(), cmd_simulate, &opts),
            }
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
