//! Socket rounds: one `run_load` call on a fresh cell, with the process's
//! CPU time sampled around it and the run's own outputs checked.

use std::time::{Duration, Instant};

use quorumcc_net::{run_load, LoadConfig, LoadReport};

/// What one socket round measured.
#[derive(Debug, Clone)]
pub struct Round {
    pub attempted: usize,
    pub committed: usize,
    pub txn_per_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    /// Process user + system time over the round, microseconds. The
    /// kernel counts it in 10 ms ticks, so callers divide by transactions
    /// only over rounds that together used many ticks.
    pub cpu_us: f64,
    /// The system-time part of it.
    pub sys_us: f64,
    /// Peak resident set of the process during the round, MiB.
    pub peak_rss_mb: f64,
    /// Longest pause between two consecutive commits.
    pub max_commit_gap_ms: f64,
    pub report: LoadReport,
}

/// Kernel clock ticks per second: `/proc/self/stat` counts in `USER_HZ`,
/// which Linux fixes at 100 for every architecture's user interface.
const USER_HZ: f64 = 100.0;

/// (user, system) CPU time this process has used so far, microseconds,
/// threads that already exited included.
pub fn cpu_times_us() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut next = || {
        let ticks: f64 = fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime");
        ticks * 1e6 / USER_HZ
    };
    (next(), next())
}

/// Resets the kernel's peak-RSS mark to the current resident set, so that
/// [`peak_rss_mb`] next reports the peak since this call. Where the kernel
/// refuses, the peak stays cumulative.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// Peak resident set of this process (`VmHWM`) since the last
/// [`reset_peak_rss`], MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kb / 1024.0
}

/// 1-minute load average, or `None` where `/proc/loadavg` is missing.
pub fn loadavg_1m() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Runs one round and checks its outputs: no client abandoned, every
/// operation of every committed transaction counted and — unless faults
/// are injected — every transaction committed.
///
/// # Errors
/// A description of the failed check.
pub fn round(cfg: &LoadConfig) -> Result<Round, String> {
    let attempted = cfg.clients * cfg.txns_per_client;
    reset_peak_rss();
    let (u0, s0) = cpu_times_us();
    let report = run_load(cfg);
    let (u1, s1) = cpu_times_us();
    let peak_rss_mb = peak_rss_mb();
    if report.unfinished != 0 {
        return Err(format!("{} clients never finished", report.unfinished));
    }
    if report.committed > attempted || report.committed == 0 {
        return Err(format!(
            "{} of {attempted} transactions committed",
            report.committed
        ));
    }
    let faulty = cfg.crash.is_some() || !cfg.fault_profile.is_none();
    if !faulty {
        if report.committed != attempted {
            return Err(format!(
                "fault-free round committed {} of {attempted}",
                report.committed
            ));
        }
        let supervision = report.reconnects
            + report.retransmit_frames
            + report.resolve_ack_retransmits
            + report.frontier_stalls
            + report.recoveries;
        if supervision != 0 {
            return Err(format!(
                "fault-free round needed {supervision} supervision events"
            ));
        }
    }
    if report.aborted == 0 && report.ops_committed != report.committed * cfg.ops_per_txn {
        return Err(format!(
            "{} operations committed in {} transactions of {}",
            report.ops_committed, report.committed, cfg.ops_per_txn
        ));
    }
    let gap_us = report
        .commit_ticks
        .windows(2)
        .map(|w| w[1] - w[0])
        .max()
        .unwrap_or(0);
    Ok(Round {
        attempted,
        committed: report.committed,
        txn_per_s: report.txns_per_sec,
        p50_ms: report.p50_us as f64 / 1e3,
        p90_ms: report.p90_us as f64 / 1e3,
        p99_ms: report.p99_us as f64 / 1e3,
        cpu_us: (u1 - u0) + (s1 - s0),
        sys_us: s1 - s0,
        peak_rss_mb,
        max_commit_gap_ms: gap_us as f64 / 1e3,
        report,
    })
}

/// Runs rounds on seeds `seed, seed + 1, …` until the next one would
/// overrun `budget`; always at least one.
///
/// # Errors
/// The first failed round check.
pub fn rounds(
    budget: Duration,
    seed: u64,
    mut cfg_for: impl FnMut(u64) -> LoadConfig,
) -> Result<Vec<Round>, String> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(round(&cfg_for(seed.wrapping_add(out.len() as u64)))?);
        let spent = t0.elapsed();
        if spent + spent / out.len() as u32 > budget {
            return Ok(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        let (u, s) = cpu_times_us();
        assert!(u >= 0.0 && s >= 0.0);
        assert!(peak_rss_mb() > 0.5);
        assert!(loadavg_1m().is_some_and(|l| l >= 0.0));
    }
}
