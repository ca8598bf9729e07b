//! The metric tables: every name the benchmark prints, its unit, which
//! direction is better and — for end-to-end metrics — the share of the
//! parent's median by which it may worsen. `BENCHMARK.json` lists the same
//! names; `tests/smoke.rs` fails when the two drift apart.

use std::collections::BTreeMap;

use crate::json::object;

/// One metric the benchmark prints.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; layer metrics carry no bound).
    pub bound: f64,
    /// Counted on the replay's virtual clock: repeats bit for bit at a
    /// given seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound,
        exact: false,
    }
}

const fn timed(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        bound: 0.0,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        bound: 0.0,
        exact: true,
    }
}

const fn higher(m: Metric) -> Metric {
    Metric {
        higher_is_better: true,
        ..m
    }
}

/// What a user of the socket host sees, measured with tracing off. Every
/// bound is the contract's widest, 0.25: the shared 2-core box this was
/// sized on runs 10 to 20 % slower for minutes at a time, and ten-run
/// quartile spreads of 0.01 to 0.18 were measured (see README).
pub const END_TO_END: &[Metric] = &[
    e2e("txn_per_s", "1/s", true, 0.25),
    e2e("p50_ms", "ms", false, 0.25),
    e2e("p90_ms", "ms", false, 0.25),
    e2e("p99_ms", "ms", false, 0.25),
    e2e("cpu_us_per_txn", "us", false, 0.25),
    e2e("setup_s", "s", false, 0.25),
];

/// Single-layer metrics, outside in. `*_us_per_txn` rows are span self
/// time over committed transactions in the traced replay.
pub const PER_LAYER: &[Metric] = &[
    // net.wire
    timed("wire.encode_us_per_txn", "us"),
    timed("wire.decode_us_per_txn", "us"),
    exact("wire.msgs_per_txn", "count"),
    exact("wire.bytes_per_txn", "B"),
    exact("wire.logreply_bytes_avg", "B"),
    exact("wire.writelog_bytes_avg", "B"),
    // net.tcp
    timed("tcp.write_frame_us_per_txn", "us"),
    timed("tcp.drain_frames_us_per_txn", "us"),
    timed("tcp.read_frame_us_per_txn", "us"),
    exact("tcp.frames_per_txn", "count"),
    // replication.repository
    timed("repo.readlog_us_per_txn", "us"),
    timed("repo.writelog_us_per_txn", "us"),
    timed("repo.resolve_us_per_txn", "us"),
    exact("repo.statuses_shipped_per_txn", "count"),
    higher(exact("repo.statuses_gcd_per_txn", "count")),
    exact("repo.status_table_peak", "count"),
    exact("repo.full_log_fallbacks", "count"),
    // replication.client
    timed("client.logreply_us_per_txn", "us"),
    timed("client.writeack_us_per_txn", "us"),
    timed("client.resolveack_us_per_txn", "us"),
    timed("client.tick_us_per_txn", "us"),
    exact("client.attempts_per_commit", "count"),
    exact("client.phase_retries_per_txn", "count"),
    timed("client.fail_ratio", "ratio"),
    // replication.types / replication.protocol, standalone on the longest log
    exact("types.log_len_max", "count"),
    timed("types.merge_us_at_max", "us"),
    timed("types.delta_tail_us_at_max", "us"),
    timed("types.apply_delta_us_at_max", "us"),
    timed("protocol.evaluate_us_at_max", "us"),
    // core
    timed("core.relation_s", "s"),
    // net.load, socket run with tracing off
    timed("load.sys_us_per_txn", "us"),
    timed("load.ledger_us_per_txn", "us"),
    timed("load.unattributed_us_per_txn", "us"),
    timed("load.max_commit_gap_ms", "ms"),
    timed("load.peak_rss_mb", "MB"),
    higher(timed("load.curve.c1.txn_per_s", "1/s")),
    higher(timed("load.curve.c4.txn_per_s", "1/s")),
    higher(timed("load.curve.c16.txn_per_s", "1/s")),
    higher(timed("load.curve.c64.txn_per_s", "1/s")),
    timed("load.curve.c1.p99_ms", "ms"),
    timed("load.curve.c4.p99_ms", "ms"),
    timed("load.curve.c16.p99_ms", "ms"),
    timed("load.curve.c64.p99_ms", "ms"),
    // net.fault + link supervision
    timed("fault.reconnects", "count"),
    timed("fault.retransmit_frames_per_txn", "count"),
    timed("fault.resolve_ack_retransmits_per_txn", "count"),
    timed("fault.frontier_stalls", "count"),
    higher(timed("fault.recoveries", "count")),
    // the other two concurrency-control modes
    higher(timed("mode.static.txn_per_s", "1/s")),
    higher(timed("mode.dynamic.txn_per_s", "1/s")),
    timed("mode.static.fail_ratio", "ratio"),
    timed("mode.dynamic.fail_ratio", "ratio"),
    // the tracing itself
    timed("trace.overhead_ratio", "ratio"),
    timed("trace.host_us_per_txn", "us"),
    exact("trace.spans_per_txn", "count"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Checks `values` holds exactly the metrics of `table`, all finite.
pub fn check_complete(table: &[Metric], values: &Values) -> Result<(), String> {
    for m in table {
        match values.get(m.name) {
            Some(v) if v.is_finite() => {}
            Some(v) => return Err(format!("metric {} is not finite: {v}", m.name)),
            None => return Err(format!("metric {} was not measured", m.name)),
        }
    }
    match values.keys().find(|k| !table.iter().any(|m| m.name == **k)) {
        Some(extra) => Err(format!("metric {extra} is not in the table")),
        None => Ok(()),
    }
}

/// The `"metrics"` object of the result line, in table order.
pub fn to_json(table: &[Metric], values: &Values) -> String {
    object(table.iter().map(|m| {
        let fields = [
            ("value", values[m.name].to_string()),
            ("unit", format!("\"{}\"", m.unit)),
        ];
        (m.name, object(fields))
    }))
}

/// The `p`-quantile (0 to 1) of unsorted samples, interpolated linearly
/// between the two nearest ranks.
///
/// # Panics
/// Panics on an empty slice: every caller measures at least one round.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (pos - lo as f64) * (v[hi] - v[lo])
}

/// Median of unsorted samples (mean of the middle two when even).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Distance between the first and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them.
/// Zero for fewer than two samples.
pub fn iqr(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    at(3) - at(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr(&v) - 5.5).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[7.0]), 7.0);
        // numpy.quantile([1..10], 0.25) == 3.25
        assert!((quantile(&v, 0.25) - 3.25).abs() < 1e-12);
        assert!((quantile(&v, 0.75) - 7.75).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert!((iqr(&[3.0, 1.0]) - 3.0).abs() < 1e-12);
        assert_eq!(iqr(&[4.0]), 0.0);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
    }
}
