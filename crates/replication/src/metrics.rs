//! Run-level metrics: counters and logical-time histograms harvested from
//! every cluster run.
//!
//! Unlike the trace (which is opt-in and can be huge), the metrics are
//! always collected — they are a handful of integers and sample vectors
//! per client, cheap next to the message handling they measure. They give
//! the experiment binaries the paper's quantitative vocabulary: abort
//! rates, retry counts, quorum round-trips, view sizes, log lengths, and
//! messages per operation.

use crate::client::ClientStats;
use quorumcc_sim::{SimStats, SimTime};
use std::fmt;

/// A histogram over logical-time (or size) samples. Stores raw samples so
/// merging across clients and runs is lossless; summaries are computed on
/// demand.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogicalHistogram {
    samples: Vec<u64>,
}

impl LogicalHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogicalHistogram::default()
    }

    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        self.samples.push(v);
    }

    /// Absorbs another histogram's samples.
    pub fn merge(&mut self, other: &LogicalHistogram) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Sum of all samples.
    pub fn total(&self) -> u64 {
        self.samples.iter().sum()
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        self.samples.iter().copied().min()
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().copied().max()
    }

    /// Arithmetic mean, if any samples exist.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.total() as f64 / self.samples.len() as f64)
        }
    }

    /// Nearest-rank percentile (`p` in `[0, 100]`), if any samples exist.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.clamp(1, sorted.len()) - 1])
    }

    /// The raw samples, in recording order.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// A `{count, min, p50, p90, p99, max, mean}` JSON object (all zeros
    /// when empty — hand-rolled, the vendored serde is a marker stub).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\": {}, \"min\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}, \"mean\": {:.3}}}",
            self.count(),
            self.min().unwrap_or(0),
            self.percentile(50.0).unwrap_or(0),
            self.percentile(90.0).unwrap_or(0),
            self.percentile(99.0).unwrap_or(0),
            self.max().unwrap_or(0),
            self.mean().unwrap_or(0.0),
        )
    }
}

impl fmt::Display for LogicalHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} min={} p50={} p90={} p99={} max={}",
            self.count(),
            self.min().unwrap_or(0),
            self.percentile(50.0).unwrap_or(0),
            self.percentile(90.0).unwrap_or(0),
            self.percentile(99.0).unwrap_or(0),
            self.max().unwrap_or(0),
        )
    }
}

/// Per-client raw metric samples, filled in by the client state machine as
/// the run progresses and aggregated into a [`RunTelemetry`] by the
/// cluster harvest.
#[derive(Debug, Clone, Default)]
pub struct ClientMetrics {
    /// Quorum phases that timed out and were re-broadcast.
    pub phase_retries: u64,
    /// Aborted transactions re-run as fresh actions.
    pub txn_reruns: u64,
    /// Initial-quorum (read) round-trips, in ticks.
    pub initial_rt: Vec<SimTime>,
    /// Final-quorum (write) round-trips, in ticks.
    pub final_rt: Vec<SimTime>,
    /// Whole-operation latencies (read start → write quorum), in ticks.
    pub op_latency: Vec<SimTime>,
    /// Entries in each view pushed on a final-quorum write.
    pub view_sizes: Vec<u64>,
    /// Raw log entries received across all `LogReply` payloads.
    pub log_entries_shipped: u64,
    /// Entry-equivalents per `LogReply` (entries + 1 per checkpoint).
    pub reply_payload: Vec<u64>,
    /// Batch envelopes this process flushed (0 when batching is off).
    pub batches_flushed: u64,
    /// Payloads per flushed envelope (empty when batching is off).
    pub batch_fill: Vec<u64>,
    /// `Resolve` messages re-sent by the frontier-repair timer (0 when
    /// retransmission is off).
    pub resolve_retransmits: u64,
    /// Retransmit timer fires that observed no durable-frontier progress
    /// since the previous fire (0 when retransmission is off).
    pub frontier_stalls: u64,
}

/// Aggregated observability record for one cluster run (or a merged set
/// of runs of the same protocol) — the operational counterpart of the
/// theory pipeline's `BENCH_*.json` phase telemetry.
#[derive(Debug, Clone, Default)]
pub struct RunTelemetry {
    /// Protocol mode name (`static` / `hybrid` / `dynamic-2pl`).
    pub mode: String,
    /// Runs merged into this record.
    pub runs: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted on a concurrency conflict.
    pub aborted_conflict: u64,
    /// Transactions aborted on quorum unavailability.
    pub aborted_unavailable: u64,
    /// Individual operations completed.
    pub ops_completed: u64,
    /// Quorum phases re-broadcast after a timeout.
    pub phase_retries: u64,
    /// Aborted transactions re-run as fresh actions.
    pub txn_reruns: u64,
    /// Transactions bounced on a stale configuration epoch and retried
    /// under the adopted one (free retries; not part of [`Self::decided`],
    /// since each one re-runs to a real verdict).
    pub stale_epoch_retries: u64,
    /// Messages submitted to the network.
    pub msgs_sent: u64,
    /// Messages delivered.
    pub msgs_delivered: u64,
    /// Messages lost (drop, partition, crash).
    pub msgs_dropped: u64,
    /// Messages the lossy network delivered twice.
    pub msgs_duplicated: u64,
    /// Messages the lossy network delayed past their natural slot.
    pub msgs_reordered: u64,
    /// Stale read frontiers repositories answered with a full log
    /// transfer instead of a delta.
    pub full_log_fallbacks: u64,
    /// Crash recoveries volatile repositories performed.
    pub recoveries: u64,
    /// Timer events fired.
    pub timers: u64,
    /// Initial-quorum (read) round-trip ticks.
    pub initial_rt: LogicalHistogram,
    /// Final-quorum (write) round-trip ticks.
    pub final_rt: LogicalHistogram,
    /// Whole-operation latency ticks.
    pub op_latency: LogicalHistogram,
    /// View sizes pushed on final-quorum writes.
    pub view_sizes: LogicalHistogram,
    /// Raw log entries shipped in `LogReply` payloads — the quantity
    /// delta shipping and compaction exist to shrink.
    pub log_entries_shipped: u64,
    /// Entry-equivalents per `LogReply` (entries + 1 per checkpoint).
    pub reply_payload: LogicalHistogram,
    /// Per-repository, per-object log lengths at the end of the run.
    pub log_lengths: LogicalHistogram,
    /// Configured batch size (1 = batching off).
    pub batch_size: u64,
    /// Batch envelopes flushed across all processes (0 when batching is
    /// off).
    pub batches_flushed: u64,
    /// Payloads per flushed envelope (empty when batching is off).
    pub batch_fill: LogicalHistogram,
    /// Logical payload messages submitted: `msgs_sent` with every batch
    /// envelope counted at its full weight. Equal to `msgs_sent` when
    /// nothing batches.
    pub payload_msgs: u64,
    /// Status records shipped across all repositories, both ways: in the
    /// `LogReply` deltas they served and in the `WriteLog`s (views or
    /// deltas) they received — the quantity scoped status shipping
    /// exists to shrink.
    pub statuses_shipped: u64,
    /// Delta `WriteLog`s repositories refused because their log no longer
    /// extended the delta's base; each cost one more round trip carrying
    /// the whole view.
    pub write_delta_refusals: u64,
    /// Operations front-ends evaluated (one per read quorum assembled).
    pub evaluations: u64,
    /// Evaluations whose view contradicted the front-end's evaluation
    /// cache, which then replayed the view whole.
    pub eval_rebuilds: u64,
    /// Entries replayed by all evaluations (÷ `evaluations`: the mean
    /// suffix an operation pays for).
    pub eval_suffix_entries: u64,
    /// Status tombstones dropped by status GC (0 when GC is off).
    pub statuses_gcd: u64,
    /// Largest per-repository status-table population observed at any
    /// resolution (resolution table + per-log statuses); bounds the
    /// gossip state a single site ever held.
    pub status_table_peak: u64,
    /// `Resolve` messages clients re-sent through the frontier-repair
    /// timer (0 when retransmission is off).
    pub resolve_ack_retransmits: u64,
    /// Supervised connections re-established after a socket death (0 on
    /// the DES/channels backends, which have no sockets).
    pub reconnects: u64,
    /// Retransmit timer fires that observed a stalled durable-GC frontier
    /// (0 when retransmission is off).
    pub frontier_stalls: u64,
    /// Sites re-admitted to membership by a grow-epoch reconfiguration
    /// after a crash (0 without the self-healing policy).
    pub rejoins: u64,
}

impl RunTelemetry {
    /// Builds the record for one run from its harvested parts.
    pub fn from_run(
        mode: &str,
        stats: &[ClientStats],
        metrics: &[ClientMetrics],
        sim: SimStats,
        log_lengths: impl IntoIterator<Item = u64>,
    ) -> Self {
        let mut out = RunTelemetry {
            mode: mode.to_string(),
            runs: 1,
            msgs_sent: sim.sent as u64,
            msgs_delivered: sim.delivered as u64,
            msgs_dropped: sim.dropped as u64,
            msgs_duplicated: sim.duplicated as u64,
            msgs_reordered: sim.reordered as u64,
            timers: sim.timers as u64,
            batch_size: 1,
            payload_msgs: sim.payload_msgs as u64,
            ..RunTelemetry::default()
        };
        for s in stats {
            out.committed += s.committed as u64;
            out.aborted_conflict += s.aborted_conflict as u64;
            out.aborted_unavailable += s.aborted_unavailable as u64;
            out.ops_completed += s.ops_completed as u64;
            out.stale_epoch_retries += s.stale_retries as u64;
        }
        for m in metrics {
            out.phase_retries += m.phase_retries;
            out.txn_reruns += m.txn_reruns;
            for &v in &m.initial_rt {
                out.initial_rt.record(v);
            }
            for &v in &m.final_rt {
                out.final_rt.record(v);
            }
            for &v in &m.op_latency {
                out.op_latency.record(v);
            }
            for &v in &m.view_sizes {
                out.view_sizes.record(v);
            }
            out.log_entries_shipped += m.log_entries_shipped;
            for &v in &m.reply_payload {
                out.reply_payload.record(v);
            }
            out.batches_flushed += m.batches_flushed;
            for &v in &m.batch_fill {
                out.batch_fill.record(v);
            }
            out.resolve_ack_retransmits += m.resolve_retransmits;
            out.frontier_stalls += m.frontier_stalls;
        }
        for len in log_lengths {
            out.log_lengths.record(len);
        }
        out
    }

    /// Transactions that reached a verdict (committed or aborted).
    pub fn decided(&self) -> u64 {
        self.committed + self.aborted_conflict + self.aborted_unavailable
    }

    /// Fraction of decided transactions that aborted (0 when none
    /// decided) — the measured quantity the paper's comparison turns on.
    pub fn abort_rate(&self) -> f64 {
        let d = self.decided();
        if d == 0 {
            0.0
        } else {
            (self.aborted_conflict + self.aborted_unavailable) as f64 / d as f64
        }
    }

    /// Network messages per completed operation (0 when none completed).
    pub fn messages_per_op(&self) -> f64 {
        if self.ops_completed == 0 {
            0.0
        } else {
            self.msgs_sent as f64 / self.ops_completed as f64
        }
    }

    /// Log entries shipped per completed operation (0 when none
    /// completed) — the acceptance metric for delta shipping.
    pub fn entries_shipped_per_op(&self) -> f64 {
        if self.ops_completed == 0 {
            0.0
        } else {
            self.log_entries_shipped as f64 / self.ops_completed as f64
        }
    }

    /// Merges another run's telemetry (same mode) into this one.
    pub fn merge(&mut self, other: &RunTelemetry) {
        if self.mode.is_empty() {
            self.mode = other.mode.clone();
        }
        self.runs += other.runs;
        self.committed += other.committed;
        self.aborted_conflict += other.aborted_conflict;
        self.aborted_unavailable += other.aborted_unavailable;
        self.ops_completed += other.ops_completed;
        self.phase_retries += other.phase_retries;
        self.txn_reruns += other.txn_reruns;
        self.stale_epoch_retries += other.stale_epoch_retries;
        self.msgs_sent += other.msgs_sent;
        self.msgs_delivered += other.msgs_delivered;
        self.msgs_dropped += other.msgs_dropped;
        self.msgs_duplicated += other.msgs_duplicated;
        self.msgs_reordered += other.msgs_reordered;
        self.full_log_fallbacks += other.full_log_fallbacks;
        self.recoveries += other.recoveries;
        self.timers += other.timers;
        self.initial_rt.merge(&other.initial_rt);
        self.final_rt.merge(&other.final_rt);
        self.op_latency.merge(&other.op_latency);
        self.view_sizes.merge(&other.view_sizes);
        self.log_entries_shipped += other.log_entries_shipped;
        self.reply_payload.merge(&other.reply_payload);
        self.log_lengths.merge(&other.log_lengths);
        self.batch_size = self.batch_size.max(other.batch_size);
        self.batches_flushed += other.batches_flushed;
        self.batch_fill.merge(&other.batch_fill);
        self.payload_msgs += other.payload_msgs;
        self.statuses_shipped += other.statuses_shipped;
        self.write_delta_refusals += other.write_delta_refusals;
        self.evaluations += other.evaluations;
        self.eval_rebuilds += other.eval_rebuilds;
        self.eval_suffix_entries += other.eval_suffix_entries;
        self.statuses_gcd += other.statuses_gcd;
        self.status_table_peak = self.status_table_peak.max(other.status_table_peak);
        self.resolve_ack_retransmits += other.resolve_ack_retransmits;
        self.reconnects += other.reconnects;
        self.frontier_stalls += other.frontier_stalls;
        self.rejoins += other.rejoins;
    }

    /// A JSON object with every counter, derived rate, and histogram
    /// summary (hand-rolled; the vendored serde is a marker stub).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("      \"mode\": \"{}\",\n", self.mode));
        s.push_str(&format!("      \"runs\": {},\n", self.runs));
        s.push_str(&format!("      \"committed\": {},\n", self.committed));
        s.push_str(&format!(
            "      \"aborted_conflict\": {},\n",
            self.aborted_conflict
        ));
        s.push_str(&format!(
            "      \"aborted_unavailable\": {},\n",
            self.aborted_unavailable
        ));
        s.push_str(&format!(
            "      \"ops_completed\": {},\n",
            self.ops_completed
        ));
        s.push_str(&format!(
            "      \"abort_rate\": {:.4},\n",
            self.abort_rate()
        ));
        s.push_str(&format!(
            "      \"phase_retries\": {},\n",
            self.phase_retries
        ));
        s.push_str(&format!("      \"txn_reruns\": {},\n", self.txn_reruns));
        s.push_str(&format!(
            "      \"stale_epoch_retries\": {},\n",
            self.stale_epoch_retries
        ));
        s.push_str(&format!("      \"msgs_sent\": {},\n", self.msgs_sent));
        s.push_str(&format!(
            "      \"msgs_delivered\": {},\n",
            self.msgs_delivered
        ));
        s.push_str(&format!("      \"msgs_dropped\": {},\n", self.msgs_dropped));
        s.push_str(&format!(
            "      \"msgs_duplicated\": {},\n",
            self.msgs_duplicated
        ));
        s.push_str(&format!(
            "      \"msgs_reordered\": {},\n",
            self.msgs_reordered
        ));
        s.push_str(&format!(
            "      \"full_log_fallbacks\": {},\n",
            self.full_log_fallbacks
        ));
        s.push_str(&format!("      \"recoveries\": {},\n", self.recoveries));
        s.push_str(&format!("      \"timers\": {},\n", self.timers));
        s.push_str(&format!(
            "      \"messages_per_op\": {:.3},\n",
            self.messages_per_op()
        ));
        s.push_str(&format!(
            "      \"initial_rt\": {},\n",
            self.initial_rt.to_json()
        ));
        s.push_str(&format!(
            "      \"final_rt\": {},\n",
            self.final_rt.to_json()
        ));
        s.push_str(&format!(
            "      \"op_latency\": {},\n",
            self.op_latency.to_json()
        ));
        s.push_str(&format!(
            "      \"view_sizes\": {},\n",
            self.view_sizes.to_json()
        ));
        s.push_str(&format!(
            "      \"log_entries_shipped\": {},\n",
            self.log_entries_shipped
        ));
        s.push_str(&format!(
            "      \"entries_shipped_per_op\": {:.3},\n",
            self.entries_shipped_per_op()
        ));
        s.push_str(&format!(
            "      \"reply_payload\": {},\n",
            self.reply_payload.to_json()
        ));
        s.push_str(&format!("      \"batch_size\": {},\n", self.batch_size));
        s.push_str(&format!(
            "      \"batches_flushed\": {},\n",
            self.batches_flushed
        ));
        s.push_str(&format!(
            "      \"batch_fill\": {},\n",
            self.batch_fill.to_json()
        ));
        s.push_str(&format!("      \"payload_msgs\": {},\n", self.payload_msgs));
        s.push_str(&format!(
            "      \"statuses_shipped\": {},\n",
            self.statuses_shipped
        ));
        s.push_str(&format!(
            "      \"write_delta_refusals\": {},\n",
            self.write_delta_refusals
        ));
        for (name, count) in [
            ("evaluations", self.evaluations),
            ("eval_rebuilds", self.eval_rebuilds),
            ("eval_suffix_entries", self.eval_suffix_entries),
        ] {
            s.push_str(&format!("      \"{name}\": {count},\n"));
        }
        s.push_str(&format!("      \"statuses_gcd\": {},\n", self.statuses_gcd));
        s.push_str(&format!(
            "      \"status_table_peak\": {},\n",
            self.status_table_peak
        ));
        s.push_str(&format!(
            "      \"resolve_ack_retransmits\": {},\n",
            self.resolve_ack_retransmits
        ));
        s.push_str(&format!("      \"reconnects\": {},\n", self.reconnects));
        s.push_str(&format!(
            "      \"frontier_stalls\": {},\n",
            self.frontier_stalls
        ));
        s.push_str(&format!("      \"rejoins\": {},\n", self.rejoins));
        s.push_str(&format!(
            "      \"log_lengths\": {}\n",
            self.log_lengths.to_json()
        ));
        s.push_str("    }");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_summaries() {
        let mut h = LogicalHistogram::new();
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.mean(), None);
        for v in [10, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(40));
        assert_eq!(h.percentile(50.0), Some(20));
        assert_eq!(h.percentile(100.0), Some(40));
        assert_eq!(h.percentile(0.0), Some(10));
        assert_eq!(h.mean(), Some(25.0));
    }

    #[test]
    fn histogram_merge_is_lossless() {
        let mut a = LogicalHistogram::new();
        a.record(1);
        let mut b = LogicalHistogram::new();
        b.record(9);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Some(9));
    }

    #[test]
    fn telemetry_reconciles_with_client_stats() {
        let stats = [
            ClientStats {
                committed: 3,
                aborted_conflict: 1,
                aborted_unavailable: 0,
                ops_completed: 6,
                stale_retries: 0,
            },
            ClientStats {
                committed: 2,
                aborted_conflict: 0,
                aborted_unavailable: 1,
                ops_completed: 4,
                stale_retries: 2,
            },
        ];
        let metrics = [ClientMetrics::default(), ClientMetrics::default()];
        let t = RunTelemetry::from_run("hybrid", &stats, &metrics, SimStats::default(), [3, 3]);
        assert_eq!(t.committed, 5);
        assert_eq!(t.decided(), 7);
        assert_eq!(t.stale_epoch_retries, 2);
        assert!((t.abort_rate() - 2.0 / 7.0).abs() < 1e-12);
        assert_eq!(t.log_lengths.count(), 2);
    }

    #[test]
    fn merge_accumulates_runs() {
        let mut a = RunTelemetry {
            mode: "static".into(),
            runs: 1,
            committed: 2,
            ..RunTelemetry::default()
        };
        let b = RunTelemetry {
            mode: "static".into(),
            runs: 1,
            committed: 3,
            ..RunTelemetry::default()
        };
        a.merge(&b);
        assert_eq!(a.runs, 2);
        assert_eq!(a.committed, 5);
    }

    #[test]
    fn json_is_wellformed_enough() {
        let t = RunTelemetry {
            mode: "hybrid".into(),
            ..RunTelemetry::default()
        };
        let j = t.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"abort_rate\": 0.0000"));
        assert!(j.contains("\"initial_rt\": {\"count\": 0"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }
}
