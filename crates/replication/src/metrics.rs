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
use crate::repository::RepoCounters;
use quorumcc_sim::{Json, SimStats, SimTime};
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

    /// Adds every sample of the slice.
    pub fn extend(&mut self, samples: &[u64]) {
        self.samples.extend_from_slice(samples);
    }

    /// Absorbs another histogram's samples.
    pub fn merge(&mut self, other: &LogicalHistogram) {
        self.extend(&other.samples);
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
    /// when empty).
    pub fn to_json(&self) -> Json {
        Json::object()
            .field("count", self.count())
            .field("min", self.min().unwrap_or(0))
            .field("p50", self.percentile(50.0).unwrap_or(0))
            .field("p90", self.percentile(90.0).unwrap_or(0))
            .field("p99", self.percentile(99.0).unwrap_or(0))
            .field("max", self.max().unwrap_or(0))
            .field("mean", Json::Fixed(self.mean().unwrap_or(0.0), 3))
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

/// How a stored [`RunTelemetry`] field combines when two records merge,
/// or how a derived one is rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// A count: merged records add.
    Sum,
    /// A setting or high-water mark: merged records keep the larger.
    Max,
    /// A [`LogicalHistogram`]: merged records pool their samples.
    Hist,
    /// Not stored: computed from the counts by the method of the same
    /// name and rendered with this many decimals.
    Rate(usize),
}

/// What each stored [`Rule`] means: the field's type, its merge, and its
/// JSON value (the two count rules differ only in how they merge).
macro_rules! rule {
    (type Hist) => {
        LogicalHistogram
    };
    (type $count:ident) => {
        u64
    };
    (merge Sum $into:expr, $from:expr) => {
        $into += $from
    };
    (merge Max $into:expr, $from:expr) => {
        $into = $into.max($from)
    };
    (merge Hist $into:expr, $from:expr) => {
        $into.merge(&$from)
    };
    (json Hist $v:expr) => {
        $v.to_json()
    };
    (json $count:ident $v:expr) => {
        Json::from($v)
    };
}

/// Declares [`RunTelemetry`] from its field table — `name: Rule;` rows in
/// JSON order, each optionally followed by `= rate: decimals;` rows for
/// the derived rates rendered right after it. The struct, `merge`, the
/// JSON body and [`RunTelemetry::FIELDS`] all come from this one list, so
/// a new counter is a row here plus the line that feeds it.
macro_rules! run_telemetry {
    ($( $(#[$doc:meta])* $name:ident: $rule:ident;
        $(= $rate:ident: $decimals:literal;)* )*) => {
        /// Aggregated observability record for one cluster run (or a merged
        /// set of runs of the same protocol) — the operational counterpart
        /// of the theory pipeline's `BENCH_*.json` phase telemetry.
        #[derive(Debug, Clone, Default)]
        pub struct RunTelemetry {
            /// Protocol mode name (`static` / `hybrid` / `dynamic-2pl`).
            pub mode: String,
            $( $(#[$doc])* pub $name: rule!(type $rule), )*
        }

        impl RunTelemetry {
            /// The field table in declaration order, which is also the key
            /// order of [`Self::to_json`] after `mode`.
            pub const FIELDS: &'static [(&'static str, Rule)] = &[$(
                (stringify!($name), Rule::$rule),
                $( (stringify!($rate), Rule::Rate($decimals)), )*
            )*];

            /// Merges another run's telemetry (same mode) into this one,
            /// field by field under each field's [`Rule`].
            pub fn merge(&mut self, other: &RunTelemetry) {
                if self.mode.is_empty() {
                    self.mode.clone_from(&other.mode);
                }
                $( rule!(merge $rule self.$name, other.$name); )*
            }

            /// The record as a JSON object: `mode`, then every field and
            /// derived rate of the table in order.
            pub fn to_json(&self) -> Json {
                Json::object().field("mode", self.mode.as_str())
                $(  .field(stringify!($name), rule!(json $rule self.$name))
                    $( .field(stringify!($rate), Json::Fixed(self.$rate(), $decimals)) )*
                )*
            }

            /// Every stored field, in table order.
            #[cfg(test)]
            fn slots(&mut self) -> Vec<tests::Slot<'_>> {
                vec![$( tests::Slot::from(&mut self.$name) ),*]
            }
        }
    };
}

run_telemetry! {
    /// Runs merged into this record.
    runs: Sum;
    /// Transactions committed.
    committed: Sum;
    /// Transactions aborted on a concurrency conflict.
    aborted_conflict: Sum;
    /// Transactions aborted on quorum unavailability.
    aborted_unavailable: Sum;
    /// Individual operations completed.
    ops_completed: Sum;
    = abort_rate: 4;
    /// Quorum phases re-broadcast after a timeout.
    phase_retries: Sum;
    /// Aborted transactions re-run as fresh actions.
    txn_reruns: Sum;
    /// Transactions bounced on a stale configuration epoch and retried
    /// under the adopted one (free retries; not part of [`Self::decided`],
    /// since each one re-runs to a real verdict).
    stale_epoch_retries: Sum;
    /// Messages submitted to the network.
    msgs_sent: Sum;
    /// Messages delivered.
    msgs_delivered: Sum;
    /// Messages lost (drop, partition, crash).
    msgs_dropped: Sum;
    /// Messages the lossy network delivered twice.
    msgs_duplicated: Sum;
    /// Messages the lossy network delayed past their natural slot.
    msgs_reordered: Sum;
    /// Stale read frontiers repositories answered with a full log
    /// transfer instead of a delta.
    full_log_fallbacks: Sum;
    /// Crash recoveries volatile repositories performed.
    recoveries: Sum;
    /// Timer events fired.
    timers: Sum;
    = messages_per_op: 3;
    /// Initial-quorum (read) round-trip ticks.
    initial_rt: Hist;
    /// Final-quorum (write) round-trip ticks.
    final_rt: Hist;
    /// Whole-operation latency ticks (read start → write quorum).
    op_latency: Hist;
    /// View sizes pushed on final-quorum writes.
    view_sizes: Hist;
    /// Raw log entries shipped in `LogReply` payloads — the quantity
    /// delta shipping and compaction exist to shrink.
    log_entries_shipped: Sum;
    = entries_shipped_per_op: 3;
    /// Entry-equivalents per `LogReply` (entries + 1 per checkpoint).
    reply_payload: Hist;
    /// Configured batch size (1 = batching off).
    batch_size: Max;
    /// Batch envelopes flushed across all processes (0 when batching is
    /// off).
    batches_flushed: Sum;
    /// Payloads per flushed envelope (empty when batching is off).
    batch_fill: Hist;
    /// Logical payload messages submitted: `msgs_sent` with every batch
    /// envelope counted at its full weight. Equal to `msgs_sent` when
    /// nothing batches.
    payload_msgs: Sum;
    /// Status records shipped across all repositories, both ways: in the
    /// `LogReply` deltas they served and in the `WriteLog`s (views or
    /// deltas) they received — the quantity scoped status shipping
    /// exists to shrink.
    statuses_shipped: Sum;
    /// Delta `WriteLog`s repositories refused because their log no longer
    /// extended the delta's base; each cost one more round trip carrying
    /// the whole view.
    write_delta_refusals: Sum;
    /// Resolutions repositories refused because a different one was
    /// already recorded for the action; anything but zero means a faulty
    /// peer or a frame replayed across an amnesiac restart.
    conflicting_resolutions: Sum;
    /// Operations front-ends evaluated (one per read quorum assembled).
    evaluations: Sum;
    /// Evaluations whose view contradicted the front-end's evaluation
    /// cache, which then replayed the view whole.
    eval_rebuilds: Sum;
    /// Entries replayed by all evaluations (÷ `evaluations`: the mean
    /// suffix an operation pays for).
    eval_suffix_entries: Sum;
    /// Status tombstones dropped by status GC (0 when GC is off).
    statuses_gcd: Sum;
    /// Largest per-repository status-table population observed at any
    /// resolution (resolution table + per-log statuses); bounds the
    /// gossip state a single site ever held.
    status_table_peak: Max;
    /// `Resolve` messages clients re-sent through the frontier-repair
    /// timer (0 when retransmission is off).
    resolve_ack_retransmits: Sum;
    /// Supervised connections re-established after a socket death (0 on
    /// the DES/channels backends, which have no sockets).
    reconnects: Sum;
    /// Retransmit timer fires that observed a stalled durable-GC frontier
    /// (0 when retransmission is off).
    frontier_stalls: Sum;
    /// Sites re-admitted to membership by a grow-epoch reconfiguration
    /// after a crash (0 without the self-healing policy).
    rejoins: Sum;
    /// Per-repository, per-object log lengths at the end of the run.
    log_lengths: Hist;
}

impl RunTelemetry {
    /// An empty record for one run in `mode` at batch size `batch_size`,
    /// carrying the host's message and timer counters; the drivers are
    /// added by [`Self::add_client`] and [`Self::add_repo`].
    pub fn for_run(mode: &str, sim: SimStats, batch_size: u32) -> Self {
        RunTelemetry {
            mode: mode.to_string(),
            runs: 1,
            msgs_sent: sim.sent as u64,
            msgs_delivered: sim.delivered as u64,
            msgs_dropped: sim.dropped as u64,
            msgs_duplicated: sim.duplicated as u64,
            msgs_reordered: sim.reordered as u64,
            timers: sim.timers as u64,
            batch_size: u64::from(batch_size),
            payload_msgs: sim.payload_msgs as u64,
            ..RunTelemetry::default()
        }
    }

    /// Adds one front-end: its outcome counters, its raw samples, and its
    /// evaluation caches' `(evaluations, rebuilds, suffix entries)`.
    pub fn add_client(&mut self, s: &ClientStats, m: &ClientMetrics, evals: (u64, u64, u64)) {
        self.committed += s.committed as u64;
        self.aborted_conflict += s.aborted_conflict as u64;
        self.aborted_unavailable += s.aborted_unavailable as u64;
        self.ops_completed += s.ops_completed as u64;
        self.stale_epoch_retries += s.stale_retries as u64;
        self.phase_retries += m.phase_retries;
        self.txn_reruns += m.txn_reruns;
        self.initial_rt.extend(&m.initial_rt);
        self.final_rt.extend(&m.final_rt);
        self.op_latency.extend(&m.op_latency);
        self.view_sizes.extend(&m.view_sizes);
        self.log_entries_shipped += m.log_entries_shipped;
        self.reply_payload.extend(&m.reply_payload);
        self.batches_flushed += m.batches_flushed;
        self.batch_fill.extend(&m.batch_fill);
        self.resolve_ack_retransmits += m.resolve_retransmits;
        self.frontier_stalls += m.frontier_stalls;
        self.evaluations += evals.0;
        self.eval_rebuilds += evals.1;
        self.eval_suffix_entries += evals.2;
    }

    /// Adds one repository: its health counters, the envelopes it flushed,
    /// and the final length of each of its logs.
    pub fn add_repo(
        &mut self,
        c: &RepoCounters,
        batch_fills: &[u64],
        log_lengths: impl IntoIterator<Item = u64>,
    ) {
        self.full_log_fallbacks += c.full_log_fallbacks;
        self.recoveries += c.recoveries;
        self.statuses_shipped += c.statuses_shipped;
        self.write_delta_refusals += c.write_delta_refusals;
        self.conflicting_resolutions += c.conflicting_resolutions;
        self.statuses_gcd += c.statuses_gcd;
        self.status_table_peak = self.status_table_peak.max(c.status_table_peak);
        self.batches_flushed += c.batches_flushed;
        self.batch_fill.extend(batch_fills);
        for len in log_lengths {
            self.log_lengths.record(len);
        }
    }

    /// The verdicts reached: `(committed, conflict aborts, unavailability
    /// aborts)` — what a decision-identity gate compares.
    pub fn verdicts(&self) -> (u64, u64, u64) {
        (
            self.committed,
            self.aborted_conflict,
            self.aborted_unavailable,
        )
    }

    /// Transactions that reached a verdict (committed or aborted).
    pub fn decided(&self) -> u64 {
        self.committed + self.aborted_conflict + self.aborted_unavailable
    }

    /// Fraction of decided transactions that aborted (0 when none
    /// decided) — the measured quantity the paper's comparison turns on.
    pub fn abort_rate(&self) -> f64 {
        ratio(
            self.aborted_conflict + self.aborted_unavailable,
            self.decided(),
        )
    }

    /// Network messages per completed operation (0 when none completed).
    pub fn messages_per_op(&self) -> f64 {
        ratio(self.msgs_sent, self.ops_completed)
    }

    /// Log entries shipped per completed operation (0 when none
    /// completed) — the acceptance metric for delta shipping.
    pub fn entries_shipped_per_op(&self) -> f64 {
        ratio(self.log_entries_shipped, self.ops_completed)
    }
}

/// `n / d`, or 0 when `d` is 0.
fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
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
        let mut t = RunTelemetry::for_run("hybrid", SimStats::default(), 1);
        for s in &stats {
            t.add_client(s, &ClientMetrics::default(), (0, 0, 0));
        }
        t.add_repo(&RepoCounters::default(), &[], [3, 3]);
        assert_eq!(t.committed, 5);
        assert_eq!(t.decided(), 7);
        assert_eq!(t.stale_epoch_retries, 2);
        assert!((t.abort_rate() - 2.0 / 7.0).abs() < 1e-12);
        assert_eq!(t.log_lengths.count(), 2);
    }

    /// A stored field of a record, as the table tests reach it.
    pub(super) enum Slot<'a> {
        Count(&'a mut u64),
        Hist(&'a mut LogicalHistogram),
    }

    impl<'a> From<&'a mut u64> for Slot<'a> {
        fn from(c: &'a mut u64) -> Self {
            Slot::Count(c)
        }
    }

    impl<'a> From<&'a mut LogicalHistogram> for Slot<'a> {
        fn from(h: &'a mut LogicalHistogram) -> Self {
            Slot::Hist(h)
        }
    }

    /// The table's stored rows (everything but the derived rates).
    fn stored() -> impl Iterator<Item = &'static (&'static str, Rule)> {
        (RunTelemetry::FIELDS.iter()).filter(|(_, rule)| !matches!(rule, Rule::Rate(_)))
    }

    /// A record with every stored field drawn from the stream.
    fn random_record(state: &mut u64) -> RunTelemetry {
        let mut draw = |below: u64| {
            *state = quorumcc_sim::splitmix64(*state);
            *state % below
        };
        let mut t = RunTelemetry {
            mode: "hybrid".into(),
            ..RunTelemetry::default()
        };
        for slot in t.slots() {
            match slot {
                Slot::Count(c) => *c = draw(1_000),
                Slot::Hist(h) => (0..draw(4)).for_each(|_| h.record(draw(100))),
            }
        }
        t
    }

    #[test]
    fn merge_applies_each_fields_rule() {
        let mut state = 19;
        for _ in 0..200 {
            let mut a = random_record(&mut state);
            let mut b = random_record(&mut state);
            let mut merged = a.clone();
            merged.merge(&b);

            let mut onto_a = a.clone();
            onto_a.merge(&RunTelemetry::default());
            let mut onto_blank = RunTelemetry::default();
            onto_blank.merge(&a);
            assert_eq!(onto_a.to_json(), a.to_json(), "default is a right identity");
            assert_eq!(
                onto_blank.to_json(),
                a.to_json(),
                "default is a left identity"
            );

            let (sa, sb, sm) = (a.slots(), b.slots(), merged.slots());
            assert_eq!(sa.len(), stored().count(), "one slot per stored row");
            for (i, (name, rule)) in stored().enumerate() {
                match (rule, &sa[i], &sb[i], &sm[i]) {
                    (Rule::Sum, Slot::Count(a), Slot::Count(b), Slot::Count(m)) => {
                        assert_eq!(**m, **a + **b, "{name}");
                    }
                    (Rule::Max, Slot::Count(a), Slot::Count(b), Slot::Count(m)) => {
                        assert_eq!(**m, (**a).max(**b), "{name}");
                    }
                    (Rule::Hist, Slot::Hist(a), Slot::Hist(b), Slot::Hist(m)) => {
                        assert_eq!(m.samples(), [a.samples(), b.samples()].concat(), "{name}");
                    }
                    _ => panic!("{name}: the field's type does not match its rule"),
                }
            }
        }
    }

    #[test]
    fn to_json_has_one_key_per_table_row_in_order() {
        let t = random_record(&mut 3);
        let Json::Object(members) = t.to_json() else {
            panic!("telemetry renders as an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        let rows = RunTelemetry::FIELDS;
        let want: Vec<&str> = (std::iter::once("mode"))
            .chain(rows.iter().map(|(name, _)| *name))
            .collect();
        assert_eq!(keys, want);
        for ((name, rule), (_, value)) in rows.iter().zip(&members[1..]) {
            let fits = match (rule, value) {
                (Rule::Sum | Rule::Max, Json::Int(_)) | (Rule::Hist, Json::Object(_)) => true,
                (Rule::Rate(want), Json::Fixed(_, decimals)) => want == decimals,
                _ => false,
            };
            assert!(fits, "{name}: {value:?} under {rule:?}");
        }
        let rates: Vec<_> = rows.iter().filter(|r| !stored().any(|s| s == *r)).collect();
        assert_eq!(
            rates,
            [
                &("abort_rate", Rule::Rate(4)),
                &("messages_per_op", Rule::Rate(3)),
                &("entries_shipped_per_op", Rule::Rate(3)),
            ]
        );

        let blank = RunTelemetry {
            mode: "a\"b".into(),
            ..RunTelemetry::default()
        };
        let text = blank.to_json().to_string();
        assert!(
            text.starts_with("{\n  \"mode\": \"a\\\"b\",\n  \"runs\": 0,"),
            "{text}"
        );
        assert!(text.contains("\n  \"abort_rate\": 0.0000,\n"));
        assert!(text.contains("\n  \"initial_rt\": {\"count\": 0, \"min\": 0,"));
        assert!(text.ends_with("\"mean\": 0.000}\n}"));
    }
}
