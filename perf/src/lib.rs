//! `quorumcc-perf`: the socket-host benchmark.
//!
//! End-to-end numbers come from the event-loop socket host, driven through
//! the public `quorumcc_net::run_load` with tracing off ([`sock`]). The
//! per-layer ledger comes from a separate traced pass ([`replay`]): a
//! single-threaded in-process replay of the same seeded round with one
//! in-memory span ([`trace`]) around every call into a layer. The
//! workloads are in [`workload`], the metric tables in [`metrics`], and
//! the run modes (`--workload`, `--all`, `compare`) in [`run`].

pub mod json;
pub mod metrics;
pub mod replay;
pub mod run;
pub mod sock;
pub mod trace;
pub mod workload;
