//! # quorumcc — typed quorum consensus and atomicity mechanisms
//!
//! A mechanized reproduction of Maurice Herlihy, *"Comparing How Atomicity
//! Mechanisms Support Replication"*, PODC 1985: the Weihl model of atomic
//! typed objects, decision procedures for atomic dependency relations under
//! static, hybrid, and strong dynamic atomicity, quorum assignments and
//! availability analysis, and a full quorum-consensus replication system
//! over a deterministic discrete-event simulator.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`model`] — histories, sequential specifications, atomicity checkers
//! * [`adts`] — the paper's data types (Queue, PROM, FlagSet, DoubleBuffer, …)
//! * [`core`] — dependency relations: computation, verification, theorems
//! * [`quorum`] — quorum assignments, intersection constraints, availability
//! * [`sim`] — deterministic discrete-event simulation substrate
//! * [`replication`] — repositories, front-ends, transactions, CC protocols,
//!   and the sans-I/O protocol drivers both backends host
//! * [`net`] — the real-socket backend: wire codec, TCP framing, and the
//!   `exp_load` harness (`qcc load`)
//!
//! See `README.md` for a tour and `EXPERIMENTS.md` for the paper-vs-measured
//! record of every table and figure.

#![forbid(unsafe_code)]

mod error;

pub use error::Error;
pub use quorumcc_adts as adts;
pub use quorumcc_core as core;
pub use quorumcc_model as model;
pub use quorumcc_net as net;
pub use quorumcc_quorum as quorum;
pub use quorumcc_replication as replication;
pub use quorumcc_sim as sim;

/// One-stop imports for driving replicated runs.
///
/// `use quorumcc::prelude::*;` brings in everything needed to configure
/// a cluster with [`RunBuilder`](prelude::RunBuilder) — including the
/// sans-I/O surface ([`Driver`](prelude::Driver),
/// [`Input`](prelude::Input)/[`Output`](prelude::Output),
/// [`BackendKind`](prelude::BackendKind) for `RunBuilder::backend`, and
/// the [`run_load`](prelude::run_load) socket harness) — inspect the
/// resulting [`RunReport`](prelude::RunReport) and
/// [`RunTelemetry`](prelude::RunTelemetry), and check captured histories
/// against the paper's atomicity properties:
///
/// ```
/// use quorumcc::prelude::*;
/// use quorumcc::model::testtypes::{QInv, TestQueue};
///
/// let report = RunBuilder::<TestQueue>::new(3)
///     .protocol(ProtocolConfig::new(Protocol::new(
///         Mode::Hybrid,
///         quorumcc::core::DependencyRelation::full::<TestQueue>(),
///     )))
///     .workload(vec![vec![Transaction {
///         ops: vec![(ObjId(0), QInv::Enq(1))],
///     }]])
///     .run()
///     .unwrap();
/// assert_eq!(report.stats().committed, 1);
/// ```
pub mod prelude {
    pub use crate::error::Error;
    pub use quorumcc_model::spec::ExploreBounds;
    pub use quorumcc_net::{run_load, LoadConfig, LoadReport, Wire};
    pub use quorumcc_quorum::ThresholdAssignment;
    pub use quorumcc_replication::{
        BackendKind, ClientMetrics, ClientStats, CollectIo, Config, ConfigState, Driver, Fanout,
        Input, Io, LogicalHistogram, Mode, Msg, ObjId, Output, Protocol, ProtocolConfig,
        ReconfigPolicy, ReconfigRecord, ReplicationError, RunBuilder, RunReport, RunTelemetry,
        Transaction, TuningConfig,
    };
    pub use quorumcc_sim::trace::{TraceAction, TraceBuffer, TraceConfig, TraceEvent};
    pub use quorumcc_sim::{FaultPlan, NetworkConfig, ProcId, SimTime, Timestamp};
}
