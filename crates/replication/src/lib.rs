//! Quorum-consensus replication of typed objects (§3.2 of the paper),
//! over the deterministic simulator.
//!
//! The architecture follows the paper exactly:
//!
//! * **Repositories** ([`repository`]) store partially-replicated
//!   timestamped logs ([`types`]).
//! * **Front-ends** (embedded in [`client`]) execute an invocation by
//!   merging the logs of an *initial quorum* into a view, running the
//!   concurrency-control discipline ([`protocol`]), choosing a response
//!   legal for the view, appending a freshly stamped entry, and writing
//!   the updated view to a *final quorum*.
//! * **Three concurrency-control protocols** implement the three local
//!   atomicity properties the paper compares: `StaticTs` (Reed-style
//!   timestamping), `Hybrid` (commit-time timestamps + dependency locks),
//!   and `Dynamic2pl` (two-phase locking on non-commuting classes).
//! * Every run captures the global behavioral history per object
//!   ([`history`]); tests feed them back into `quorumcc-model`'s
//!   atomicity checkers — replication and the theory validate each other.
//! * **Online reconfiguration** ([`reconfig`]): epoch-stamped
//!   configurations installed through a joint phase, with stale-epoch
//!   refusal and free client retries — quorum assignments can follow
//!   availability as sites fail.
//! * **Chaos layer** ([`chaos`], [`oracle`]): lossy/duplicating/
//!   reordering networks, volatile-crash recovery with a write-ahead
//!   mirror ([`repository::Durability`]), and an online safety oracle
//!   auditing every run for atomicity, lost writes, version/epoch
//!   monotonicity, and checkpoint nesting — plus a deterministic fuzz
//!   driver that shrinks failures to minimal reproducing plans.
//!
//! Substitutions vs. the paper's setting (see DESIGN.md): real sites and
//! networks become the deterministic DES of `quorumcc-sim`; the atomic
//! commitment protocol is a coordinator broadcast with gossip-carried
//! resolutions (commit protocols are orthogonal to the paper's analysis);
//! blocking lock waits are replaced by abort-and-retry (deadlock-free, and
//! the abort *rate* is itself one of the measured quantities).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod chaos;
pub mod client;
pub mod cluster;
pub mod driver;
pub mod error;
pub mod explore;
pub mod history;
pub mod host;
pub mod messages;
pub mod metrics;
pub mod oracle;
pub mod protocol;
pub mod reconfig;
pub mod repository;
mod spec;
pub mod types;
pub mod workload;

pub use backend::BackendKind;
pub use chaos::{ChaosConfig, ChaosOutcome, ChaosPlan, ChaosProfile, ProfileStats};
pub use client::{Client, ClientConfig, ClientStats, Fanout, Transaction};
pub use cluster::{Assembly, Node, ProtocolConfig, RunBuilder, RunReport, TuningConfig};
pub use driver::{CollectIo, DesAdapter, Driver, Input, Io, Output};
pub use error::ReplicationError;
pub use explore::{ExploreReplay, ExploreSetup, ExploreSpec, Knob};
pub use messages::Msg;
pub use metrics::{ClientMetrics, LogicalHistogram, RunTelemetry};
pub use oracle::{SafetyReport, SafetyViolation};
pub use protocol::{Conflict, ConflictReason, EvalCache, Mode, Protocol};
pub use reconfig::{Config, ConfigState, ReconfigPolicy, ReconfigRecord, Reconfigurer};
pub use repository::{Durability, RepoCounters, Repository};
pub use types::{
    ActionOutcome, Checkpoint, CompactionConfig, LogDelta, LogEntry, ObjId, ObjectLog, VersionedLog,
};
