//! Real-socket backend for the sans-I/O replication core.
//!
//! The protocol drivers in `quorumcc_replication` never perform I/O — they
//! consume [`Input`](quorumcc_replication::Input)s and buffer
//! [`Output`](quorumcc_replication::Output)s through a
//! [`CollectIo`](quorumcc_replication::CollectIo). This crate hosts those
//! same drivers over loopback TCP:
//!
//! * [`wire`] — a round-trip byte codec for the [`Msg`] alphabet
//!   (little-endian, tag-per-variant, op-class strings re-interned on
//!   decode).
//! * [`tcp`] — length-prefixed framing tagged with flat-id `from`/`to`, so
//!   one connection multiplexes many lightweight clients.
//! * [`load`] — the `exp_load` harness: a worker pool driving tens to
//!   hundreds of thousands of client drivers against a real-socket
//!   repository cluster, reporting throughput and latency SLO percentiles.
//!   Both sides run `quorumcc_replication::host::run`; this crate supplies
//!   only the two socket transports under it.
//! * [`fault`] — deterministic socket-level fault injection
//!   ([`fault::FaultShim`]) plus connection supervision knobs, so the
//!   chaos envelope covers the real wire path too.
//! * `ready` — blocking on socket readiness (`ppoll(2)`): the crate's
//!   only `unsafe`, and the way both socket transports idle.
//!
//! [`Msg`]: quorumcc_replication::Msg

#![deny(unsafe_code)]

pub mod fault;
pub mod load;
#[allow(unsafe_code)]
mod ready;
pub mod tcp;
pub mod wire;

pub use fault::{FaultShim, NetFaultProfile};
pub use load::{run_load, CrashSpec, LoadBackend, LoadConfig, LoadReport};
pub use wire::{decode, encode, Wire};
