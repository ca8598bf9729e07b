//! Deterministic discrete-event simulation substrate for the replicated
//! system: sites, lossy links, crashes, partitions, and Lamport clocks.
//!
//! The paper's fault model (§3) — sites crash and recover, links lose
//! messages, long-lived failures partition functioning sites — is
//! reproduced exactly and *deterministically*: an execution is a pure
//! function of the drivers, the network configuration, the fault plan,
//! and one RNG seed. That determinism is what lets the replication layer's
//! end-to-end tests assert atomicity of every captured history.
//!
//! * [`clock`] — Lamport clocks, totally-ordered unique timestamps.
//! * [`fault`] — crash and partition schedules.
//! * [`node`] — what a node is on every host: a [`Driver`] fed [`Input`]s,
//!   acting through an [`Io`], the [`CollectIo`].
//! * [`host`] — the one stepping loop ([`host::run`]) over a transport.
//! * [`engine`] — the network model and the simulator ([`Sim`]): the loop
//!   over the in-memory [`host::Loopback`].
//! * [`explore`] — exhaustive interleaving enumeration over the same
//!   drivers, with partial-order reduction.
//! * [`json`] — the one JSON writer every report and artifact goes through.
//! * [`trace`] — zero-overhead-when-disabled structured run traces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod engine;
pub mod explore;
pub mod fault;
pub mod host;
pub mod json;
pub mod node;
pub mod trace;

pub use clock::{LamportClock, Timestamp};
pub use engine::{NetworkConfig, Sim, SimStats};
pub use explore::{ExploreConfig, ExploreHooks, ExploreOutcome, ExploreStats, Witness};
pub use fault::{FaultPlan, ProcId, SimTime};
pub use json::Json;
pub use node::{CollectIo, Driver, Input, Io, Output};
pub use trace::{
    AbortCause, ConflictKind, DropCause, PhaseKind, TraceAction, TraceBuffer, TraceConfig,
    TraceEvent,
};

/// The splitmix64 increment (2^64 / φ): stepping a counter by it and
/// mixing with [`splitmix64`] yields the generator's output stream.
pub const SPLITMIX64_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One splitmix64 step: the workspace's seed-derivation mixer. Every
/// derived seed (per-cell, per-client, per-link, per-explored-event) is a
/// pure function of this, and the benchmark package restates those
/// derivations by hand — changing an output silently forks its replay.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bernoulli draw from a splitmix64 stream: advances `state` and returns
/// whether a uniform `[0, 1)` sample fell below `p`. A non-positive `p`
/// draws nothing, so a zero-probability fault leaves the stream untouched.
pub fn chance(state: &mut u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    *state = splitmix64(*state);
    ((*state >> 11) as f64) / ((1u64 << 53) as f64) < p
}

#[cfg(test)]
mod tests {
    use super::splitmix64;

    /// Known input → output pairs (the first is the reference generator's
    /// first output for seed 0). `0x5eed` is the offset of cell 0's seed.
    #[test]
    fn splitmix64_outputs_are_pinned() {
        for (x, want) in [
            (0x0, 0xe220_a839_7b1d_cdaf_u64),
            (0x1, 0x910a_2dec_8902_5cc1),
            (0x5eed, 0x09f1_fd9d_03f0_a9b4),
            (0x5eee, 0xd8dc_0b86_7152_5512),
            (u64::MAX, 0xe4d9_7177_1b65_2c20),
            (0xdead_beef_cafe_f00d, 0x901d_4f65_2fb4_72cb),
        ] {
            assert_eq!(splitmix64(x), want, "splitmix64({x:#x})");
        }
    }
}
