//! Deterministic socket-level fault injection.
//!
//! [`FaultShim`] wraps any `Read + Write` transport (in practice a
//! `TcpStream` or one half of it) and injects seeded faults on the byte
//! path: connection resets, read/write stalls, partial ("split") writes,
//! and silent drops. The knobs live in [`NetFaultProfile`], mirroring the
//! DES `NetworkConfig` so chaos coverage extends to the real wire, not
//! just the simulator.
//!
//! # Stream integrity
//!
//! The shim is careful never to corrupt framing mid-stream. Length-prefixed
//! frames (`tcp::write_frame`) tolerate *partial* writes (callers loop via
//! `write_all` / retained write buffers) but not *holes*: a silently dropped
//! byte range desyncs every later frame. So a "drop" is modelled as a link
//! state machine, not a per-byte lottery:
//!
//! ```text
//! Alive --drop_prob--> Blackhole(n) --n writes swallowed--> Dead
//!   |                                                        ^
//!   +--reset_prob---------------------------------------------+
//! ```
//!
//! In `Blackhole` every write is swallowed whole (reported as written);
//! after `n` swallowed writes the link goes `Dead` and all further I/O
//! fails with `BrokenPipe`/`ConnectionReset`. The receiver therefore sees
//! a clean frame prefix, then silence, then connection death — exactly the
//! failure a supervised link must detect and repair by reconnecting and
//! retransmitting unacked frames.
//!
//! A stall is a one-shot spurious `WouldBlock`: both socket transports
//! are nonblocking and try again on a later turn. All randomness is a
//! private splitmix64 stream seeded from the profile seed and a per-link
//! id, so runs are reproducible.

use std::io::{self, Read, Write};

use quorumcc_sim::{chance, splitmix64};

/// Knobs for socket-level fault injection, mirroring the DES
/// `NetworkConfig` shape (probabilities per I/O call, not per byte).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaultProfile {
    /// Per-call probability that the link dies with `ConnectionReset`.
    pub reset_prob: f64,
    /// Per-call probability of a stall (a spurious `WouldBlock`).
    pub stall_prob: f64,
    /// Per-write probability that only a prefix of the buffer is written
    /// (callers must loop, as `write_all` does).
    pub split_prob: f64,
    /// Per-write probability of entering the blackhole state: this write
    /// and the next few are swallowed, then the link dies.
    pub drop_prob: f64,
    /// Seed for the shim's private splitmix64 stream.
    pub seed: u64,
}

/// Writes swallowed in the blackhole state before the link dies.
const BLACKHOLE_WRITES: u32 = 4;

impl NetFaultProfile {
    /// No faults at all — the identity profile.
    pub fn none() -> Self {
        NetFaultProfile {
            reset_prob: 0.0,
            stall_prob: 0.0,
            split_prob: 0.0,
            drop_prob: 0.0,
            seed: 0,
        }
    }

    /// A mildly hostile WAN: occasional resets and drops, frequent split
    /// writes and short stalls. Survivable with supervision; fatal without.
    pub fn lossy(seed: u64) -> Self {
        NetFaultProfile {
            reset_prob: 0.002,
            stall_prob: 0.01,
            split_prob: 0.05,
            drop_prob: 0.001,
            seed,
        }
    }

    /// A hostile link for stress runs: every fault class cranked up.
    pub fn stormy(seed: u64) -> Self {
        NetFaultProfile {
            reset_prob: 0.01,
            stall_prob: 0.05,
            split_prob: 0.2,
            drop_prob: 0.005,
            seed,
        }
    }

    /// Parses a named profile: `none`, `lossy`, `stormy`, or
    /// `lossy:SEED` / `stormy:SEED` to pin the chaos seed.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (name, seed) = match s.split_once(':') {
            Some((n, v)) => {
                let seed: u64 = v
                    .parse()
                    .map_err(|_| format!("bad fault-profile seed {v:?}"))?;
                (n, seed)
            }
            None => (s, 0x5eed_fa17),
        };
        match name {
            "none" | "off" => Ok(NetFaultProfile::none()),
            "lossy" => Ok(NetFaultProfile::lossy(seed)),
            "stormy" => Ok(NetFaultProfile::stormy(seed)),
            other => Err(format!(
                "unknown fault profile {other:?} (expected none|lossy|stormy[:seed])"
            )),
        }
    }

    /// True when every knob is zero — the shim short-circuits to the
    /// inner transport.
    pub fn is_none(&self) -> bool {
        self.reset_prob == 0.0
            && self.stall_prob == 0.0
            && self.split_prob == 0.0
            && self.drop_prob == 0.0
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum LinkState {
    Alive,
    /// Swallowing writes; dies after the counter hits zero.
    Blackhole(u32),
    Dead,
}

/// Fault counters a host harvests after a run (diagnostics only — the
/// protocol-visible effects surface as reconnects and retransmits).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShimCounters {
    pub resets: u64,
    pub stalls: u64,
    pub splits: u64,
    pub drops: u64,
}

/// A `Read + Write` wrapper that injects the faults described by a
/// [`NetFaultProfile`] into a nonblocking transport. One shim carries
/// both directions of a connection, so a reset seen by a read also fails
/// the writes after it.
pub struct FaultShim<S> {
    inner: S,
    profile: NetFaultProfile,
    rng: u64,
    state: LinkState,
    pub counters: ShimCounters,
}

impl<S> FaultShim<S> {
    /// Wraps `inner`. `link_id` keys the chaos stream so distinct links
    /// fault independently but reproducibly.
    pub fn new(inner: S, profile: NetFaultProfile, link_id: u64) -> Self {
        FaultShim {
            inner,
            rng: splitmix64(profile.seed ^ splitmix64(link_id.wrapping_add(1))),
            profile,
            state: LinkState::Alive,
            counters: ShimCounters::default(),
        }
    }

    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    pub fn get_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    fn dead_err(&self) -> io::Error {
        io::Error::new(io::ErrorKind::BrokenPipe, "faultshim: link dead")
    }

    fn reset_err(&self) -> io::Error {
        io::Error::new(io::ErrorKind::ConnectionReset, "faultshim: injected reset")
    }

    fn stall(&mut self) -> io::Error {
        self.counters.stalls += 1;
        io::Error::new(io::ErrorKind::WouldBlock, "faultshim: injected stall")
    }
}

impl<S: Read> Read for FaultShim<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.profile.is_none() {
            return self.inner.read(buf);
        }
        match self.state {
            LinkState::Dead => return Err(self.reset_err()),
            LinkState::Blackhole(_) => {} // reads still flow until death
            LinkState::Alive => {}
        }
        if chance(&mut self.rng, self.profile.reset_prob) {
            self.state = LinkState::Dead;
            self.counters.resets += 1;
            return Err(self.reset_err());
        }
        if chance(&mut self.rng, self.profile.stall_prob) {
            return Err(self.stall());
        }
        // Short read: hand back at most half the buffer. Framing-safe —
        // a transport's growing read buffer tolerates arbitrary read
        // splits.
        if buf.len() > 1 && chance(&mut self.rng, self.profile.split_prob) {
            self.counters.splits += 1;
            let half = buf.len() / 2;
            return self.inner.read(&mut buf[..half]);
        }
        self.inner.read(buf)
    }
}

impl<S: Write> Write for FaultShim<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.profile.is_none() {
            return self.inner.write(buf);
        }
        match self.state {
            LinkState::Dead => return Err(self.dead_err()),
            LinkState::Blackhole(n) => {
                // Swallow whole writes so framing never desyncs; die after
                // the countdown so the failure is eventually detectable.
                if n == 0 {
                    self.state = LinkState::Dead;
                    return Err(self.dead_err());
                }
                self.state = LinkState::Blackhole(n - 1);
                return Ok(buf.len());
            }
            LinkState::Alive => {}
        }
        if chance(&mut self.rng, self.profile.reset_prob) {
            self.state = LinkState::Dead;
            self.counters.resets += 1;
            return Err(self.reset_err());
        }
        if chance(&mut self.rng, self.profile.drop_prob) {
            self.state = LinkState::Blackhole(BLACKHOLE_WRITES);
            self.counters.drops += 1;
            return Ok(buf.len());
        }
        if chance(&mut self.rng, self.profile.stall_prob) {
            return Err(self.stall());
        }
        if buf.len() > 1 && chance(&mut self.rng, self.profile.split_prob) {
            self.counters.splits += 1;
            return self.inner.write(&buf[..buf.len() / 2]);
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        match self.state {
            LinkState::Dead => Err(self.dead_err()),
            // Pretend success: the bytes went into the hole.
            LinkState::Blackhole(_) => Ok(()),
            LinkState::Alive => self.inner.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_profile_is_transparent() {
        let mut shim = FaultShim::new(Vec::new(), NetFaultProfile::none(), 1);
        shim.write_all(b"hello").unwrap();
        shim.flush().unwrap();
        assert_eq!(shim.get_ref(), b"hello");
        assert_eq!(shim.counters, ShimCounters::default());
    }

    #[test]
    fn profiles_parse_by_name() {
        assert!(NetFaultProfile::parse("none").unwrap().is_none());
        assert!(!NetFaultProfile::parse("lossy").unwrap().is_none());
        assert_eq!(NetFaultProfile::parse("stormy:42").unwrap().seed, 42);
        assert!(NetFaultProfile::parse("tsunami").is_err());
        assert!(NetFaultProfile::parse("lossy:zzz").is_err());
    }

    #[test]
    fn split_writes_never_corrupt_framing() {
        // Heavy split probability but no drops/resets: write_all loops
        // until done, so the sink must hold the exact byte stream.
        let profile = NetFaultProfile {
            split_prob: 0.9,
            ..NetFaultProfile::lossy(7)
        };
        let profile = NetFaultProfile {
            reset_prob: 0.0,
            drop_prob: 0.0,
            stall_prob: 0.0,
            ..profile
        };
        let mut shim = FaultShim::new(Vec::new(), profile, 3);
        let payload: Vec<u8> = (0..4096).map(|i| (i % 251) as u8).collect();
        shim.write_all(&payload).unwrap();
        assert_eq!(shim.get_ref(), &payload);
        assert!(shim.counters.splits > 0, "expected split writes to fire");
    }

    #[test]
    fn blackhole_swallows_then_kills() {
        let profile = NetFaultProfile {
            drop_prob: 1.0,
            reset_prob: 0.0,
            stall_prob: 0.0,
            split_prob: 0.0,
            seed: 9,
        };
        let mut shim = FaultShim::new(Vec::new(), profile, 5);
        // First write enters the blackhole and is swallowed.
        assert_eq!(shim.write(b"lost").unwrap(), 4);
        // The next few writes are swallowed too, then the link dies.
        let mut died = false;
        for _ in 0..=BLACKHOLE_WRITES {
            match shim.write(b"x") {
                Ok(1) => {}
                Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                    died = true;
                    break;
                }
                other => panic!("unexpected result {other:?}"),
            }
        }
        assert!(died, "blackhole link never died");
        assert!(shim.get_ref().is_empty(), "blackhole leaked bytes");
        // Once dead, everything fails.
        assert!(shim.write(b"x").is_err());
        assert!(shim.flush().is_err());
    }

    #[test]
    fn injected_reset_is_deterministic_per_seed() {
        let profile = NetFaultProfile {
            reset_prob: 0.3,
            stall_prob: 0.0,
            split_prob: 0.0,
            drop_prob: 0.0,
            seed: 77,
        };
        let run = |link: u64| {
            let mut shim = FaultShim::new(Vec::new(), profile, link);
            let mut survived = 0u32;
            for _ in 0..64 {
                match shim.write_all(b"abc") {
                    Ok(()) => survived += 1,
                    Err(_) => break,
                }
            }
            survived
        };
        assert_eq!(run(1), run(1), "same link id must replay identically");
        // Not a hard guarantee, but with these seeds the streams differ.
        assert_ne!(run(1), run(2), "distinct links should fault independently");
    }

    #[test]
    fn nonblocking_stall_surfaces_as_wouldblock() {
        let profile = NetFaultProfile {
            stall_prob: 1.0,
            reset_prob: 0.0,
            split_prob: 0.0,
            drop_prob: 0.0,
            seed: 3,
        };
        let mut shim = FaultShim::new(Vec::new(), profile, 8);
        let err = shim.write(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(shim.counters.stalls, 1);
        // Reads stall the same way, even with bytes waiting.
        let mut shim = FaultShim::new(&b"abc"[..], profile, 8);
        let err = shim.read(&mut [0u8; 4]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);
        assert_eq!(shim.counters.stalls, 1);
    }
}
