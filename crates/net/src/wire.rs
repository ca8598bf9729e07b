//! Wire codec for protocol messages.
//!
//! A real-socket backend needs a *round-trip* codec for the whole [`Msg`]
//! alphabet. This module provides one: a little-endian, length-delimited
//! encoding with a one-byte tag per enum variant, built from composable
//! [`Wire`] impls on every payload component.
//!
//! Two deliberate gates keep the codec total on the load-harness path:
//!
//! * **Checkpoints are not wire-encodable.** A [`Checkpoint`] carries a
//!   type-erased state summary (`Arc<dyn Any>`), so the TCP backend runs
//!   with compaction off; encoding a checkpointed log is a programming
//!   error and panics.
//! * **Reconfiguration frames (`Install`/`InstallAck`/`SyncReq`/
//!   `StaleConfig`) are not encoded.** The harness runs a fixed
//!   configuration; hitting one of these on the socket path is likewise a
//!   programming error.
//!
//! Operation classes travel as strings and are re-interned on decode (the
//! protocol stores them as `&'static str`) against the classes the wire's
//! one data type declares; a string naming none of them is malformed
//! input, so nothing a peer sends is ever kept.
//!
//! [`Checkpoint`]: quorumcc_replication::Checkpoint

use std::sync::OnceLock;

use quorumcc_adts::queue::{Queue, QueueInv, QueueRes};
use quorumcc_model::{ActionId, Classified, Event};
use quorumcc_replication::types::{ActionOutcome, LogDelta, LogEntry, ObjId, ObjectLog};
use quorumcc_replication::Msg;
use quorumcc_sim::Timestamp;

/// A cursor over a received byte buffer; every `take` advances it.
pub struct Reader<'a>(pub &'a [u8]);

impl Reader<'_> {
    fn bytes(&mut self, n: usize) -> Option<&[u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Some(head)
    }
}

/// Round-trip byte encoding. `decode(encode(x)) == x` for every value the
/// load harness ships (see the proptests in this module's test suite).
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Decodes one value, advancing the reader; `None` on malformed input.
    fn take(inp: &mut Reader<'_>) -> Option<Self>;
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn take(inp: &mut Reader<'_>) -> Option<Self> {
                let raw = inp.bytes(std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(raw.try_into().ok()?))
            }
        }
    )*};
}
wire_int!(u8, u16, u32, u64);

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn take(inp: &mut Reader<'_>) -> Option<Self> {
        match u8::take(inp)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for v in self {
            v.put(out);
        }
    }
    fn take(inp: &mut Reader<'_>) -> Option<Self> {
        let n = u32::take(inp)? as usize;
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(T::take(inp)?);
        }
        Some(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn take(inp: &mut Reader<'_>) -> Option<Self> {
        Some((A::take(inp)?, B::take(inp)?))
    }
}

/// Interns a decoded operation-class string: the protocol compares classes
/// by value but stores `&'static str`. The table is the operation classes
/// of [`Queue`] — the one data type with a wire encoding — built once;
/// `None` for any other string.
fn intern(s: &str) -> Option<&'static str> {
    static TABLE: OnceLock<Vec<&'static str>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut ops = Queue::op_classes();
        ops.extend(Queue::event_classes().iter().map(|class| class.op));
        ops
    });
    table.iter().copied().find(|op| *op == s)
}

impl Wire for &'static str {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn take(inp: &mut Reader<'_>) -> Option<Self> {
        let n = u32::take(inp)? as usize;
        let raw = inp.bytes(n)?;
        intern(std::str::from_utf8(raw).ok()?)
    }
}

/// Declares a type's layout once — its fields in wire order, each beside
/// the type whose encoding it uses — and generates [`Wire::put`] and
/// [`Wire::take`] from that one list, so the two directions cannot differ
/// in order or width (a tuple struct's field is `0`). An enum lists
/// `tag => Variant`, the tag being the one byte that precedes the variant's
/// fields; a `put`/`take` pair of blocks after it adds the match arms that
/// are not mechanical.
macro_rules! wire {
    (struct $name:ident $(<$($g:ident),*>)? { $($field:tt: $ty:ty),* $(,)? }) => {
        impl$(<$($g: Wire),*>)? Wire for $name$(<$($g),*>)? {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }
            fn take(inp: &mut Reader<'_>) -> Option<Self> {
                Some($name { $($field: <$ty as Wire>::take(inp)?),* })
            }
        }
    };
    (enum $name:ident $(<$($g:ident $(: $bound:ident)?),*>)? {
        $($tag:literal => $variant:ident
            $(($bind:ident: $ty:ty))?
            $({ $($field:ident: $fty:ty),* $(,)? })?),* $(,)?
    } put |$out:ident| { $($put_arms:tt)* } take |$inp:ident| { $($take_arms:tt)* }) => {
        impl$(<$($g: Wire $(+ $bound)?),*>)? Wire for $name$(<$($g),*>)? {
            fn put(&self, $out: &mut Vec<u8>) {
                match self {
                    $($name::$variant $(($bind))? $({ $($field),* })? => {
                        $out.push($tag);
                        $($bind.put($out);)?
                        $($($field.put($out);)*)?
                    })*
                    $($put_arms)*
                }
            }
            fn take($inp: &mut Reader<'_>) -> Option<Self> {
                Some(match u8::take($inp)? {
                    $($tag => $name::$variant
                        $((<$ty as Wire>::take($inp)?))?
                        $({ $($field: <$fty as Wire>::take($inp)?),* })?,)*
                    $($take_arms)*
                    _ => return None,
                })
            }
        }
    };
    (enum $name:ident $(<$($g:ident),*>)? { $($variants:tt)* }) => {
        wire! { enum $name $(<$($g),*>)? { $($variants)* } put |out| {} take |inp| {} }
    };
}

wire! { enum Option<T> {
    0 => None,
    1 => Some(v: T),
} }
wire! { struct Timestamp { counter: u64, node: u32 } }
wire! { struct ActionId { 0: u32 } }
wire! { struct ObjId { 0: u16 } }
wire! { enum ActionOutcome {
    0 => Active,
    1 => Committed(ts: Timestamp),
    2 => Aborted,
} }
wire! { struct Event<I, R> { inv: I, res: R } }
wire! { struct LogEntry<I, R> {
    ts: Timestamp,
    action: ActionId,
    begin_ts: Timestamp,
    event: Event<I, R>,
} }

// Queue payloads — the data type the load harness ships.
wire! { enum QueueInv {
    0 => Enq(x: u32),
    1 => Deq,
} }
wire! { enum QueueRes {
    0 => Ok,
    1 => Item(x: u32),
    2 => Empty,
} }

// The two log encodings stay written out: neither is a field list. Both
// refuse a checkpoint, both read their statuses through `take_statuses`,
// and an `ObjectLog` is rebuilt through `insert`/`resolve` because its
// fields are not ours to fill in.

/// A status list: one status per action, in action order, as both log
/// encodings write it. A list naming an action twice is malformed and
/// refused here, before its second resolution could meet the first in a
/// log.
fn take_statuses(inp: &mut Reader<'_>) -> Option<Vec<(ActionId, ActionOutcome)>> {
    let statuses: Vec<(ActionId, ActionOutcome)> = Vec::take(inp)?;
    statuses
        .windows(2)
        .all(|w| w[0].0 < w[1].0)
        .then_some(statuses)
}

impl<I: Wire + Clone, R: Wire + Clone> Wire for LogDelta<I, R> {
    fn put(&self, out: &mut Vec<u8>) {
        assert!(
            self.checkpoint.is_none(),
            "checkpoints are not wire-encodable; run the socket backend with compaction off"
        );
        self.base.put(out);
        self.head.put(out);
        self.full.put(out);
        self.entries.put(out);
        self.statuses.put(out);
    }
    fn take(inp: &mut Reader<'_>) -> Option<Self> {
        Some(LogDelta {
            base: u64::take(inp)?,
            head: u64::take(inp)?,
            full: bool::take(inp)?,
            entries: Vec::take(inp)?,
            statuses: take_statuses(inp)?,
            checkpoint: None,
        })
    }
}

impl<I: Wire + Clone, R: Wire + Clone> Wire for ObjectLog<I, R> {
    fn put(&self, out: &mut Vec<u8>) {
        assert!(
            self.checkpoint().is_none(),
            "checkpoints are not wire-encodable; run the socket backend with compaction off"
        );
        self.gc_aborted().put(out);
        let entries: Vec<&LogEntry<I, R>> = self.entries().collect();
        (entries.len() as u32).put(out);
        for e in entries {
            e.put(out);
        }
        let statuses: Vec<(ActionId, ActionOutcome)> = self.statuses().collect();
        statuses.put(out);
    }
    fn take(inp: &mut Reader<'_>) -> Option<Self> {
        let gc = bool::take(inp)?;
        let mut log = ObjectLog::new();
        log.set_gc_aborted(gc);
        let n = u32::take(inp)? as usize;
        for _ in 0..n {
            log.insert(LogEntry::take(inp)?);
        }
        for (a, o) in take_statuses(inp)? {
            log.resolve(a, o);
        }
        Some(log)
    }
}

/// The tag of [`Msg::Batch`], the one variant whose payload is read under
/// a condition.
const BATCH: u8 = 5;

wire! { enum Msg<I: Clone, R: Clone> {
    0 => ReadLog {
        obj: ObjId,
        req: u64,
        action: ActionId,
        begin_ts: Timestamp,
        op: &'static str,
        cfg: u64,
        since: u64,
        durable: u64,
    },
    1 => LogReply { obj: ObjId, req: u64, delta: LogDelta<I, R> },
    2 => WriteLog {
        obj: ObjId,
        req: u64,
        log: ObjectLog<I, R>,
        entry: Option<LogEntry<I, R>>,
        cfg: u64,
        base: u64,
    },
    3 => WriteAck { obj: ObjId, req: u64, conflict: Option<ActionId> },
    4 => Resolve { action: ActionId, outcome: ActionOutcome, entries: Vec<(ObjId, u32)> },
    6 => ResolveAck { action: ActionId },
    7 => WriteRefused { obj: ObjId, req: u64 },
} put |out| {
    Msg::Batch(inner) => {
        out.push(BATCH);
        inner.put(out);
    }
    Msg::Install { .. } | Msg::InstallAck { .. } | Msg::SyncReq | Msg::StaleConfig { .. } => {
        unreachable!(
            "reconfiguration frames are not wire-encodable; \
             the socket backend runs a fixed configuration"
        )
    }
} take |inp| {
    BATCH => {
        // The batcher only ever wraps raw payloads, so an envelope
        // inside an envelope is corrupt — and following it would
        // recurse once per five received bytes.
        let n = u32::take(inp)? as usize;
        let mut inner = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            if inp.0.first() == Some(&BATCH) {
                return None;
            }
            inner.push(Msg::take(inp)?);
        }
        Msg::Batch(inner)
    }
} }

/// Encodes one value to a fresh buffer.
pub fn encode<T: Wire>(v: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    v.put(&mut out);
    out
}

/// Decodes one value, requiring the buffer to be fully consumed.
pub fn decode<T: Wire>(buf: &[u8]) -> Option<T> {
    let mut r = Reader(buf);
    let v = T::take(&mut r)?;
    r.0.is_empty().then_some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let buf = encode(&v);
        assert_eq!(decode::<T>(&buf).as_ref(), Some(&v), "{} bytes", buf.len());
    }

    /// For types without `PartialEq` (their payloads carry type-erased
    /// checkpoints): compare the Debug rendering of the round trip.
    fn roundtrip_dbg<T: Wire + std::fmt::Debug>(v: T) {
        let buf = encode(&v);
        let back = decode::<T>(&buf).expect("decode");
        assert_eq!(format!("{back:?}"), format!("{v:?}"));
    }

    #[test]
    fn scalars_and_composites_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(Some(ObjId(7)));
        roundtrip(Option::<ObjId>::None);
        roundtrip(vec![
            Timestamp {
                counter: 3,
                node: 1,
            },
            Timestamp::ZERO,
        ]);
        roundtrip(ActionOutcome::Committed(Timestamp {
            counter: 9,
            node: 2,
        }));
        roundtrip(QueueInv::Enq(41));
        roundtrip(QueueRes::Empty);
    }

    #[test]
    fn op_class_strings_reintern() {
        let buf = encode(&"Enq");
        let back = decode::<&'static str>(&buf).unwrap();
        assert_eq!(back, "Enq");
        // Decoding the same class twice yields the same interned pointer.
        let again = decode::<&'static str>(&buf).unwrap();
        assert!(std::ptr::eq(back, again));
        // Every class the data type declares is in the table; a string
        // that names none is malformed input, not a new class.
        for op in Queue::op_classes() {
            assert_eq!(decode::<&'static str>(&encode(&op)), Some(op));
        }
        for hostile in ["", "enq", "Enq ", "Peek"] {
            assert_eq!(decode::<&'static str>(&encode(&hostile)), None);
        }
    }

    #[test]
    fn messages_roundtrip() {
        let entry = LogEntry {
            ts: Timestamp {
                counter: 5,
                node: 3,
            },
            action: ActionId(2),
            begin_ts: Timestamp {
                counter: 4,
                node: 3,
            },
            event: Event::new(QueueInv::Enq(1), QueueRes::Ok),
        };
        let mut log: ObjectLog<QueueInv, QueueRes> = ObjectLog::new();
        log.insert(entry.clone());
        log.resolve(
            ActionId(2),
            ActionOutcome::Committed(Timestamp {
                counter: 6,
                node: 3,
            }),
        );

        let msgs: Vec<Msg<QueueInv, QueueRes>> = vec![
            Msg::ReadLog {
                obj: ObjId(1),
                req: 42,
                action: ActionId(2),
                begin_ts: Timestamp {
                    counter: 4,
                    node: 3,
                },
                op: "Deq",
                cfg: 0,
                since: 7,
                durable: 3,
            },
            Msg::LogReply {
                obj: ObjId(1),
                req: 42,
                delta: LogDelta {
                    base: 7,
                    head: 9,
                    full: false,
                    entries: vec![entry.clone()],
                    statuses: vec![(ActionId(2), ActionOutcome::Aborted)],
                    checkpoint: None,
                },
            },
            Msg::WriteLog {
                obj: ObjId(1),
                req: 43,
                log: log.clone(),
                entry: Some(entry.clone()),
                cfg: 0,
                base: 0,
            },
            // A delta write: an empty cut against version 2^40 + 9 (a
            // base wider than 32 bits survives the trip).
            Msg::WriteLog {
                obj: ObjId(1),
                req: 44,
                log: ObjectLog::new(),
                entry: Some(entry),
                cfg: 3,
                base: (1 << 40) + 9,
            },
            Msg::WriteRefused {
                obj: ObjId(1),
                req: 44,
            },
            Msg::WriteAck {
                obj: ObjId(1),
                req: 43,
                conflict: Some(ActionId(9)),
            },
            Msg::Resolve {
                action: ActionId(2),
                outcome: ActionOutcome::Aborted,
                entries: vec![(ObjId(1), 2)],
            },
            Msg::ResolveAck {
                action: ActionId(2),
            },
        ];
        for m in &msgs {
            roundtrip_dbg(m.clone());
        }
        // No message survives losing its tail — `base` is the last field
        // of a `WriteLog`, so a frame cut inside it must not decode as a
        // whole view (`base` 0).
        for m in &msgs {
            let buf = encode(m);
            for cut in 0..buf.len() {
                assert!(
                    decode::<Msg<QueueInv, QueueRes>>(&buf[..cut]).is_none(),
                    "{m:?} decoded from {cut} of {} bytes",
                    buf.len()
                );
            }
        }
        roundtrip_dbg(Msg::Batch(msgs));
    }

    /// Found by `tests/wire_fuzz.rs`: a status list naming one action
    /// twice reached `ObjectLog::resolve` and, with two different
    /// resolutions, what was then a `debug_assert`. Both log encodings
    /// refuse it.
    #[test]
    fn a_status_list_naming_an_action_twice_is_refused() {
        let twice = vec![
            (ActionId(3), ActionOutcome::Aborted),
            (
                ActionId(3),
                ActionOutcome::Committed(Timestamp {
                    counter: 9,
                    node: 1,
                }),
            ),
        ];
        let mut log = vec![0u8]; // gc off
        0u32.put(&mut log); // no entries
        twice.put(&mut log);
        assert!(decode::<ObjectLog<QueueInv, QueueRes>>(&log).is_none());

        let mut delta = Vec::new();
        (1u64, 2u64).put(&mut delta); // base, head
        false.put(&mut delta);
        Vec::<LogEntry<QueueInv, QueueRes>>::new().put(&mut delta);
        twice.put(&mut delta);
        assert!(decode::<LogDelta<QueueInv, QueueRes>>(&delta).is_none());
        // Out of order is refused too: the encoders write action order.
        let swapped = vec![twice[1], (ActionId(2), ActionOutcome::Aborted)];
        delta.truncate(delta.len() - encode(&twice).len());
        swapped.put(&mut delta);
        assert!(decode::<LogDelta<QueueInv, QueueRes>>(&delta).is_none());
    }

    #[test]
    fn object_log_roundtrip_preserves_entries_and_statuses() {
        let mut log: ObjectLog<QueueInv, QueueRes> = ObjectLog::new();
        for i in 0..4u64 {
            log.insert(LogEntry {
                ts: Timestamp {
                    counter: i + 1,
                    node: 0,
                },
                action: ActionId(i as u32),
                begin_ts: Timestamp {
                    counter: i,
                    node: 0,
                },
                event: Event::new(QueueInv::Enq(i as u32), QueueRes::Ok),
            });
        }
        log.resolve(
            ActionId(0),
            ActionOutcome::Committed(Timestamp {
                counter: 9,
                node: 0,
            }),
        );
        log.resolve(ActionId(1), ActionOutcome::Aborted);
        let back: ObjectLog<QueueInv, QueueRes> = decode(&encode(&log)).unwrap();
        assert_eq!(back.len(), log.len());
        assert_eq!(
            back.statuses().collect::<Vec<_>>(),
            log.statuses().collect::<Vec<_>>()
        );
    }
}
