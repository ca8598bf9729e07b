//! Bytes off a socket are not ours: whatever arrives, `wire::decode` and
//! `tcp::drain_frames` must answer — a value, `None`, or `InvalidData` —
//! without panicking and without reserving memory on the say-so of a
//! length field. Seeded `splitmix64` properties over arbitrary bytes and
//! over valid frames with one byte flipped, a tail cut off, or a length
//! inflated; a counting allocator watches every reservation made while
//! they run, and what each test thread still holds of them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use quorumcc_adts::queue::{Queue, QueueInv, QueueRes};
use quorumcc_core::minimal_static_relation;
use quorumcc_model::spec::ExploreBounds;
use quorumcc_model::{ActionId, Event};
use quorumcc_net::tcp::{drain_frames, write_frame};
use quorumcc_net::wire::{decode, encode};
use quorumcc_replication::types::{ActionOutcome, LogDelta, LogEntry, ObjId, ObjectLog};
use quorumcc_replication::{CollectIo, Mode, Msg, Repository};
use quorumcc_sim::{splitmix64, Timestamp};

type QMsg = Msg<QueueInv, QueueRes>;

/// No frame is larger, so nothing read off a socket justifies a larger
/// reservation.
const MAX_FRAME: usize = quorumcc_net::tcp::MAX_FRAME as usize;
const CASES: u64 = 10_000;

/// The largest single reservation requested since the process started.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Bytes this thread reserved and has not released (tests run on a
    /// thread each, so one test's count is its own). No destructor and a
    /// `const` initializer: reading it allocates nothing.
    static HELD: Cell<isize> = const { Cell::new(0) };
}

fn note_held(delta: isize) {
    // Fails only while the thread is being torn down; nothing is asserted
    // about that stretch.
    let _ = HELD.try_with(|held| held.set(held.get() + delta));
}

struct Watching;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only additions are a relaxed counter update
// and a thread-local one that never allocates.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        note_held(layout.size() as isize);
        // SAFETY: the caller's obligations are passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_held(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        note_held(new_size as isize - layout.size() as isize);
        // SAFETY: the caller's obligations are passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Watching = Watching;

fn assert_nothing_reserved_past_a_frame() {
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest <= MAX_FRAME,
        "a {largest}-byte reservation was requested"
    );
}

/// A seeded draw stream.
struct Draws(u64);

impl Draws {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = splitmix64(self.0);
        self.0 % n
    }
    fn ts(&mut self) -> Timestamp {
        Timestamp {
            counter: self.below(1 << 20),
            node: self.below(8) as u32,
        }
    }
    /// A few distinct actions, ascending: a log holds one status each.
    fn actions(&mut self) -> Vec<ActionId> {
        let mut next = 0;
        (0..self.below(4))
            .map(|_| {
                next += 1 + self.below(4) as u32;
                ActionId(next)
            })
            .collect()
    }
    fn outcome(&mut self) -> ActionOutcome {
        match self.below(3) {
            0 => ActionOutcome::Active,
            1 => ActionOutcome::Committed(self.ts()),
            _ => ActionOutcome::Aborted,
        }
    }
    fn entry(&mut self) -> LogEntry<QueueInv, QueueRes> {
        let event = match self.below(3) {
            0 => Event::new(QueueInv::Enq(self.below(100) as u32), QueueRes::Ok),
            1 => Event::new(QueueInv::Deq, QueueRes::Item(self.below(100) as u32)),
            _ => Event::new(QueueInv::Deq, QueueRes::Empty),
        };
        LogEntry {
            ts: self.ts(),
            action: ActionId(self.below(16) as u32),
            begin_ts: self.ts(),
            event,
        }
    }
    fn log(&mut self) -> ObjectLog<QueueInv, QueueRes> {
        let mut log = ObjectLog::new();
        for _ in 0..self.below(4) {
            log.insert(self.entry());
        }
        for action in self.actions() {
            log.resolve(action, self.outcome());
        }
        log
    }
    /// Any message the socket hosts ship, envelopes included.
    fn msg(&mut self, envelope: bool) -> QMsg {
        let (obj, req) = (ObjId(self.below(64) as u16), self.below(1 << 40));
        match self.below(if envelope { 8 } else { 7 }) {
            0 => Msg::ReadLog {
                obj,
                req,
                action: ActionId(self.below(16) as u32),
                begin_ts: self.ts(),
                op: ["Enq", "Deq"][self.below(2) as usize],
                cfg: self.below(4),
                since: self.below(1 << 40),
                durable: self.below(64),
            },
            1 => Msg::LogReply {
                obj,
                req,
                delta: LogDelta {
                    base: self.below(1 << 40),
                    head: self.below(1 << 40),
                    full: self.below(2) == 0,
                    entries: (0..self.below(4)).map(|_| self.entry()).collect(),
                    statuses: (self.actions().into_iter())
                        .map(|a| (a, self.outcome()))
                        .collect(),
                    checkpoint: None,
                },
            },
            2 => Msg::WriteLog {
                obj,
                req,
                log: self.log(),
                entry: (self.below(2) == 0).then(|| self.entry()),
                cfg: self.below(4),
                base: self.below(1 << 40),
            },
            3 => Msg::WriteAck {
                obj,
                req,
                conflict: (self.below(2) == 0).then(|| ActionId(self.below(16) as u32)),
            },
            4 => Msg::Resolve {
                action: ActionId(self.below(16) as u32),
                outcome: self.outcome(),
                entries: (0..self.below(3))
                    .map(|_| (ObjId(self.below(64) as u16), self.below(5) as u32))
                    .collect(),
            },
            5 => Msg::ResolveAck {
                action: ActionId(self.below(16) as u32),
            },
            6 => Msg::WriteRefused { obj, req },
            _ => Msg::Batch((0..self.below(4)).map(|_| self.msg(false)).collect()),
        }
    }
    /// One valid frame carrying one valid message.
    fn frame(&mut self) -> Vec<u8> {
        let mut out = Vec::new();
        let (from, to) = (self.below(8) as u32, self.below(8) as u32);
        write_frame(&mut out, from, to, &encode(&self.msg(true))).unwrap();
        out
    }
}

/// Feeds `bytes` to the incremental decoder and, whatever it accepted,
/// its payloads to the message decoder.
fn swallow(mut bytes: Vec<u8>) {
    let before = bytes.len();
    match drain_frames(&mut bytes) {
        Ok(frames) => {
            let framed: usize = frames.iter().map(|(_, _, p)| 12 + p.len()).sum();
            assert_eq!(
                framed + bytes.len(),
                before,
                "bytes neither framed nor kept"
            );
            for (_, _, payload) in frames {
                let _ = decode::<QMsg>(&payload);
            }
        }
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData),
    }
}

#[test]
fn valid_frames_decode_to_what_was_sent() {
    let mut d = Draws(0xf00d);
    for case in 0..CASES {
        let msg = d.msg(true);
        let mut stream = Vec::new();
        write_frame(&mut stream, 3, 4, &encode(&msg)).unwrap();
        let frames = drain_frames(&mut stream).unwrap();
        let [(3, 4, payload)] = frames.as_slice() else {
            panic!("case {case}: {frames:?}");
        };
        let back = decode::<QMsg>(payload).expect("a valid message decodes");
        assert_eq!(format!("{back:?}"), format!("{msg:?}"), "case {case}");
    }
    assert_nothing_reserved_past_a_frame();
}

#[test]
fn arbitrary_bytes_never_panic() {
    let mut d = Draws(0xa5a5);
    for _ in 0..CASES {
        let bytes: Vec<u8> = (0..d.below(96)).map(|_| d.below(256) as u8).collect();
        let _ = decode::<QMsg>(&bytes);
        // A plausible header in front, so the body is reached too.
        let mut framed = (8 + d.below(96) as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&bytes);
        swallow(bytes);
        swallow(framed);
    }
    assert_nothing_reserved_past_a_frame();
}

#[test]
fn one_flipped_byte_never_panics() {
    let mut d = Draws(0xb17);
    for _ in 0..CASES {
        let mut payload = encode(&d.msg(true));
        let at = d.below(payload.len() as u64) as usize;
        payload[at] ^= 1 << d.below(8);
        let _ = decode::<QMsg>(&payload);

        let mut frame = d.frame();
        let at = d.below(frame.len() as u64) as usize;
        frame[at] ^= 1 << d.below(8);
        frame.extend_from_slice(&d.frame());
        swallow(frame);
    }
    assert_nothing_reserved_past_a_frame();
}

#[test]
fn a_truncated_frame_waits_and_a_truncated_message_is_refused() {
    let mut d = Draws(0xc07);
    for _ in 0..CASES {
        let payload = encode(&d.msg(true));
        let cut = d.below(payload.len() as u64) as usize;
        assert!(
            decode::<QMsg>(&payload[..cut]).is_none(),
            "decoded a prefix"
        );

        let whole = d.frame();
        let mut buf = whole[..d.below(whole.len() as u64) as usize].to_vec();
        let kept = buf.len();
        assert!(drain_frames(&mut buf).unwrap().is_empty());
        assert_eq!(buf.len(), kept, "a partial frame's bytes stay buffered");
    }
    assert_nothing_reserved_past_a_frame();
}

#[test]
fn an_inflated_length_reserves_nothing() {
    let mut d = Draws(0x1e9);
    for _ in 0..CASES {
        // The frame's own length prefix claims more than was sent.
        let mut frame = d.frame();
        let claimed = u32::from_le_bytes(frame[..4].try_into().unwrap());
        let inflated = claimed.saturating_add(1 + d.below(u64::from(u32::MAX)) as u32);
        frame[..4].copy_from_slice(&inflated.to_le_bytes());
        let kept = frame.len();
        match drain_frames(&mut frame) {
            Ok(frames) => {
                assert!(frames.is_empty() && frame.len() == kept);
                assert!(inflated as usize <= MAX_FRAME);
            }
            Err(_) => assert!(inflated as usize > MAX_FRAME),
        }

        // A collection count inside the message claims up to 2^32 - 1
        // elements: an envelope of them, a log of them, a list of them.
        let tag = [5u8, 2, 4][d.below(3) as usize];
        let mut lie = vec![tag];
        if tag != 5 {
            lie.extend_from_slice(&[0; 11][..if tag == 2 { 11 } else { 5 }]);
        }
        lie.extend_from_slice(&(u32::MAX - d.below(1 << 16) as u32).to_le_bytes());
        lie.extend((0..d.below(32)).map(|_| d.below(256) as u8));
        let _ = decode::<QMsg>(&lie);
    }
    assert_nothing_reserved_past_a_frame();
}

/// Envelopes never nest on the wire, so a frame of nothing but envelope
/// headers is refused at the second one instead of being followed down —
/// five bytes a level, it would otherwise recurse three million deep on
/// one maximal frame.
#[test]
fn nested_envelopes_are_refused_not_followed() {
    let levels = (MAX_FRAME - 8) / 5;
    let hostile: Vec<u8> = [5u8, 1, 0, 0, 0].repeat(levels);
    assert!(decode::<QMsg>(&hostile).is_none());
    assert!(decode::<QMsg>(&encode(&QMsg::Batch(vec![QMsg::Batch(vec![])]))).is_none());
    assert_nothing_reserved_past_a_frame();
}

/// An operation class is one of the few the wire's data type declares. A
/// `ReadLog` naming anything else is refused, and the decoder keeps
/// nothing of it: the class table is as large after 10 000 hostile reads
/// as before, which the bytes this thread holds would show if it were not.
#[test]
fn a_hostile_op_class_is_refused_and_the_table_does_not_grow() {
    let mut d = Draws(0x0b5);
    let read = |op: &'static str, d: &mut Draws| -> QMsg {
        Msg::ReadLog {
            obj: ObjId(d.below(64) as u16),
            req: d.below(1 << 40),
            action: ActionId(d.below(16) as u32),
            begin_ts: d.ts(),
            op,
            cfg: 0,
            since: 0,
            durable: 0,
        }
    };
    // Both real classes once, so the table is built before the count.
    for op in ["Enq", "Deq"] {
        assert!(decode::<QMsg>(&encode(&read(op, &mut d))).is_some());
    }
    let before = HELD.get();
    for case in 0..CASES {
        // A valid frame but for the class: `Enq` overwritten with three
        // other bytes, a different string every case.
        let mut payload = encode(&read("Enq", &mut d));
        let at = (payload.windows(3).position(|w| w == b"Enq")).expect("the class travels as text");
        payload[at..at + 3].copy_from_slice(&[b'a' + (case % 26) as u8, (case / 26) as u8, 0x7e]);
        assert!(decode::<QMsg>(&payload).is_none(), "case {case}");
    }
    assert_eq!(
        HELD.get(),
        before,
        "the decoder kept bytes of a hostile frame"
    );
    assert_nothing_reserved_past_a_frame();
}

/// Two different resolutions of one action, both well-formed on the wire:
/// the repository that decodes them keeps the first, counts the second,
/// and does not panic in a debug build — whether the second arrives as a
/// `Resolve` or as a status inside a `WriteLog`.
#[test]
fn conflicting_resolutions_off_the_wire_are_counted_not_fatal() {
    let rel = minimal_static_relation::<Queue>(ExploreBounds {
        depth: 3,
        ..ExploreBounds::default()
    })
    .relation;
    let mut d = Draws(0xc0f);
    for scoped in [false, true] {
        let mut repo =
            Repository::<Queue>::new(Mode::Hybrid, rel.clone()).with_gossip(scoped, None);
        let mut io: CollectIo<QMsg> = CollectIo::new(0, 1);
        let (mut conflicts, mut first) = (0, std::collections::BTreeMap::new());
        for _ in 0..CASES / 10 {
            let entry = d.entry();
            let action = entry.action;
            let outcome = match d.outcome() {
                ActionOutcome::Active => ActionOutcome::Aborted,
                resolved => resolved,
            };
            let mut view = ObjectLog::new();
            view.resolve(action, outcome);
            let frames = [
                Msg::WriteLog {
                    obj: ObjId(0),
                    req: 0,
                    log: ObjectLog::new(),
                    entry: Some(entry),
                    cfg: 0,
                    base: 0,
                },
                if d.below(2) == 0 {
                    Msg::Resolve {
                        action,
                        outcome,
                        entries: Vec::new(),
                    }
                } else {
                    Msg::WriteLog {
                        obj: ObjId(0),
                        req: 0,
                        log: view,
                        entry: None,
                        cfg: 0,
                        base: 0,
                    }
                },
            ];
            for frame in frames {
                let msg = decode::<QMsg>(&encode(&frame)).expect("a valid message decodes");
                repo.handle(&mut io, 1, msg);
            }
            conflicts += u64::from(*first.entry(action).or_insert(outcome) != outcome);
            io.take_outputs();
        }
        assert!(conflicts > 0, "the draws never disagreed");
        assert_eq!(
            repo.counters().conflicting_resolutions,
            conflicts,
            "scoped {scoped}"
        );
        let log = repo.log(ObjId(0));
        for (action, outcome) in first {
            assert_eq!(log.status_entry(action), Some(outcome), "first wins");
        }
    }
}
