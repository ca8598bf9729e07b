//! The byte layout is a contract between processes that may run
//! different builds: one message per encodable `Msg` variant, pinned as
//! hex. A change to `wire.rs` that moves a byte fails here, whatever the
//! round-trip tests say (they compare a build with itself).

use quorumcc_adts::queue::{QueueInv, QueueRes};
use quorumcc_model::{ActionId, Event};
use quorumcc_net::wire::{decode, encode};
use quorumcc_replication::types::{ActionOutcome, LogDelta, LogEntry, ObjId, ObjectLog};
use quorumcc_replication::Msg;
use quorumcc_sim::Timestamp;

type QMsg = Msg<QueueInv, QueueRes>;

fn ts(counter: u64, node: u32) -> Timestamp {
    Timestamp { counter, node }
}

fn entry(action: u32, inv: QueueInv, res: QueueRes) -> LogEntry<QueueInv, QueueRes> {
    LogEntry {
        ts: ts(0x0102_0304_0506 + u64::from(action), 3),
        action: ActionId(action),
        begin_ts: ts(0x0a0b + u64::from(action), 3),
        event: Event::new(inv, res),
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `(name, message, hex)`: every encodable variant, every `ActionOutcome`,
/// `QueueInv` and `QueueRes` tag, `Some` and `None`, `full` both ways.
fn goldens() -> Vec<(&'static str, QMsg, &'static str)> {
    let enq = entry(2, QueueInv::Enq(0x2a), QueueRes::Ok);
    let deq = entry(5, QueueInv::Deq, QueueRes::Item(0x2a));
    let empty = entry(7, QueueInv::Deq, QueueRes::Empty);

    let mut log: ObjectLog<QueueInv, QueueRes> = ObjectLog::new();
    log.insert(enq.clone());
    log.resolve(ActionId(2), ActionOutcome::Committed(ts(0x99, 1)));
    log.resolve(ActionId(4), ActionOutcome::Aborted);

    let read = Msg::ReadLog {
        obj: ObjId(0x0102),
        req: 0x1122_3344_5566_7788,
        action: ActionId(0xa1a2_a3a4),
        begin_ts: ts(0x0a0b, 3),
        op: "Deq",
        cfg: 6,
        since: 0x0100_0000_0007,
        durable: 9,
    };
    let refused = Msg::WriteRefused {
        obj: ObjId(3),
        req: 0x2d,
    };
    vec![
        (
            "ReadLog",
            read.clone(),
            "0002018877665544332211a4a3a2a10b0a00000000000003000000030000004465710600\
             00000000000007000000000100000900000000000000",
        ),
        (
            "LogReply, a suffix",
            Msg::LogReply {
                obj: ObjId(1),
                req: 0x2a,
                delta: LogDelta {
                    base: 7,
                    head: 9,
                    full: false,
                    entries: vec![deq.clone(), empty],
                    statuses: vec![
                        (ActionId(5), ActionOutcome::Active),
                        (ActionId(7), ActionOutcome::Aborted),
                    ],
                    checkpoint: None,
                },
            },
            "0101002a000000000000000700000000000000090000000000000000020000000b050403\
             020100000300000005000000100a0000000000000300000001012a0000000d0504030201\
             00000300000007000000120a000000000000030000000102020000000500000000070000\
             0002",
        ),
        (
            "LogReply, a full transfer",
            Msg::LogReply {
                obj: ObjId(1),
                req: 0x2b,
                delta: LogDelta {
                    base: 0,
                    head: (1 << 40) + 9,
                    full: true,
                    entries: vec![enq.clone()],
                    statuses: vec![(ActionId(2), ActionOutcome::Committed(ts(0x99, 1)))],
                    checkpoint: None,
                },
            },
            "0101002b0000000000000000000000000000000900000000010000010100000008050403\
             0201000003000000020000000d0a00000000000003000000002a00000000010000000200\
             000001990000000000000001000000",
        ),
        (
            "WriteLog, a delta with an entry, two statuses and a base",
            Msg::WriteLog {
                obj: ObjId(1),
                req: 0x2c,
                log,
                entry: Some(deq),
                cfg: 3,
                base: (1 << 40) + 9,
            },
            "0201002c000000000000000001000000080504030201000003000000020000000d0a0000\
             0000000003000000002a0000000002000000020000000199000000000000000100000004\
             00000002010b050403020100000300000005000000100a0000000000000300000001012a\
             00000003000000000000000900000000010000",
        ),
        (
            "WriteLog, pure propagation of an empty collecting log",
            Msg::WriteLog {
                obj: ObjId(2),
                req: 0x2d,
                log: {
                    let mut gc = ObjectLog::new();
                    gc.set_gc_aborted(true);
                    gc
                },
                entry: None,
                cfg: 0,
                base: 0,
            },
            "0202002d0000000000000001000000000000000000000000000000000000000000000000\
             00",
        ),
        (
            "WriteAck, a conflict",
            Msg::WriteAck {
                obj: ObjId(1),
                req: 0x2c,
                conflict: Some(ActionId(9)),
            },
            "0301002c000000000000000109000000",
        ),
        (
            "WriteAck, clean",
            Msg::WriteAck {
                obj: ObjId(1),
                req: 0x2c,
                conflict: None,
            },
            "0301002c0000000000000000",
        ),
        (
            "Resolve",
            Msg::Resolve {
                action: ActionId(2),
                outcome: ActionOutcome::Committed(ts(0x99, 1)),
                entries: vec![(ObjId(1), 2), (ObjId(0x0102), 1)],
            },
            "04020000000199000000000000000100000002000000010002000000020101000000",
        ),
        (
            "Batch of two",
            Msg::Batch(vec![read, refused.clone()]),
            "05020000000002018877665544332211a4a3a2a10b0a0000000000000300000003000000\
             4465710600000000000000070000000001000009000000000000000703002d0000000000\
             0000",
        ),
        (
            "ResolveAck",
            Msg::ResolveAck {
                action: ActionId(2),
            },
            "0602000000",
        ),
        ("WriteRefused", refused, "0703002d00000000000000"),
    ]
}

#[test]
fn every_encodable_variant_has_the_pinned_bytes() {
    for (name, msg, want) in goldens() {
        let got = encode(&msg);
        assert_eq!(hex(&got), want, "{name}: {msg:?}");
        // And the pinned bytes decode to the message they were made from.
        let back: QMsg = decode(&got).unwrap_or_else(|| panic!("{name} does not decode"));
        assert_eq!(format!("{back:?}"), format!("{msg:?}"), "{name}");
    }
}
