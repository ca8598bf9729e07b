//! In-memory spans around the calls into each layer.
//!
//! A span is a name, a start, an end, the transaction it worked for, the
//! span that *caused* it (the handler that emitted the message it
//! processes) and the span that *encloses* it (the host turn it ran in).
//! Spans stay in memory for the whole replay and are written out once, at
//! exit. With the tracer off every call is a plain function call and no
//! clock is read: the wall-time ratio of the two replays is the tracing
//! overhead.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// "No span" / "no transaction".
pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `ActionId` of the transaction, or [`NONE`].
    pub txn: u32,
    /// Index of the span that emitted the message this span handles.
    pub cause: u32,
    /// Index of the enclosing span.
    pub parent: u32,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: NONE,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens an enclosing span; spans recorded until [`Self::exit`] are
    /// its children.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            txn: NONE,
            cause: NONE,
            parent: NONE,
        });
        self.open = (self.spans.len() - 1) as u32;
        self.open
    }

    /// Closes the span [`Self::enter`] opened.
    pub fn exit(&mut self, id: u32) {
        if self.on {
            self.spans[id as usize].end_ns = self.now_ns();
            self.open = NONE;
        }
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// index ([`NONE`] when tracing is off).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        txn: u32,
        cause: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        if !self.on {
            return (f(), NONE);
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            txn,
            cause,
            parent: self.open,
        });
        (out, (self.spans.len() - 1) as u32)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, nanoseconds: a span's duration minus the
    /// part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut total: BTreeMap<&'static str, i128> = BTreeMap::new();
        for s in &self.spans {
            let dur = i128::from(s.end_ns - s.start_ns);
            *total.entry(s.name).or_default() += dur;
            if s.parent != NONE {
                *total.entry(self.spans[s.parent as usize].name).or_default() -= dur;
            }
        }
        total
            .into_iter()
            .map(|(k, v)| (k, v.max(0) as u64))
            .collect()
    }

    /// Writes one JSON object per span, in recording order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: u32| {
            if v == NONE {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"txn\": {}, \"cause\": {}, \"parent\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.txn),
                opt(s.cause),
                opt(s.parent)
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut t = Tracer::new(true);
        let turn = t.enter("host.turn");
        let (_, a) = t.time("wire.decode", 7, NONE, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let (_, b) = t.time("repo.readlog", 7, a, || ());
        t.exit(turn);
        assert_eq!(t.spans()[b as usize].cause, a);
        assert_eq!(t.spans()[a as usize].parent, turn);
        let own = t.self_times();
        let turn_dur = t.spans()[turn as usize].end_ns - t.spans()[turn as usize].start_ns;
        assert!(own["wire.decode"] >= 2_000_000);
        assert_eq!(
            own["host.turn"],
            turn_dur - own["wire.decode"] - own["repo.readlog"]
        );

        let mut off = Tracer::new(false);
        let id = off.enter("host.turn");
        assert_eq!(off.time("x", 0, NONE, || 3), (3, NONE));
        off.exit(id);
        assert!(off.spans().is_empty());
    }
}
