//! The load harness's two socket [`Transport`]s: [`CellSockets`] carries a
//! cell's repositories over readiness-polled nonblocking connections, and
//! [`WorkerLinks`] carries a worker's clients over supervised reconnecting
//! links. Both speak `tcp` frames of `wire`-encoded messages; the host
//! loop above them (`quorumcc_replication::host::run`) never sees a byte.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter, ErrorKind, Read as _, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use quorumcc_replication::host::Transport;
use quorumcc_sim::{splitmix64, ProcId};

use super::QMsg;
use crate::fault::{FaultShim, NetFaultProfile};
use crate::tcp::{drain_frames, read_frame, write_frame, Frame};
use crate::wire;

/// Event-loop idle backoff: the first sleep after a turn that made no
/// progress, doubling per idle turn up to the ceiling. Nothing interrupts
/// a poll loop's sleep the way frame arrival interrupts a blocking
/// receive, so the ceiling is the latency floor of an idle cell.
const POLL_MIN: Duration = Duration::from_micros(50);
const POLL_MAX: Duration = Duration::from_micros(3200);

/// Idle wakeup cap for a worker. Frame arrival interrupts the wait, so
/// this bounds only how stale the deadline check can get — and the idle
/// wakeup rate: a large fleet runs hundreds of workers, and polling them
/// at 1 kHz each would saturate a small box with context switches before
/// any protocol work happens.
const IDLE_POLL: Duration = Duration::from_millis(25);

/// How many recent frames a supervised worker link keeps for replay
/// after a reconnect. Replay is idempotent on the repository side
/// (duplicate `ReadLog`/`WriteLog`/`Resolve` deliveries are absorbed —
/// DESIGN §3.17), so the ring trades memory for recovery coverage; a
/// frame that falls off the ring is recovered by the client's own
/// phase-timeout retry instead.
const LINK_RING: usize = 64;

/// One accepted connection of the event loop.
struct Conn {
    sock: FaultShim<TcpStream>,
    /// Which co-hosted repository this connection belongs to (the
    /// listener it was accepted on).
    repo_idx: usize,
    /// Bytes received but not yet framed.
    rbuf: Vec<u8>,
    /// Frames encoded but not yet accepted by the socket.
    wbuf: Vec<u8>,
    open: bool,
}

impl Conn {
    /// Marks the connection dead and shuts the socket down so the
    /// worker's reader sees EOF — a half-open connection would let the
    /// worker keep writing into a void with nothing to trip its link
    /// supervision.
    fn close(&mut self) {
        self.open = false;
        self.sock.get_ref().shutdown(Shutdown::Both).ok();
    }
}

/// All of a cell's repositories on one thread, no per-repository or
/// per-connection threads: listeners are drained of pending accepts each
/// turn; each connection carries an incremental read buffer (frames
/// decoded as bytes arrive, via [`drain_frames`]) and a write buffer
/// drained opportunistically (`WouldBlock` leaves the tail for the next
/// turn, so a slow reader never stalls the loop). Sends between co-hosted
/// repositories short-circuit in memory.
///
/// One sweep of `poll` is accept → read every connection → in-memory
/// deliveries; `flush` is the write-readiness pass; `park` backs off
/// exponentially when the whole turn made no progress.
///
/// A crashed repository's connections are severed and its pending
/// deliveries and routes dropped; while dark it accepts and reads nothing
/// (connects queue in its listener's backlog until it recovers).
pub(super) struct CellSockets {
    listeners: Vec<TcpListener>,
    dark: Vec<bool>,
    conns: Vec<Conn>,
    /// (repository index, client id) -> connection the client's frames
    /// arrive on; replies route back over the same connection.
    route: HashMap<(usize, ProcId), usize>,
    /// Sends between co-hosted repositories, as `(to, from, msg)`.
    local: VecDeque<(ProcId, ProcId, QMsg)>,
    profile: NetFaultProfile,
    seed: u64,
    accepted: u64,
    scratch: Vec<u8>,
    /// Sweep state: the connection whose frames are being yielded, the
    /// frames themselves, and whether a sweep is under way.
    cursor: usize,
    ready: std::vec::IntoIter<Frame>,
    sweeping: bool,
    progress: bool,
    idle_turns: u32,
}

impl CellSockets {
    pub(super) fn new(listeners: Vec<TcpListener>, profile: NetFaultProfile, seed: u64) -> Self {
        for l in &listeners {
            l.set_nonblocking(true).expect("nonblocking listener");
        }
        CellSockets {
            dark: vec![false; listeners.len()],
            listeners,
            conns: Vec::new(),
            route: HashMap::new(),
            local: VecDeque::new(),
            profile,
            seed,
            accepted: 0,
            scratch: vec![0u8; 64 * 1024],
            cursor: 0,
            ready: Vec::new().into_iter(),
            sweeping: false,
            progress: false,
            idle_turns: 0,
        }
    }

    /// Accepts every pending connection on every live listener.
    fn accept_all(&mut self) {
        for (r, l) in self.listeners.iter().enumerate() {
            if self.dark[r] {
                continue;
            }
            while let Ok((sock, _addr)) = l.accept() {
                sock.set_nonblocking(true).expect("nonblocking conn");
                sock.set_nodelay(true).ok();
                self.accepted += 1;
                let link_id = splitmix64(self.seed ^ ((r as u64) << 40) ^ self.accepted);
                self.conns.push(Conn {
                    sock: FaultShim::new_nonblocking(sock, self.profile, link_id),
                    repo_idx: r,
                    rbuf: Vec::new(),
                    wbuf: Vec::new(),
                    open: true,
                });
                self.progress = true;
            }
        }
    }

    /// Pulls whatever connection `ci` has and frames it into `ready`.
    fn read_conn(&mut self, ci: usize) {
        let c = &mut self.conns[ci];
        if !c.open || self.dark[c.repo_idx] {
            return;
        }
        loop {
            match c.sock.read(&mut self.scratch) {
                Ok(0) => {
                    c.close();
                    break;
                }
                Ok(n) => {
                    c.rbuf.extend_from_slice(&self.scratch[..n]);
                    self.progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    c.close();
                    break;
                }
            }
        }
        match drain_frames(&mut c.rbuf) {
            Ok(frames) => self.ready = frames.into_iter(),
            Err(_) => c.close(),
        }
    }
}

impl Transport<QMsg> for CellSockets {
    fn poll(&mut self) -> Option<(ProcId, ProcId, QMsg)> {
        if !self.sweeping {
            self.sweeping = true;
            self.cursor = 0;
            self.accept_all();
        }
        loop {
            if let Some((from, _to, payload)) = self.ready.next() {
                let ci = self.cursor - 1;
                let Some(msg) = wire::decode::<QMsg>(&payload) else {
                    self.conns[ci].close();
                    self.ready = Vec::new().into_iter();
                    continue;
                };
                let r = self.conns[ci].repo_idx;
                self.route.insert((r, from), ci);
                return Some((r as ProcId, from, msg));
            }
            if self.cursor < self.conns.len() {
                self.cursor += 1;
                self.read_conn(self.cursor - 1);
                continue;
            }
            // Every socket swept: in-memory deliveries between co-hosted
            // repositories (handling one may enqueue more; the host keeps
            // polling until the queue is empty).
            let next = self.local.pop_front();
            self.progress |= next.is_some();
            self.sweeping = next.is_some();
            return next;
        }
    }

    fn send(&mut self, from: ProcId, to: ProcId, msg: QMsg) {
        self.progress = true;
        if (to as usize) < self.listeners.len() {
            if !self.dark[to as usize] {
                self.local.push_back((to, from, msg));
            }
        } else if let Some(&ci) = self.route.get(&(from as usize, to)) {
            // A closed connection drops the reply, like a lossy link
            // would; so does a payload too large to frame.
            let c = &mut self.conns[ci];
            if c.open {
                write_frame(&mut c.wbuf, from, to, &wire::encode(&msg)).ok();
            }
        }
    }

    /// Write readiness: push each connection's buffer as far as the
    /// socket will take it.
    fn flush(&mut self) {
        for c in &mut self.conns {
            if !c.open || c.wbuf.is_empty() {
                continue;
            }
            let mut off = 0usize;
            while off < c.wbuf.len() {
                match c.sock.write(&c.wbuf[off..]) {
                    Ok(0) => {
                        c.close();
                        break;
                    }
                    Ok(n) => {
                        off += n;
                        self.progress = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        c.close();
                        break;
                    }
                }
            }
            c.wbuf.drain(..off);
        }
    }

    fn park(&mut self, max: Duration) {
        if std::mem::take(&mut self.progress) {
            self.idle_turns = 0;
            return;
        }
        self.idle_turns += 1;
        let backoff = (POLL_MIN * (1u32 << self.idle_turns.min(16))).min(POLL_MAX);
        std::thread::sleep(backoff.min(max));
    }

    fn crashed(&mut self, node: ProcId) {
        let victim = node as usize;
        self.dark[victim] = true;
        for c in self.conns.iter_mut().filter(|c| c.repo_idx == victim) {
            c.close();
        }
        self.local.retain(|&(to, _, _)| to != node);
        self.route.retain(|&(r, _), _| r != victim);
    }

    fn recovered(&mut self, node: ProcId) {
        self.dark[node as usize] = false;
    }
}

/// What a reader thread hands its worker: the link it read from, that
/// link's connection generation, and the frame.
type Tagged = (usize, u64, Frame);

/// A supervised worker→repository connection: on any write failure the
/// link is severed and redialed with capped exponential backoff plus
/// deterministic jitter, and the last [`LINK_RING`] frames are replayed
/// over the new socket. Replay is safe because every protocol message is
/// idempotent repository-side (DESIGN §3.17); in particular a replayed
/// `Resolve` re-earns the `ResolveAck` that unsticks the durable-GC
/// frontier after an ack was lost with the old connection.
struct PeerLink {
    port: u16,
    seed: u64,
    writer: Option<BufWriter<FaultShim<TcpStream>>>,
    ring: VecDeque<Vec<u8>>,
    /// Successful connects so far (first connect included).
    established: u64,
    /// The newest generation whose read side is known dead: set by its
    /// reader thread on EOF/error, or by the worker on a reply it cannot
    /// use. This is what catches *server-side* link deaths — the
    /// repository closes the socket, our writes would keep succeeding
    /// into the OS buffer forever otherwise.
    dead_gen: Arc<AtomicU64>,
    /// Consecutive failed dial attempts since the last success.
    attempts: u32,
    next_attempt: Instant,
    reconnects: u64,
    retransmit_frames: u64,
    rng: u64,
    dirty: bool,
}

impl PeerLink {
    fn new(port: u16, seed: u64) -> Self {
        PeerLink {
            port,
            seed,
            writer: None,
            ring: VecDeque::new(),
            established: 0,
            dead_gen: Arc::default(),
            attempts: 0,
            next_attempt: Instant::now(),
            reconnects: 0,
            retransmit_frames: 0,
            rng: splitmix64(seed ^ 0xbacc_0ff5),
            dirty: false,
        }
    }

    /// Schedules the next dial after `attempts` consecutive failures:
    /// 1ms doubling to a 256ms cap, plus up to 25% deterministic jitter so
    /// a fleet of workers does not redial a recovering repository in
    /// lockstep.
    fn back_off(&mut self) {
        let base_us = (1000u64 << self.attempts.min(8)).min(256_000);
        self.rng = splitmix64(self.rng);
        let delay = Duration::from_micros(base_us + self.rng % (base_us / 4 + 1));
        self.next_attempt = Instant::now() + delay;
    }

    /// Tears the connection down (unblocking its reader thread) and
    /// schedules the first redial.
    fn sever(&mut self) {
        if let Some(w) = self.writer.take() {
            w.get_ref().get_ref().shutdown(Shutdown::Both).ok();
        }
        self.attempts = 0;
        self.back_off();
    }

    /// Queues `frame` on the ring and writes it if the link is up; a
    /// write failure severs the link (the frame survives on the ring).
    fn send(&mut self, frame: Vec<u8>) {
        if self.ring.len() == LINK_RING {
            self.ring.pop_front();
        }
        if let Some(w) = &mut self.writer {
            if w.write_all(&frame).is_ok() {
                self.dirty = true;
            } else {
                self.sever();
            }
        }
        self.ring.push_back(frame);
    }

    /// Flushes buffered writes; a failure severs the link.
    fn flush(&mut self) {
        if !std::mem::take(&mut self.dirty) {
            return;
        }
        if let Some(w) = &mut self.writer {
            if w.flush().is_err() {
                self.sever();
            }
        }
    }
}

/// A worker's side of the wire: one supervised [`PeerLink`] per
/// repository, a blocking reader thread per live connection feeding one
/// queue, and the id range of the clients the worker hosts.
pub(super) struct WorkerLinks {
    links: Vec<PeerLink>,
    profile: NetFaultProfile,
    ids: Range<ProcId>,
    tx: Sender<Tagged>,
    rx: Receiver<Tagged>,
    /// The frame `park` woke up on, owed to the next `poll`.
    woke_on: Option<Tagged>,
    readers: Vec<JoinHandle<()>>,
}

impl WorkerLinks {
    /// Dials every repository in `ports` (index = repository id) for the
    /// clients in `ids`; `seed` keys the links' fault and jitter streams.
    pub(super) fn connect(
        ports: &[u16],
        ids: Range<ProcId>,
        seed: u64,
        profile: NetFaultProfile,
    ) -> Self {
        let (tx, rx) = mpsc::channel();
        let mut links = WorkerLinks {
            links: ports
                .iter()
                .enumerate()
                .map(|(i, port)| PeerLink::new(*port, splitmix64(seed ^ i as u64)))
                .collect(),
            profile,
            ids,
            tx,
            rx,
            woke_on: None,
            readers: Vec::new(),
        };
        links.supervise();
        links
    }

    /// Dials every link that is down and due for an attempt; replays the
    /// ring over the fresh socket and spawns its reader thread.
    fn supervise(&mut self) {
        for (i, link) in self.links.iter_mut().enumerate() {
            // The read side died for the current generation (server
            // closed, reset, the read shim gave out, or an unusable
            // reply): sever so the dial path below takes over.
            if link.writer.is_some() && link.dead_gen.load(Ordering::SeqCst) >= link.established {
                link.sever();
            }
            if link.writer.is_some() || Instant::now() < link.next_attempt {
                continue;
            }
            let Ok(conn) = TcpStream::connect(("127.0.0.1", link.port)) else {
                link.attempts += 1;
                link.back_off();
                continue;
            };
            conn.set_nodelay(true).ok();
            link.established += 1;
            if link.established > 1 {
                link.reconnects += 1;
            }
            let link_id = splitmix64(link.seed ^ link.established);
            let reader = FaultShim::new(
                conn.try_clone().expect("clone conn"),
                self.profile,
                link_id ^ 1,
            );
            let tx = self.tx.clone();
            let dead = Arc::clone(&link.dead_gen);
            let generation = link.established;
            self.readers.push(std::thread::spawn(move || {
                let mut reader = BufReader::new(reader);
                while let Ok(frame) = read_frame(&mut reader) {
                    if tx.send((i, generation, frame)).is_err() {
                        break;
                    }
                }
                reader.get_ref().get_ref().shutdown(Shutdown::Both).ok();
                dead.fetch_max(generation, Ordering::SeqCst);
            }));
            let mut w = BufWriter::new(FaultShim::new(conn, self.profile, link_id));
            let mut ok = true;
            for f in &link.ring {
                if w.write_all(f).is_err() {
                    ok = false;
                    break;
                }
                link.retransmit_frames += 1;
            }
            if ok && w.flush().is_ok() {
                link.writer = Some(w);
                link.attempts = 0;
            } else {
                w.get_ref().get_ref().shutdown(Shutdown::Both).ok();
                link.attempts += 1;
                link.back_off();
            }
        }
    }

    /// Closes every connection — unblocking the reader threads, which
    /// block on reads from sockets the repositories hold open until the
    /// cell stops — joins them, and returns the supervision counters
    /// `(reconnects, retransmit_frames)`.
    pub(super) fn shutdown(mut self) -> (u64, u64) {
        for link in &mut self.links {
            if let Some(w) = link.writer.take() {
                w.get_ref().get_ref().shutdown(Shutdown::Both).ok();
            }
        }
        for reader in self.readers {
            reader.join().expect("reader thread panicked");
        }
        (
            self.links.iter().map(|l| l.reconnects).sum(),
            self.links.iter().map(|l| l.retransmit_frames).sum(),
        )
    }
}

impl Transport<QMsg> for WorkerLinks {
    fn poll(&mut self) -> Option<(ProcId, ProcId, QMsg)> {
        loop {
            let (link, generation, (from, to, payload)) =
                self.woke_on.take().or_else(|| self.rx.try_recv().ok())?;
            // Bytes off a socket: a reply that does not decode, or is
            // addressed to a client this worker does not host, condemns
            // the connection generation it came over, nothing more.
            match wire::decode::<QMsg>(&payload) {
                Some(msg) if self.ids.contains(&to) => return Some((to, from, msg)),
                _ => {
                    self.links[link]
                        .dead_gen
                        .fetch_max(generation, Ordering::SeqCst);
                }
            }
        }
    }

    fn send(&mut self, from: ProcId, to: ProcId, msg: QMsg) {
        let payload = wire::encode(&msg);
        let mut frame = Vec::with_capacity(payload.len() + 12);
        // A payload too large to frame is dropped, like a lossy link would.
        if write_frame(&mut frame, from, to, &payload).is_ok() {
            self.links[to as usize].send(frame);
        }
    }

    fn flush(&mut self) {
        for link in &mut self.links {
            link.flush();
        }
    }

    /// Blocks until a frame arrives or the host's next local event is due
    /// (`max`), capped by [`IDLE_POLL`]. Frame arrival interrupts the
    /// wait, so a long sleep costs nothing.
    fn park(&mut self, max: Duration) {
        self.supervise();
        let mut wait = max.min(IDLE_POLL);
        // A downed link bounds the sleep too, so redials happen on their
        // backoff schedule rather than the idle cadence.
        if let Some(due) = self
            .links
            .iter()
            .filter(|l| l.writer.is_none())
            .map(|l| l.next_attempt)
            .min()
        {
            let until = due
                .saturating_duration_since(Instant::now())
                .max(Duration::from_micros(100));
            wait = wait.min(until);
        }
        // The worker holds a sender itself, so the only error is the
        // timeout.
        self.woke_on = self.rx.recv_timeout(wait).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorumcc_model::ActionId;
    use quorumcc_replication::Msg;

    fn frame_bytes(from: ProcId, to: ProcId, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, from, to, payload).unwrap();
        out
    }

    /// Parks until `poll` yields a delivery (bounded, so a regression
    /// fails instead of hanging).
    fn next_delivery(links: &mut WorkerLinks) -> (ProcId, ProcId, QMsg) {
        for _ in 0..2000 {
            if let Some(d) = links.poll() {
                return d;
            }
            links.flush();
            links.park(Duration::from_millis(5));
        }
        panic!("no delivery within the bound");
    }

    /// A repository that answers the first frame of its first connection
    /// with garbage, of its second with a reply addressed to process 0,
    /// and of its third with a valid reply: each bad reply must cost the
    /// worker exactly that connection generation — no panic, and the link
    /// comes back (redial + ring replay) every time.
    #[test]
    fn corrupt_or_misaddressed_reply_costs_one_link_generation() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let ack = |n| -> QMsg {
            Msg::ResolveAck {
                action: ActionId(n),
            }
        };
        let good = wire::encode(&ack(9));
        let replies = [
            frame_bytes(0, 5, b"\xff\xfe garbage"),
            frame_bytes(0, 0, &good),
            frame_bytes(0, 5, &good),
        ];
        // The server keeps every connection open until released, so the
        // only link deaths are the ones the bad replies cause.
        let (release, released) = mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let mut requests = Vec::new();
            let mut held = Vec::new();
            for reply in replies {
                let (mut conn, _) = listener.accept().unwrap();
                requests.push(read_frame(&mut conn).unwrap());
                conn.write_all(&reply).unwrap();
                held.push(conn);
            }
            released.recv().ok();
            requests
        });

        let mut links = WorkerLinks::connect(&[port], 5..6, 77, NetFaultProfile::none());
        links.send(5, 0, ack(1));
        links.flush();
        let (to, from, msg) = next_delivery(&mut links);
        assert_eq!((to, from), (5, 0));
        assert!(matches!(msg, Msg::ResolveAck { action } if action == ActionId(9)));
        assert!(links.links[0].writer.is_some(), "link lost permanently");
        assert_eq!(links.shutdown(), (2, 2), "(reconnects, replayed frames)");

        // Every generation's first frame was the same request: sent once,
        // then replayed from the ring after each redial.
        release.send(()).unwrap();
        let requests = server.join().unwrap();
        assert_eq!(requests, vec![(5, 0, wire::encode(&ack(1))); 3]);
    }
}
