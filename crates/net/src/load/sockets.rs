//! The load harness's two socket [`Transport`]s: [`CellSockets`] carries a
//! cell's repositories over nonblocking connections, and [`WorkerLinks`]
//! carries a worker's clients over supervised reconnecting links. Both
//! read and write through one connection type, [`Conn`], speak `tcp`
//! frames of `wire`-encoded messages, and idle by blocking in
//! [`ready::wait`] on their own sockets; the host loop above them
//! (`quorumcc_replication::host::run`) never sees a byte.

use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::ops::Range;
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::c_short;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use quorumcc_replication::host::Transport;
use quorumcc_sim::{splitmix64, ProcId};

use super::QMsg;
use crate::fault::{FaultShim, NetFaultProfile};
use crate::ready;
use crate::tcp::{drain_frames, write_frame, Frame};
use crate::wire;

/// Idle wakeup cap for a worker. Readiness interrupts the wait, so this
/// bounds only how stale the deadline check can get — and the idle
/// wakeup rate: a large fleet runs hundreds of workers, and waking them
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

/// One nonblocking connection, the unit both transports read and write
/// through: bytes received wait in `rbuf` until they make whole frames
/// ([`drain_frames`]), and frames encoded wait in `wbuf` until the socket
/// takes them. Dropping it closes the socket, which is how the peer
/// learns that this side gave up on it.
struct Conn {
    sock: FaultShim<TcpStream>,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
}

impl Conn {
    fn new(sock: TcpStream, profile: NetFaultProfile, link_id: u64) -> Self {
        sock.set_nonblocking(true).expect("nonblocking conn");
        sock.set_nodelay(true).ok();
        Conn {
            sock: FaultShim::new(sock, profile, link_id),
            rbuf: Vec::new(),
            wbuf: Vec::new(),
        }
    }

    /// What a parked transport waits for here: bytes to read, and room
    /// to write while `wbuf` holds a tail the socket refused.
    fn interest(&self) -> (RawFd, c_short) {
        let write = if self.wbuf.is_empty() {
            0
        } else {
            ready::WRITE
        };
        (self.sock.get_ref().as_raw_fd(), ready::READ | write)
    }

    /// Reads everything the socket has and frames it. The `bool` is
    /// false when the connection is done for — EOF, a read error, or a
    /// corrupt length prefix (framing has lost sync) — but the whole
    /// frames that came before EOF or the error are still returned.
    fn read(&mut self, scratch: &mut [u8]) -> (Vec<Frame>, bool) {
        let open = loop {
            match self.sock.read(scratch) {
                Ok(0) => break false,
                Ok(n) => self.rbuf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break false,
            }
        };
        match drain_frames(&mut self.rbuf) {
            Ok(frames) => (frames, open),
            Err(_) => (Vec::new(), false),
        }
    }

    /// Pushes `wbuf` as far as the socket takes it; `WouldBlock` leaves
    /// the tail for a later flush, which a parked transport wakes for.
    fn write(&mut self) -> io::Result<()> {
        let mut off = 0;
        let res = loop {
            if off == self.wbuf.len() {
                break Ok(());
            }
            match self.sock.write(&self.wbuf[off..]) {
                Ok(0) => break Err(ErrorKind::WriteZero.into()),
                Ok(n) => off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };
        self.wbuf.drain(..off);
        res
    }
}

/// A connection the cell accepted: the repository whose listener took
/// it, and the connection until the cell closes it.
struct Accepted {
    repo_idx: usize,
    conn: Option<Conn>,
}

/// All of a cell's repositories on one thread, no per-repository or
/// per-connection threads. Sends between co-hosted repositories
/// short-circuit in memory.
///
/// One sweep of `poll` is accept → read every connection → in-memory
/// deliveries; `flush` pushes every write buffer as far as its socket
/// takes it. `park` returns at once after a turn that made progress;
/// otherwise it blocks until the wake socket, a live listener or an open
/// connection is readable, a connection with a tail to write is
/// writable, or `max` (the next timer, start or crash edge) passes.
///
/// A crashed repository's connections are closed and its pending
/// deliveries and routes dropped; while dark it accepts and reads nothing
/// (connects queue in its listener's backlog until it recovers).
pub(super) struct CellSockets {
    listeners: Vec<TcpListener>,
    dark: Vec<bool>,
    conns: Vec<Accepted>,
    /// (repository index, client id) -> connection the client's frames
    /// arrive on; replies route back over the same connection.
    route: HashMap<(usize, ProcId), usize>,
    /// Sends between co-hosted repositories, as `(to, from, msg)`.
    local: VecDeque<(ProcId, ProcId, QMsg)>,
    /// Readable once the cell should look at its stop flag: the other
    /// end is written to or dropped when the run stops.
    wake: UnixStream,
    profile: NetFaultProfile,
    seed: u64,
    accepted: u64,
    scratch: Vec<u8>,
    /// Sweep state: the connection whose frames are being yielded, the
    /// frames themselves, and whether a sweep is under way.
    cursor: usize,
    frames: std::vec::IntoIter<Frame>,
    sweeping: bool,
    progress: bool,
    fds: Vec<(RawFd, c_short)>,
}

impl CellSockets {
    pub(super) fn new(
        listeners: Vec<TcpListener>,
        profile: NetFaultProfile,
        seed: u64,
        wake: UnixStream,
    ) -> Self {
        for l in &listeners {
            l.set_nonblocking(true).expect("nonblocking listener");
        }
        CellSockets {
            dark: vec![false; listeners.len()],
            listeners,
            conns: Vec::new(),
            route: HashMap::new(),
            local: VecDeque::new(),
            wake,
            profile,
            seed,
            accepted: 0,
            scratch: vec![0u8; 64 * 1024],
            cursor: 0,
            frames: Vec::new().into_iter(),
            sweeping: false,
            progress: false,
            fds: Vec::new(),
        }
    }

    /// Accepts every pending connection on every live listener.
    fn accept_all(&mut self) {
        for (r, l) in self.listeners.iter().enumerate() {
            if self.dark[r] {
                continue;
            }
            while let Ok((sock, _addr)) = l.accept() {
                self.accepted += 1;
                let link_id = splitmix64(self.seed ^ ((r as u64) << 40) ^ self.accepted);
                self.conns.push(Accepted {
                    repo_idx: r,
                    conn: Some(Conn::new(sock, self.profile, link_id)),
                });
                self.progress = true;
            }
        }
    }

    /// Pulls whatever connection `ci` has and frames it into `frames`.
    fn read_conn(&mut self, ci: usize) {
        let a = &mut self.conns[ci];
        let Some(c) = &mut a.conn else {
            return;
        };
        let (frames, open) = c.read(&mut self.scratch);
        self.progress |= !frames.is_empty();
        self.frames = frames.into_iter();
        if !open {
            a.conn = None;
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
            if let Some((from, _to, payload)) = self.frames.next() {
                let ci = self.cursor - 1;
                let Some(msg) = wire::decode::<QMsg>(&payload) else {
                    self.conns[ci].conn = None;
                    self.frames = Vec::new().into_iter();
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
            if let Some(c) = &mut self.conns[ci].conn {
                write_frame(&mut c.wbuf, from, to, &wire::encode(&msg)).ok();
            }
        }
    }

    fn flush(&mut self) {
        for a in &mut self.conns {
            if a.conn.as_mut().is_some_and(|c| c.write().is_err()) {
                a.conn = None;
            }
        }
    }

    fn park(&mut self, max: Duration) {
        if std::mem::take(&mut self.progress) {
            return;
        }
        self.fds.clear();
        self.fds.push((self.wake.as_raw_fd(), ready::READ));
        let live = self.listeners.iter().zip(&self.dark).filter(|(_, d)| !**d);
        let listening = live.map(|(l, _)| (l.as_raw_fd(), ready::READ));
        let open = self.conns.iter().filter_map(|a| a.conn.as_ref());
        self.fds.extend(listening.chain(open.map(Conn::interest)));
        ready::wait(&self.fds, max);
    }

    fn crashed(&mut self, node: ProcId) {
        let victim = node as usize;
        self.dark[victim] = true;
        for a in self.conns.iter_mut().filter(|a| a.repo_idx == victim) {
            a.conn = None;
        }
        self.local.retain(|&(to, _, _)| to != node);
        self.route.retain(|&(r, _), _| r != victim);
    }

    fn recovered(&mut self, node: ProcId) {
        self.dark[node as usize] = false;
    }
}

/// A supervised worker→repository connection: when the connection fails
/// — a read or write error, EOF, lost framing, or a reply the worker
/// cannot use — the link is severed and redialed with capped exponential
/// backoff plus deterministic jitter, and the last [`LINK_RING`] frames
/// are replayed over the new socket. Replay is safe because every
/// protocol message is idempotent repository-side (DESIGN §3.17); in
/// particular a replayed `Resolve` re-earns the `ResolveAck` that
/// unsticks the durable-GC frontier after an ack was lost with the old
/// connection.
struct PeerLink {
    port: u16,
    seed: u64,
    /// The live connection; `None` while the link is down.
    conn: Option<Conn>,
    ring: VecDeque<Vec<u8>>,
    /// Successful connects so far (first connect included).
    established: u64,
    /// Consecutive failed dial attempts since the last success.
    attempts: u32,
    next_attempt: Instant,
    reconnects: u64,
    retransmit_frames: u64,
    rng: u64,
}

impl PeerLink {
    fn new(port: u16, seed: u64) -> Self {
        PeerLink {
            port,
            seed,
            conn: None,
            ring: VecDeque::new(),
            established: 0,
            attempts: 0,
            next_attempt: Instant::now(),
            reconnects: 0,
            retransmit_frames: 0,
            rng: splitmix64(seed ^ 0xbacc_0ff5),
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

    /// Closes the connection, if there is one, and schedules the first
    /// redial.
    fn sever(&mut self) {
        if self.conn.take().is_some() {
            self.attempts = 0;
            self.back_off();
        }
    }

    /// Queues `frame` on the ring and, if the link is up, behind the
    /// connection's write buffer.
    fn send(&mut self, frame: Vec<u8>) {
        if self.ring.len() == LINK_RING {
            self.ring.pop_front();
        }
        if let Some(c) = &mut self.conn {
            c.wbuf.extend_from_slice(&frame);
        }
        self.ring.push_back(frame);
    }

    /// Writes what the socket takes; a failure severs the link (the
    /// frames survive on the ring).
    fn flush(&mut self) {
        if self.conn.as_mut().is_some_and(|c| c.write().is_err()) {
            self.sever();
        }
    }
}

/// A worker's side of the wire: one supervised [`PeerLink`] per
/// repository, read once per `poll` sweep, and the id range of the
/// clients the worker hosts.
pub(super) struct WorkerLinks {
    links: Vec<PeerLink>,
    profile: NetFaultProfile,
    ids: Range<ProcId>,
    scratch: Vec<u8>,
    /// Sweep state: the link whose frames are being yielded and the
    /// frames themselves.
    cursor: usize,
    frames: std::vec::IntoIter<Frame>,
    fds: Vec<(RawFd, c_short)>,
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
        let mut links = WorkerLinks {
            links: ports
                .iter()
                .enumerate()
                .map(|(i, port)| PeerLink::new(*port, splitmix64(seed ^ i as u64)))
                .collect(),
            profile,
            ids,
            scratch: vec![0u8; 64 * 1024],
            cursor: 0,
            frames: Vec::new().into_iter(),
            fds: Vec::new(),
        };
        links.supervise();
        links
    }

    /// Dials every link that is down and due for an attempt, queues the
    /// ring's replay as the fresh connection's first bytes and writes
    /// what the socket takes.
    fn supervise(&mut self) {
        for link in &mut self.links {
            if link.conn.is_some() || Instant::now() < link.next_attempt {
                continue;
            }
            let Ok(sock) = TcpStream::connect(("127.0.0.1", link.port)) else {
                link.attempts += 1;
                link.back_off();
                continue;
            };
            link.established += 1;
            if link.established > 1 {
                link.reconnects += 1;
            }
            let mut conn = Conn::new(sock, self.profile, splitmix64(link.seed ^ link.established));
            for f in &link.ring {
                conn.wbuf.extend_from_slice(f);
            }
            link.retransmit_frames += link.ring.len() as u64;
            link.attempts = 0;
            link.conn = Some(conn);
            link.flush();
        }
    }

    /// Closes every connection and returns the supervision counters
    /// `(reconnects, retransmit_frames)`.
    pub(super) fn shutdown(self) -> (u64, u64) {
        (
            self.links.iter().map(|l| l.reconnects).sum(),
            self.links.iter().map(|l| l.retransmit_frames).sum(),
        )
    }
}

impl Transport<QMsg> for WorkerLinks {
    /// One sweep reads every link once. Bytes off a socket: a reply that
    /// does not decode, or is addressed to a client this worker does not
    /// host, severs the link it came over, nothing more.
    fn poll(&mut self) -> Option<(ProcId, ProcId, QMsg)> {
        loop {
            if let Some((from, to, payload)) = self.frames.next() {
                match wire::decode::<QMsg>(&payload) {
                    Some(msg) if self.ids.contains(&to) => return Some((to, from, msg)),
                    _ => self.links[self.cursor - 1].sever(),
                }
                continue;
            }
            if self.cursor == self.links.len() {
                self.cursor = 0;
                return None;
            }
            self.cursor += 1;
            let link = &mut self.links[self.cursor - 1];
            if let Some(c) = &mut link.conn {
                let (frames, open) = c.read(&mut self.scratch);
                self.frames = frames.into_iter();
                if !open {
                    link.sever();
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

    /// Redials what is due, then blocks until a link is readable (or
    /// writable, while it holds a tail), the host's next local event is
    /// due (`max`), the next redial is due, or [`IDLE_POLL`] passes.
    fn park(&mut self, max: Duration) {
        self.supervise();
        let mut wait = max.min(IDLE_POLL);
        if let Some(due) = self
            .links
            .iter()
            .filter(|l| l.conn.is_none())
            .map(|l| l.next_attempt)
            .min()
        {
            let until = due
                .saturating_duration_since(Instant::now())
                .max(Duration::from_micros(100));
            wait = wait.min(until);
        }
        self.fds.clear();
        let open = self.links.iter().filter_map(|l| l.conn.as_ref());
        self.fds.extend(open.map(Conn::interest));
        ready::wait(&self.fds, wait);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorumcc_model::ActionId;
    use quorumcc_replication::Msg;
    use std::sync::mpsc;

    use crate::tcp::read_frame;

    fn frame_bytes(from: ProcId, to: ProcId, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, from, to, payload).unwrap();
        out
    }

    fn ack(n: u32) -> QMsg {
        Msg::ResolveAck {
            action: ActionId(n),
        }
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
        assert!(links.links[0].conn.is_some(), "link lost permanently");
        assert_eq!(links.shutdown(), (2, 2), "(reconnects, replayed frames)");

        // Every generation's first frame was the same request: sent once,
        // then replayed from the ring after each redial.
        release.send(()).unwrap();
        let requests = server.join().unwrap();
        assert_eq!(requests, vec![(5, 0, wire::encode(&ack(1))); 3]);
    }

    /// A repository that sends one reply and then closes its socket: the
    /// worker delivers the reply, reads the EOF itself, severs the link
    /// and redials, replaying the request.
    #[test]
    fn server_close_after_a_reply_severs_and_redials() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let (release, released) = mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut first, _) = listener.accept().unwrap();
            let mut requests = vec![read_frame(&mut first).unwrap()];
            first
                .write_all(&frame_bytes(0, 5, &wire::encode(&ack(9))))
                .unwrap();
            drop(first);
            let (mut second, _) = listener.accept().unwrap();
            requests.push(read_frame(&mut second).unwrap());
            released.recv().ok();
            requests
        });

        let mut links = WorkerLinks::connect(&[port], 5..6, 78, NetFaultProfile::none());
        links.send(5, 0, ack(1));
        links.flush();
        let (to, _, msg) = next_delivery(&mut links);
        assert_eq!(to, 5);
        assert!(matches!(msg, Msg::ResolveAck { action } if action == ActionId(9)));
        for _ in 0..2000 {
            if links.links[0].reconnects == 1 && links.links[0].conn.is_some() {
                break;
            }
            assert!(links.poll().is_none(), "a closed link delivered twice");
            links.flush();
            links.park(Duration::from_millis(5));
        }
        assert_eq!(links.shutdown(), (1, 1), "(reconnects, replayed frames)");
        release.send(()).unwrap();
        let requests = server.join().unwrap();
        assert_eq!(requests, vec![(5, 0, wire::encode(&ack(1))); 2]);
    }

    /// Frames far larger than the socket buffers, sent to a server that
    /// does not read at first and then reads slowly: the first flush
    /// leaves a tail in the write buffer, `park` wakes when the socket
    /// has room again, and every frame arrives once, whole and in order.
    #[test]
    fn a_write_tail_is_flushed_on_write_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let frames: Vec<Vec<u8>> = (0..4u8)
            .map(|k| frame_bytes(5, 0, &vec![k; 4 << 20]))
            .collect();
        let (go, gone) = mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            gone.recv().unwrap();
            (0..4)
                .map(|_| {
                    std::thread::sleep(Duration::from_millis(20));
                    read_frame(&mut conn).unwrap()
                })
                .collect::<Vec<_>>()
        });

        let mut links = WorkerLinks::connect(&[port], 5..6, 79, NetFaultProfile::none());
        for f in &frames {
            links.links[0].send(f.clone());
        }
        links.flush();
        let tail = |links: &WorkerLinks| links.links[0].conn.as_ref().unwrap().wbuf.len();
        assert!(tail(&links) > 0, "16 MiB fit the socket buffers");
        go.send(()).unwrap();
        for _ in 0..2000 {
            if tail(&links) == 0 {
                break;
            }
            links.park(Duration::from_secs(1));
            links.flush();
        }
        assert_eq!(tail(&links), 0, "the tail never drained");
        let got = server.join().unwrap();
        let sent: Vec<Frame> = frames
            .iter()
            .map(|f| read_frame(&mut &f[..]).unwrap())
            .collect();
        assert_eq!(got, sent);
        assert_eq!(links.shutdown(), (0, 0));
    }

    /// A cell parked with a 30 s budget and no timers returns as soon as
    /// a peer's frame is readable, and the next sweep delivers it.
    #[test]
    fn a_parked_cell_wakes_when_a_frame_arrives() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        let (wake, _stop) = UnixStream::pair().unwrap();
        let mut cell = CellSockets::new(vec![listener], NetFaultProfile::none(), 1, wake);
        let mut peer = TcpStream::connect(("127.0.0.1", port)).unwrap();
        while cell.poll().is_some() {}
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            peer.write_all(&frame_bytes(7, 0, &wire::encode(&ack(3))))
                .unwrap();
            peer
        });
        let t0 = Instant::now();
        let delivery = (0..20).find_map(|_| {
            cell.park(Duration::from_secs(30));
            cell.poll()
        });
        assert!(t0.elapsed() < Duration::from_secs(10), "{:?}", t0.elapsed());
        let (to, from, msg) = delivery.expect("the frame was never delivered");
        assert_eq!((to, from), (0, 7));
        assert!(matches!(msg, Msg::ResolveAck { action } if action == ActionId(3)));
        drop(writer.join().unwrap());
    }

    /// A parked cell with nothing to serve returns once the stop end of
    /// its wake socket is written to, and once it is dropped.
    #[test]
    fn a_parked_cell_wakes_on_stop() {
        for drop_it in [false, true] {
            let (wake, mut stop) = UnixStream::pair().unwrap();
            let mut cell = CellSockets::new(Vec::new(), NetFaultProfile::none(), 1, wake);
            let stopper = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(100));
                if drop_it {
                    None
                } else {
                    stop.write_all(b"x").unwrap();
                    Some(stop)
                }
            });
            let t0 = Instant::now();
            cell.park(Duration::from_secs(30));
            assert!(t0.elapsed() < Duration::from_secs(10), "{:?}", t0.elapsed());
            drop(stopper.join().unwrap());
        }
    }
}
