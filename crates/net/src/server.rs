//! The readiness-based detection server: a small pool of I/O shards,
//! each running one event loop over one [`crate::sys::Poller`].
//!
//! # Shard model
//!
//! Every shard owns, exclusively:
//!
//! * a clone of the listening socket (all clones share one file
//!   description, so the kernel load-balances accepts across whichever
//!   shards are awake);
//! * a slab of connection states with incremental frame decode
//!   ([`crate::codec::FrameAssembler`]) and vectored reply writes
//!   ([`crate::codec::WriteQueue`]);
//! * its **own** [`SessionService`] — and with it its own
//!   [`awsad_runtime::DetectionEngine`] and session registry — so a
//!   session's ticks never cross a shard boundary.
//!
//! The shard is only an I/O adapter: every request rule (ownership,
//! quotas, TTL eviction, replication, error codes and messages) lives
//! in the service, the same code the blocking server runs. Sessions are
//! pinned to shards by the service's wire-id allocation: shard `k` of
//! `n` hands out ids `k, k + n, k + 2n, …`, so `id % n` names the
//! owning shard forever. Since a session is only reachable from the
//! connection that opened it, and a connection lives on exactly one
//! shard, no request can ever need a session another shard owns.
//!
//! # Readiness state machine
//!
//! The loop is level-triggered: a handler that stops mid-work (a full
//! request queue, a write that hit `EAGAIN`) is simply re-notified on
//! the next wait. Per readiness event a connection advances through
//! read → decode → enqueue requests → serve → queue replies → flush;
//! a `Tick` batch parks as the connection's single in-flight engine
//! batch, and the engine's drain doorbell
//! ([`awsad_runtime::DetectionEngine::set_drain_notifier`] writing one
//! byte into the shard's wake pipe) re-enters the loop to poll it —
//! the event loop never blocks on the engine. Serving is one loop
//! (collect the parked batch, serve the next request, repeat), so a
//! deep pipeline of requests that complete at once does not grow the
//! stack.
//!
//! Backpressure is the request-queue bound: a read decodes at most
//! [`REQUEST_QUEUE_CAP`] requests per connection, and a connection
//! holding that many stops being read, which fills the kernel socket
//! buffer, which stalls the sender — TCP doing the throttling.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use awsad_runtime::RuntimeMetrics;
use awsad_serve::server::{ServerConfig, TransportMetrics};
use awsad_serve::service::{PendingBatch, Served, SessionService};
use awsad_serve::wire::{Envelope, Frame};

use crate::codec::{BufferPool, FrameAssembler, ReadStatus, WriteQueue};
use crate::sys::{Interest, Poller, PollerBackend};

/// Decoded-but-unserved requests a connection may hold before the
/// shard stops reading it (TCP backpressure takes over from there).
pub const REQUEST_QUEUE_CAP: usize = 32;

/// Poller token of the shard's listener clone.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the shard's wake pipe (engine doorbell + shutdown).
const TOKEN_WAKE: u64 = 1;
/// Connection tokens start here; the low 32 bits are `slot + 2`, the
/// high 32 bits a generation counter so an event raced against slot
/// reuse can be recognized as stale and dropped.
const TOKEN_CONN_BASE: u64 = 2;

/// Cadence of the maintenance sweep (frame deadline, session TTL,
/// outcome timeout) — also the poller wait bound, so sweeps run even
/// on a silent shard.
const SWEEP_INTERVAL: Duration = Duration::from_millis(50);

/// Construction parameters for [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Protocol-level configuration, shared verbatim with the
    /// blocking server: engine shape (applied **per shard**), frame
    /// size limit, outcome timeout, per-connection session limit,
    /// server name, session TTL, and frame deadline.
    /// `read_timeout` is ignored — a readiness loop has no blocking
    /// reads to bound.
    pub base: ServerConfig,
    /// I/O shard count; `0` (the default) sizes to available
    /// parallelism, clamped to `1..=4` (each shard also carries its
    /// engine's workers, so shard count is not the whole story).
    pub shards: usize,
    /// Force the portable `poll(2)` backend even where epoll is
    /// available (diagnostics and differential testing).
    pub force_poll: bool,
    /// Connections one shard will hold; an accept beyond this is
    /// closed immediately (counted in `connections_dropped`).
    pub max_connections_per_shard: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            base: ServerConfig::default(),
            shards: 0,
            force_poll: false,
            max_connections_per_shard: 16 * 1024,
        }
    }
}

impl NetServerConfig {
    /// The shard count `bind` will actually use.
    pub fn resolved_shards(&self) -> usize {
        if self.shards != 0 {
            return self.shards;
        }
        thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .clamp(1, 4)
    }
}

/// A running readiness-based detection server. Dropping it (or
/// calling [`NetServer::shutdown`]) wakes every shard and joins them.
pub struct NetServer {
    local_addr: SocketAddr,
    backend: PollerBackend,
    /// One service per shard; any of them reports server-wide metrics.
    services: Vec<Arc<SessionService>>,
    shutdown: Arc<AtomicBool>,
    /// One write end per shard wake pipe, for shutdown nudges.
    wakers: Vec<UnixStream>,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("local_addr", &self.local_addr)
            .field("backend", &self.backend.name())
            .field("shards", &self.services.len())
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Binds `addr` (port 0 for ephemeral) and starts the shard pool.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/clone and poller construction failures.
    pub fn bind(addr: impl ToSocketAddrs, config: NetServerConfig) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let nshards = config.resolved_shards();
        let services: Vec<Arc<SessionService>> =
            SessionService::for_server(config.base.clone(), nshards, true)
                .into_iter()
                .map(Arc::new)
                .collect();
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut wakers = Vec::with_capacity(nshards);
        let mut threads = Vec::with_capacity(nshards);
        let mut backend = PollerBackend::Poll;
        for (idx, service) in services.iter().enumerate() {
            let poller = Poller::new(config.force_poll)?;
            backend = poller.backend();
            let (wake_rx, wake_tx) = UnixStream::pair()?;
            wake_rx.set_nonblocking(true)?;
            wake_tx.set_nonblocking(true)?;
            // The engine's drain doorbell: rings the shard awake when
            // outcomes become collectable. Nonblocking — a full pipe
            // already holds a pending wake, so a dropped byte is fine.
            let doorbell = wake_tx.try_clone()?;
            service.engine().set_drain_notifier(move || {
                let _ = (&doorbell).write(&[1]);
            });
            wakers.push(wake_tx);
            let shard = Shard {
                service: Arc::clone(service),
                shutdown: Arc::clone(&shutdown),
                max_connections: config.max_connections_per_shard,
                poller,
                listener: listener.try_clone()?,
                wake_rx,
                conns: Vec::new(),
                free_slots: Vec::new(),
                conns_active: 0,
                next_gen: 0,
                pool: BufferPool::default(),
                payloads: Vec::new(),
                events: Vec::new(),
                last_sweep: Instant::now(),
            };
            threads.push(
                thread::Builder::new()
                    .name(format!("awsad-net-shard-{idx}"))
                    .spawn(move || shard.run())
                    .expect("spawn shard thread"),
            );
        }
        Ok(NetServer {
            local_addr,
            backend,
            services,
            shutdown,
            wakers,
            threads: Mutex::new(threads),
        })
    }

    /// The address the server is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The readiness backend the shards are running on.
    pub fn backend(&self) -> PollerBackend {
        self.backend
    }

    /// Number of I/O shards (each with its own engine).
    pub fn shards(&self) -> usize {
        self.services.len()
    }

    /// Cross-shard engine counters, folded with
    /// [`RuntimeMetrics::merged`].
    pub fn engine_metrics(&self) -> RuntimeMetrics {
        self.services[0].engine_metrics()
    }

    /// Cross-shard transport counters, summed.
    pub fn transport_metrics(&self) -> TransportMetrics {
        self.services[0].transport_metrics()
    }

    /// Frames that arrived torn across readiness wakeups and were
    /// completed by mid-frame resume, across all shards.
    pub fn partial_frame_resumes(&self) -> u64 {
        self.transport_metrics().partial_frame_resumes
    }

    /// Stops every shard: connections close, sessions drop (queued
    /// ticks still drain on each shard's engine), threads join.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for w in &self.wakers {
            let _ = (&*w).write(&[1]);
        }
        let threads: Vec<_> = self
            .threads
            .lock()
            .expect("shard thread handles lock")
            .drain(..)
            .collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-connection state in the shard slab.
struct Conn {
    stream: TcpStream,
    /// Poller token, also the connection id the service knows it by.
    token: u64,
    assembler: FrameAssembler,
    /// `assembler.resumed_frames()` already published to the service
    /// counter (delta accounting).
    resumes_reported: u64,
    writes: WriteQueue,
    requests: VecDeque<Envelope>,
    /// The in-flight `Tick` batch and its request's correlation id. At
    /// most one, so nothing overtakes an unanswered batch.
    pending: Option<(PendingBatch, Option<u64>)>,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Peer closed its write side cleanly at a frame boundary; serve
    /// what's queued, flush, then close without counting a drop.
    read_eof: bool,
    /// Fatal protocol error: the error frame is queued; close once it
    /// flushes (or the flush fails). Its drop is already counted.
    poisoned: bool,
}

impl Conn {
    /// Queues a reply, echoing the request's correlation id (legacy
    /// corr-less requests get legacy corr-less replies).
    fn push_reply(&mut self, reply: &Frame, corr: Option<u64>) {
        self.writes.push_frame(reply.encode_with_corr(corr));
    }

    /// Marks the connection fatally desynchronized: queues the
    /// explanatory error frame (best effort — delivery races the peer)
    /// and flags it for close-after-flush.
    fn poison(&mut self, service: &SessionService, err: &dyn std::fmt::Display) {
        if !self.poisoned {
            self.push_reply(&service.protocol_violation(err), None);
            self.poisoned = true;
            self.requests.clear();
        }
    }
}

/// One I/O shard: poller, listener clone, wake pipe, connection slab,
/// buffer pool — all exclusively owned — over its own service.
struct Shard {
    service: Arc<SessionService>,
    shutdown: Arc<AtomicBool>,
    max_connections: usize,
    poller: Poller,
    listener: TcpListener,
    wake_rx: UnixStream,
    conns: Vec<Option<Conn>>,
    free_slots: Vec<usize>,
    conns_active: usize,
    /// Generation stamp for connection tokens.
    next_gen: u64,
    pool: BufferPool,
    /// Scratch: completed payloads from the current read.
    payloads: Vec<Vec<u8>>,
    /// Scratch: events from the current wait.
    events: Vec<crate::sys::Event>,
    last_sweep: Instant,
}

impl Shard {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn run(mut self) {
        if self
            .poller
            .register(self.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
            .is_err()
            || self
                .poller
                .register(self.wake_rx.as_raw_fd(), TOKEN_WAKE, Interest::READ)
                .is_err()
        {
            return;
        }
        let mut events = Vec::new();
        while !self.shutting_down() {
            if self.poller.wait(&mut events, SWEEP_INTERVAL).is_err() {
                // EBADF-class failures are unrecoverable for the loop;
                // EINTR already surfaces as an empty wait.
                break;
            }
            std::mem::swap(&mut self.events, &mut events);
            let mut pump = false;
            for i in 0..self.events.len() {
                let ev = self.events[i];
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => {
                        self.drain_wake_pipe();
                        pump = true;
                    }
                    token => self.conn_event(token),
                }
            }
            self.events.clear();
            std::mem::swap(&mut self.events, &mut events);
            if pump {
                self.pump_all();
            }
            if self.last_sweep.elapsed() >= SWEEP_INTERVAL {
                self.sweep();
                self.last_sweep = Instant::now();
            }
        }
        // Shutdown: deregister and drop everything; each session
        // handle's Drop closes it and the engine drains what's queued.
        for slot in 0..self.conns.len() {
            self.close_conn(slot, false);
        }
    }

    /// Accepts until `EAGAIN`. All shards share the listener's file
    /// description, so whichever shards wake race for each pending
    /// connection; losers see `EAGAIN` and move on.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.conns_active >= self.max_connections {
                        self.service.connection_dropped();
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.service.connection_opened();
                    self.insert_conn(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // Transient failure (e.g. EMFILE): give up this
                // readiness round; level triggering re-offers it.
                Err(_) => return,
            }
        }
    }

    fn insert_conn(&mut self, stream: TcpStream) {
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.next_gen = self.next_gen.wrapping_add(1);
        let token = (slot as u64 + TOKEN_CONN_BASE) | ((self.next_gen & 0xffff_ffff) << 32);
        if self
            .poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            // Poller rejected the fd; the stream drops and closes.
            self.service.connection_dropped();
            self.free_slots.push(slot);
            return;
        }
        self.conns[slot] = Some(Conn {
            stream,
            token,
            assembler: FrameAssembler::new(self.service.config().max_frame_len),
            resumes_reported: 0,
            writes: WriteQueue::default(),
            requests: VecDeque::new(),
            pending: None,
            interest: Interest::READ,
            read_eof: false,
            poisoned: false,
        });
        self.conns_active += 1;
    }

    /// Maps a poller token to its slab slot, discarding stale events
    /// (a slot reused after close gets a fresh generation).
    fn slot_of(&self, token: u64) -> Option<usize> {
        let slot = (token & 0xffff_ffff).checked_sub(TOKEN_CONN_BASE)? as usize;
        match self.conns.get(slot) {
            Some(Some(c)) if c.token == token => Some(slot),
            _ => None,
        }
    }

    fn conn_event(&mut self, token: u64) {
        let Some(slot) = self.slot_of(token) else {
            return;
        };
        // Readable work first: even a connection the peer already
        // hung up on may hold complete frames worth serving.
        self.read_ready(slot);
        self.advance(slot);
    }

    /// Reads up to the request-queue bound, decodes completed frames
    /// into the request queue, and classifies the stop condition.
    fn read_ready(&mut self, slot: usize) {
        let conn = self.conns[slot].as_mut().expect("live conn");
        let room = REQUEST_QUEUE_CAP.saturating_sub(conn.requests.len());
        if conn.poisoned || conn.read_eof || room == 0 {
            return;
        }
        let status =
            conn.assembler
                .read_at_most(&mut conn.stream, &mut self.pool, &mut self.payloads, room);
        let resumes = conn.assembler.resumed_frames();
        if resumes != conn.resumes_reported {
            self.service.frames_resumed(resumes - conn.resumes_reported);
            conn.resumes_reported = resumes;
        }
        for payload in self.payloads.drain(..) {
            if !conn.poisoned {
                match Frame::decode_enveloped(&payload) {
                    Ok(env) => conn.requests.push_back(env),
                    Err(err) => conn.poison(&self.service, &err),
                }
            }
            self.pool.put(payload);
        }
        match status {
            ReadStatus::WouldBlock => {}
            ReadStatus::Closed => conn.read_eof = true,
            ReadStatus::Protocol(err) => conn.poison(&self.service, &err),
            ReadStatus::Io(_) => {
                let count = !self.shutting_down();
                self.close_conn(slot, count);
            }
        }
    }

    /// Serves what can be served, flushes, updates poller interest,
    /// and closes the connection if it has nothing left to live for.
    fn advance(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        serve_requests(&self.service, conn);
        if !conn.writes.is_empty() && conn.writes.flush(&mut conn.stream).is_err() {
            let count = !self.shutting_down();
            self.close_conn(slot, count);
            return;
        }
        let done_writing = conn.writes.is_empty();
        // A poisoned connection closes once its error frame is out
        // (its drop is already counted); a clean EOF at a frame
        // boundary is not a drop.
        if done_writing
            && (conn.poisoned
                || (conn.read_eof && conn.requests.is_empty() && conn.pending.is_none()))
        {
            self.close_conn(slot, false);
            return;
        }
        let want = Interest {
            readable: !conn.read_eof && !conn.poisoned && conn.requests.len() < REQUEST_QUEUE_CAP,
            writable: !done_writing,
        };
        if want != conn.interest {
            conn.interest = want;
            let (fd, token) = (conn.stream.as_raw_fd(), conn.token);
            if self.poller.reregister(fd, token, want).is_err() {
                let count = !self.shutting_down();
                self.close_conn(slot, count);
            }
        }
    }

    /// Advances every connection with an in-flight batch. Runs once
    /// per loop iteration after the doorbell rang — coalesced, so a
    /// burst of engine drains costs one pass.
    fn pump_all(&mut self) {
        for slot in 0..self.conns.len() {
            if matches!(&self.conns[slot], Some(c) if c.pending.is_some()) {
                self.advance(slot);
            }
        }
    }

    /// Drains the wake pipe (engine doorbell and shutdown nudges are
    /// both just bytes; what matters is that the loop woke).
    fn drain_wake_pipe(&mut self) {
        let mut buf = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    /// The maintenance sweep: slow-loris frame deadlines, outcome
    /// timeouts (the pump answers a batch past its deadline), and
    /// session TTL eviction. The pump is also a safety net — the
    /// doorbell is at-least-once, but a missed edge only ever costs
    /// one sweep interval of reply latency.
    fn sweep(&mut self) {
        self.pump_all();
        let frame_deadline = self.service.config().frame_deadline;
        // A peer stalled mid-frame past the deadline is dropped — the
        // readiness analogue of the blocking reader's armed timer.
        let stalled = |c: &Conn| {
            c.assembler
                .mid_frame_since()
                .is_some_and(|since| since.elapsed() >= frame_deadline)
        };
        for slot in 0..self.conns.len() {
            if self.conns[slot].as_ref().is_some_and(stalled) {
                let count = !self.shutting_down();
                self.close_conn(slot, count);
            }
        }
        self.service.sweep_idle();
    }

    /// Tears a connection down: poller deregistration **before** the
    /// fd closes (a closed fd in a poll set is undefined-ish:
    /// POLLNVAL at best), session cleanup, slab slot recycling. A
    /// poisoned connection's drop was counted when it was poisoned.
    fn close_conn(&mut self, slot: usize, count_drop: bool) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        if count_drop && !conn.poisoned {
            self.service.connection_dropped();
        }
        self.service.close_connection(conn.token);
        self.conns_active -= 1;
        self.free_slots.push(slot);
    }
}

/// Serves `conn`'s queued requests in arrival order: collect the
/// in-flight batch if its outcomes are in, serve the next request,
/// repeat — until the queue empties or a batch is still waiting on the
/// engine. A loop, not a recursion, however many requests complete at
/// once.
fn serve_requests(service: &SessionService, conn: &mut Conn) {
    loop {
        if let Some((batch, corr)) = conn.pending.take() {
            match service.poll(batch) {
                Ok(reply) => conn.push_reply(&reply, corr),
                Err(batch) => {
                    conn.pending = Some((batch, corr));
                    return;
                }
            }
        }
        if conn.poisoned {
            return;
        }
        let Some(env) = conn.requests.pop_front() else {
            return;
        };
        match service.serve(conn.token, env.frame) {
            Served::Reply(reply) => conn.push_reply(&reply, env.corr),
            // Outcomes may already be waiting (the doorbell can beat
            // us here); the next turn of the loop polls eagerly.
            Served::Batch(batch) => conn.pending = Some((batch, env.corr)),
        }
    }
}
