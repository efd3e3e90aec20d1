//! The AWSAD detection server: a TCP front-end over one shared
//! [`DetectionEngine`](awsad_runtime::DetectionEngine).
//!
//! Threading model: one accept thread plus **one reader thread per
//! connection**. The server is only an I/O adapter: each reader
//! decodes frames and hands them to the server's one
//! [`SessionService`], which owns every request rule — the
//! session registry and its owner checks, quotas, TTL eviction,
//! replication — and blocks the reader on a `Tick` batch's outcomes
//! (holding only that session's lock). Each connection speaks a
//! strict request/reply discipline: every decoded frame is answered by
//! exactly one reply frame, and a request's correlation id (when
//! present) is echoed on its reply. Cross-connection concurrency comes
//! from the engine's worker pool, not from interleaving on a socket.
//!
//! Session lifetime: a connection's sessions are closed when the
//! connection ends (any cause). A client that wants its detector
//! state to survive transport failure snapshots it
//! ([`Frame::SnapshotSession`](crate::wire::Frame::SnapshotSession))
//! and restores it on a fresh connection
//! ([`Frame::RestoreSession`](crate::wire::Frame::RestoreSession)) —
//! the engine rebuilds the session bit-exactly, so the resumed outcome
//! stream is byte-identical to an uninterrupted run.
//! `crate::ReconnectingClient` automates this. Orthogonally,
//! [`ServerConfig::session_ttl`] lets the server evict sessions a
//! *live* connection has left idle; the accept thread sweeps for them
//! between accepts.
//!
//! Hostile-input posture, per the serving-layer design:
//!
//! * the declared frame length is checked against
//!   [`ServerConfig::max_frame_len`] *before* any allocation;
//! * a malformed frame (bad magic/version/type, truncation, trailing
//!   bytes) increments the `decode_errors` transport counter and
//!   tears down **only that connection** — its sessions close, queued
//!   ticks still drain, and every other session keeps ticking;
//! * sockets carry a read timeout so connection threads observe the
//!   shutdown flag within [`ServerConfig::read_timeout`] even while a
//!   peer is idle or trickling bytes mid-frame, and a frame that does
//!   not complete within [`ServerConfig::frame_deadline`] of its
//!   first byte drops the connection — a slow-loris peer ties up only
//!   its own connection, and only for a bounded time;
//! * overload maps onto the engine's own backpressure: under
//!   [`BackpressurePolicy::Block`](awsad_runtime::BackpressurePolicy)
//!   a flooding client is throttled by its own unanswered batch, and
//!   under `Degrade` its over-quota ticks take the flagged cheap path
//!   — either way other sessions' latency is protected.

use std::io::{self, BufReader, BufWriter, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use awsad_core::{AdaptiveDetector, DataLogger, DetectorConfig};
use awsad_linalg::Vector;
use awsad_models::Simulator;
use awsad_reach::{CacheConfig, DeadlineCache};
use awsad_runtime::{EngineConfig, LatencyHistogram, RuntimeMetrics};

use crate::service::SessionService;
use crate::wire::{
    read_envelope, write_frame, write_frame_corr, ErrorCode, ReadFrameError, RingMember,
    SessionSpec, WireLatency, WireMetrics, WireSessionState, DEFAULT_MAX_FRAME_LEN,
};

/// One session snapshot headed for a backup peer, handed to the
/// server's [`ReplicationSink`] after every accepted tick batch.
#[derive(Debug, Clone)]
pub struct ReplicationUpdate {
    /// The live session id on the primary.
    pub session: u64,
    /// Snapshot generation (strictly increasing per session lineage);
    /// the backup rejects anything not newer than what it holds.
    pub generation: u64,
    /// The spec the session was opened with — the backup needs it to
    /// rebuild the detector stack at promotion time.
    pub spec: SessionSpec,
    /// The session state as of the just-answered batch.
    pub state: WireSessionState,
}

/// Where a replication-enabled server sends its post-batch snapshots.
///
/// Implementations (see `awsad-cluster`) typically enqueue the update
/// for a background sender so the hot reply path never waits on the
/// backup's socket — replication is asynchronous by design, and the
/// cluster router compensates for the resulting lag at promotion time
/// by comparing the promoted replica's progress against its own
/// checkpoint.
pub trait ReplicationSink: Send + Sync {
    /// Accepts one update. Returns the sink's current backlog —
    /// updates accepted but not yet acknowledged by the backup,
    /// including this one — which the server records as the
    /// replication-lag high-water mark.
    fn replicate(&self, update: ReplicationUpdate) -> u64;
    /// The server accepted ring epoch `epoch` with membership
    /// `members`; the sink re-derives its backup target from it.
    fn ring_update(&self, epoch: u64, members: &[RingMember]);
}

/// Server construction parameters.
#[derive(Clone)]
pub struct ServerConfig {
    /// Engine configuration (worker count, queue capacity,
    /// backpressure policy) for the shared detection engine.
    pub engine: EngineConfig,
    /// Maximum accepted frame payload length; larger declarations are
    /// rejected before allocation and drop the connection.
    pub max_frame_len: u32,
    /// Socket read timeout — the cadence at which idle connection
    /// threads re-check the shutdown flag.
    pub read_timeout: Duration,
    /// How long a `Tick` request may wait for the engine to produce
    /// its outcomes before the server answers with
    /// [`ErrorCode::Timeout`].
    pub outcome_timeout: Duration,
    /// Maximum sessions one connection may hold open.
    pub max_sessions_per_connection: usize,
    /// Name returned in the `HelloAck` handshake.
    pub server_name: String,
    /// Evict sessions that have not served a request for this long
    /// (`None` — the default — never evicts). Eviction closes the
    /// session exactly as `CloseSession` would; the owning client's
    /// next use gets [`ErrorCode::UnknownSession`]. The sweep runs on
    /// the accept thread between accepts, so expect eviction within
    /// roughly a sweep interval (~10 ms) past the deadline.
    pub session_ttl: Option<Duration>,
    /// Maximum wall-clock time a single frame may take from its first
    /// byte to its last. A peer that stalls mid-frame past this
    /// deadline is disconnected (counted in `connections_dropped`),
    /// bounding how long a slow-loris writer can hold a connection
    /// thread.
    pub frame_deadline: Duration,
    /// When set, every accepted tick batch is followed by a session
    /// snapshot handed to this sink for asynchronous replication to a
    /// backup peer (`None` — the default — replicates nothing).
    pub replication: Option<Arc<dyn ReplicationSink>>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("engine", &self.engine)
            .field("max_frame_len", &self.max_frame_len)
            .field("read_timeout", &self.read_timeout)
            .field("outcome_timeout", &self.outcome_timeout)
            .field(
                "max_sessions_per_connection",
                &self.max_sessions_per_connection,
            )
            .field("server_name", &self.server_name)
            .field("session_ttl", &self.session_ttl)
            .field("frame_deadline", &self.frame_deadline)
            .field("replication", &self.replication.as_ref().map(|_| ".."))
            .finish()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            engine: EngineConfig::default(),
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            read_timeout: Duration::from_millis(100),
            outcome_timeout: Duration::from_secs(30),
            max_sessions_per_connection: 64,
            server_name: format!("awsad-serve/{}", env!("CARGO_PKG_VERSION")),
            session_ttl: None,
            frame_deadline: Duration::from_secs(30),
            replication: None,
        }
    }
}

awsad_runtime::metric_set! {
    /// One session service's transport counters, bumped directly.
    pub(crate) struct TransportCounters;

    /// A point-in-time copy of the server's transport counters, summed
    /// across its session services.
    pub struct TransportMetrics {
        /// Frames successfully decoded across all connections.
        frames_in: Sum,
        /// Reply frames written across all connections.
        frames_out: Sum,
        /// Malformed or oversized frames observed (each one also drops
        /// its connection).
        decode_errors: Sum,
        /// Connections accepted over the server's lifetime.
        connections_opened: Sum,
        /// Connections torn down for cause — decode error or transport
        /// I/O failure (clean client closes do not count).
        connections_dropped: Sum,
        /// Sessions closed by the idle-TTL sweep
        /// ([`ServerConfig::session_ttl`]).
        sessions_evicted: Sum,
        /// `Recalibrate` requests refused without touching their session
        /// (wrong dimensions or a model the detector rejected). Accepted
        /// swaps count in [`RuntimeMetrics::recalibrations`] instead.
        recalibrations_rejected: Sum,
        /// Frames whose bytes arrived torn across more than one
        /// readiness wakeup and were completed by the incremental
        /// decoder resuming mid-frame. Always `0` on the blocking
        /// server, whose reads park until the frame completes.
        partial_frame_resumes: Sum,
    }
}

struct ServerShared {
    service: SessionService,
    shutdown: AtomicBool,
    next_conn_id: AtomicU64,
    /// Joined on shutdown; finished threads are reaped opportunistically
    /// by the accept loop so a long-lived server does not accumulate
    /// handles for long-gone connections.
    connections: Mutex<Vec<thread::JoinHandle<()>>>,
}

/// A running detection server. Dropping it (or calling
/// [`Server::shutdown`]) stops the accept loop, wakes every
/// connection thread, and joins them all.
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept_thread: Mutex<Option<thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections on a background thread.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Non-blocking accepts let the same thread run the idle-session
        // sweep between connection attempts.
        listener.set_nonblocking(true)?;
        let service = SessionService::for_server(config, 1, false)
            .pop()
            .expect("one service");
        let shared = Arc::new(ServerShared {
            service,
            shutdown: AtomicBool::new(false),
            next_conn_id: AtomicU64::new(1),
            connections: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("awsad-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept thread");
        Ok(Server {
            local_addr,
            shared,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// The address the server is listening on (with the actual port
    /// when bound ephemerally).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A point-in-time copy of the shared engine's counters.
    pub fn engine_metrics(&self) -> RuntimeMetrics {
        self.shared.service.engine_metrics()
    }

    /// A point-in-time copy of the transport counters.
    pub fn transport_metrics(&self) -> TransportMetrics {
        self.shared.service.transport_metrics()
    }

    /// Stops accepting, wakes every connection thread, and joins them
    /// all. Sessions close; already-queued ticks still drain on the
    /// engine. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The accept thread polls the shutdown flag between
        // non-blocking accept attempts; a throwaway connection is not
        // needed but hurries it along on a loaded box.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.lock().expect("accept lock").take() {
            let _ = handle.join();
        }
        let handles: Vec<_> = self
            .shared
            .connections
            .lock()
            .expect("connections lock")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // The listener's non-blocking flag is inherited by
                // accepted sockets on some platforms; connection
                // threads want plain blocking reads with a timeout.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                shared.service.connection_opened();
                let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                let conn_shared = Arc::clone(&shared);
                let handle = thread::Builder::new()
                    .name("awsad-serve-conn".into())
                    .spawn(move || handle_connection(stream, conn_shared, conn_id))
                    .expect("spawn connection thread");
                let mut conns = shared.connections.lock().expect("connections lock");
                conns.retain(|h| !h.is_finished());
                conns.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                shared.service.sweep_idle();
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => {
                // Transient accept failure (e.g. EMFILE); back off
                // briefly instead of spinning.
                thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Wraps the connection socket so blocking reads wake up every
/// [`ServerConfig::read_timeout`] to observe the shutdown flag — even
/// mid-frame, so a byte-trickling peer cannot pin a thread across
/// shutdown. Reads never return `WouldBlock` to the framing layer;
/// they either deliver bytes, report a real error, or fail with
/// [`io::ErrorKind::Other`] once shutdown is requested.
///
/// The reader also enforces [`ServerConfig::frame_deadline`]: a timer
/// arms on the first byte read after [`Self::frame_done`] (i.e. the
/// first byte of a frame) and a read past the deadline fails with
/// [`io::ErrorKind::TimedOut`], so a slow-loris peer holds its
/// connection thread for at most one deadline.
struct ShutdownAwareReader<'a> {
    stream: BufReader<TcpStream>,
    shutdown: &'a AtomicBool,
    frame_deadline: Duration,
    mid_frame_since: Option<Instant>,
}

impl ShutdownAwareReader<'_> {
    /// Marks the current frame complete, disarming the mid-frame
    /// stall deadline until the next byte arrives.
    fn frame_done(&mut self) {
        self.mid_frame_since = None;
    }
}

impl Read for ShutdownAwareReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return Err(io::Error::other("server shutting down"));
            }
            if let Some(since) = self.mid_frame_since {
                if since.elapsed() >= self.frame_deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "frame not completed within the frame deadline",
                    ));
                }
            }
            match self.stream.read(buf) {
                Ok(n) => {
                    if n > 0 && self.mid_frame_since.is_none() {
                        self.mid_frame_since = Some(Instant::now());
                    }
                    return Ok(n);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut => {}
                other => return other,
            }
        }
    }
}

fn handle_connection(stream: TcpStream, shared: Arc<ServerShared>, conn_id: u64) {
    let service = &shared.service;
    let config = service.config();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(config.read_timeout));
    let Ok(write_stream) = stream.try_clone() else {
        service.connection_dropped();
        return;
    };
    let mut reader = ShutdownAwareReader {
        stream: BufReader::new(stream),
        shutdown: &shared.shutdown,
        frame_deadline: config.frame_deadline,
        mid_frame_since: None,
    };
    let mut writer = BufWriter::new(write_stream);

    loop {
        let envelope = match read_envelope(&mut reader, config.max_frame_len) {
            Ok(envelope) => envelope,
            Err(ReadFrameError::Closed) => break, // clean client close
            Err(ReadFrameError::Io(_)) => {
                // Shutdown, transport failure, or a mid-frame stall
                // past the frame deadline; either way this connection
                // is done.
                if !shared.shutdown.load(Ordering::SeqCst) {
                    service.connection_dropped();
                }
                break;
            }
            Err(ReadFrameError::Wire(err)) => {
                // Malformed traffic: tell the peer why (best effort —
                // the stream may be desynchronized) and kill only this
                // connection.
                let _ = write_frame(&mut writer, &service.protocol_violation(&err));
                break;
            }
        };
        reader.frame_done();
        let reply = service.serve_blocking(conn_id, envelope.frame);
        // Echo the request's correlation id (legacy corr-less request
        // → legacy corr-less reply, byte-identical to older servers).
        if write_frame_corr(&mut writer, &reply, envelope.corr).is_err() {
            service.connection_dropped();
            break;
        }
    }
    // The handle's `Drop` closes each session; the engine still drains
    // whatever was already queued.
    service.close_connection(conn_id);
}

/// Builds the detector stack a spec describes — **exactly** the
/// construction `OpenSession`/`RestoreSession` perform, exposed so
/// differential harnesses (`awsad-testkit`) can assemble the
/// bit-identical local reference for a spec instead of hand-copying
/// the server's defaulting rules.
///
/// Returns `(logger, detector, state_dim, input_dim)`.
///
/// # Errors
///
/// The error code the server would reply with, plus a human-readable
/// detail.
pub fn session_parts_for_spec(
    spec: &SessionSpec,
) -> Result<(DataLogger, AdaptiveDetector, usize, usize), (ErrorCode, String)> {
    let Some(sim) = Simulator::all()
        .into_iter()
        .find(|s| s.table1_row() == spec.model as usize)
    else {
        return Err((
            ErrorCode::BadModel,
            format!("no Table 1 row {} (valid: 1..=5)", spec.model),
        ));
    };
    let model = sim.build();
    let w_m = if spec.max_window == 0 {
        model.default_max_window
    } else {
        spec.max_window as usize
    };
    let threshold = if spec.threshold.is_empty() {
        model.threshold.clone()
    } else {
        Vector::from_slice(&spec.threshold)
    };
    if threshold.len() != model.state_dim() {
        return Err((
            ErrorCode::DimensionMismatch,
            format!(
                "threshold has {} entries, {} wants {}",
                threshold.len(),
                model.name,
                model.state_dim()
            ),
        ));
    }
    // The output map is scenario metadata: ticks are state estimates
    // regardless of how many physical sensors produced them, so the
    // map never changes the detector stack — but a malformed one is a
    // client bug worth rejecting before it replicates across the
    // cluster.
    if !spec.output_map.is_empty() {
        let rows = spec.output_rows as usize;
        if rows == 0 || spec.output_map.len() != rows * model.state_dim() {
            return Err((
                ErrorCode::DimensionMismatch,
                format!(
                    "output map has {} entries, not {} rows x {} states",
                    spec.output_map.len(),
                    rows,
                    model.state_dim()
                ),
            ));
        }
        if spec.output_map.iter().any(|v| !v.is_finite()) {
            return Err((
                ErrorCode::DimensionMismatch,
                "output map entries must be finite".into(),
            ));
        }
    } else if spec.output_rows != 0 {
        return Err((
            ErrorCode::DimensionMismatch,
            format!(
                "output map declares {} rows but carries no entries",
                spec.output_rows
            ),
        ));
    }
    let det_cfg = DetectorConfig::with_min_window(threshold, spec.min_window as usize, w_m)
        .map_err(|e| (ErrorCode::Internal, format!("detector config: {e}")))?;
    let estimator = model
        .deadline_estimator(w_m)
        .map_err(|e| (ErrorCode::Internal, format!("deadline estimator: {e}")))?;
    let mut detector = AdaptiveDetector::new(det_cfg, estimator)
        .map_err(|e| (ErrorCode::Internal, format!("detector: {e}")))?;
    if spec.cache_capacity > 0 {
        detector.set_deadline_cache(DeadlineCache::new(CacheConfig::exact(
            spec.cache_capacity as usize,
        )));
    }
    let logger = model.data_logger(w_m);
    Ok((
        logger,
        detector,
        model.state_dim(),
        model.system.input_dim(),
    ))
}

/// Collapses one [`LatencyHistogram`] into its wire summary
/// (count/mean/conservative quantile bounds/overflow); quantile bounds
/// honor the histogram's overflow honesty (`None` when no finite bound
/// holds).
pub fn wire_latency(hist: &LatencyHistogram) -> WireLatency {
    WireLatency {
        count: hist.count,
        mean_ns: hist.mean_ns(),
        p50_bound_ns: hist.quantile_bound_ns(0.5),
        p99_bound_ns: hist.quantile_bound_ns(0.99),
        overflow: hist.overflow,
    }
}

/// Folds an engine snapshot plus transport counters into the
/// `MetricsReply` image. The single construction path for metrics
/// replies: the session service feeds it every engine's snapshot
/// folded with [`RuntimeMetrics::merged`] plus the transport counters
/// folded the same way, and a sharded server then fills in `shards` —
/// which stays zero here, marking an unsharded reply.
pub fn wire_metrics(engine: &RuntimeMetrics, transport: &TransportMetrics) -> WireMetrics {
    WireMetrics {
        sessions_active: engine.sessions_active,
        ticks_submitted: engine.ticks_submitted,
        ticks_processed: engine.ticks_processed,
        alarms_raised: engine.alarms_raised,
        degraded_ticks: engine.degraded_ticks,
        queue_depth_high_water: engine.queue_depth_high_water,
        log_latency: wire_latency(&engine.log_latency),
        detect_latency: wire_latency(&engine.detect_latency),
        frames_in: transport.frames_in,
        frames_out: transport.frames_out,
        decode_errors: transport.decode_errors,
        connections_opened: transport.connections_opened,
        connections_dropped: transport.connections_dropped,
        alloc_free_ticks: engine.alloc_free_ticks,
        batched_deadline_queries: engine.batched_deadline_queries,
        sessions_evicted: transport.sessions_evicted,
        shards: 0,
        partial_frame_resumes: transport.partial_frame_resumes,
        sessions_replicated: engine.sessions_replicated,
        failovers: engine.failovers,
        replication_lag_hwm: engine.replication_lag_hwm,
        batch_ticks: engine.batch_ticks,
        batch_sessions_hwm: engine.batch_sessions_hwm,
        scalar_fallback_ticks: engine.scalar_fallback_ticks,
        recalibrations: engine.recalibrations,
        recalibrations_rejected: transport.recalibrations_rejected,
    }
}
