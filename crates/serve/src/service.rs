//! The transport-agnostic half of a detection server: every request
//! rule, written once.
//!
//! A [`SessionService`] takes `(connection id, Frame)` and answers
//! with a [`Served`]: either the reply frame, or a [`PendingBatch`] —
//! a `Tick` batch already submitted to the engine, whose outcomes the
//! caller collects either by blocking ([`SessionService::serve_blocking`],
//! the thread-per-connection [`crate::server::Server`]) or by polling
//! ([`SessionService::poll`], the epoll shards of `awsad-net`, woken by
//! the engine's drain doorbell). The servers themselves only move
//! bytes: they read and decode frames, hand them to their service,
//! and write what comes back.
//!
//! The service owns everything a request can touch:
//!
//! * the session registry, with its owner checks (a session is
//!   reachable only from the connection that opened it) and the
//!   per-connection session quota;
//! * wire-id allocation: service `k` of a server with `n` services
//!   hands out ids `k, k + n, k + 2n, …`, so the blocking server (one
//!   service) counts `0, 1, 2, …` and `id % n` names a net shard;
//! * the idle-TTL sweep, under one rule: a session with a request in
//!   flight is never evicted, and its idle clock restarts when a
//!   request starts and again when its batch completes;
//! * the transport counters, one set per service, summed for metrics;
//! * replication egress after every completed batch and every
//!   accepted recalibration.
//!
//! The services of one server share their configuration, each
//! other's engines and counters (for `MetricsQuery`), and one
//! `ReplicaStore`: the backup copies held for remote primaries plus
//! the ring epoch in force.

use std::collections::HashMap;
use std::fmt::Display;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError, TryLockError};
use std::time::{Duration, Instant};

use awsad_linalg::{Matrix, Vector};
use awsad_runtime::{DetectionEngine, RuntimeMetrics, SessionHandle, Tick, TickOutcome};

use crate::server::{
    session_parts_for_spec, wire_metrics, ReplicationUpdate, ServerConfig, TransportCounters,
    TransportMetrics,
};
use crate::wire::{
    ErrorCode, Frame, SessionSpec, WireMetrics, WireOutcome, WireSessionState, WireTick,
};

/// Locks `mutex`, recovering the data if a panicking holder poisoned
/// it: every critical section here leaves its data consistent.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn error(code: ErrorCode, message: impl Into<String>) -> Frame {
    Frame::Error {
        code,
        message: message.into(),
    }
}

/// The one answer for a session id the connection may not use —
/// missing and owned by another connection look the same, so ids
/// never leak across clients.
fn unknown_session(session: u64) -> Frame {
    error(ErrorCode::UnknownSession, format!("session {session}"))
}

/// One backup copy held for a remote primary's session.
struct Replica {
    /// Snapshot generation; only a strictly newer one replaces it.
    generation: u64,
    /// The spec the primary opened the session with.
    spec: SessionSpec,
    /// The session state as of the primary's last replicated batch.
    state: WireSessionState,
}

/// The backup copies a server holds for remote primaries' sessions,
/// keyed by the cluster-wide replica key, plus the highest ring epoch
/// accepted via [`Frame::RingUpdate`]. One per server, shared by all of
/// its services.
#[derive(Default)]
struct ReplicaStore {
    entries: Mutex<HashMap<u64, Replica>>,
    ring_epoch: AtomicU64,
}

impl ReplicaStore {
    /// Stores `replica` under `key` unless the held copy is at least as
    /// new; `Err` carries the held generation.
    fn store(&self, key: u64, replica: Replica) -> Result<(), u64> {
        let mut entries = lock(&self.entries);
        match entries.get(&key) {
            Some(held) if held.generation >= replica.generation => Err(held.generation),
            _ => {
                entries.insert(key, replica);
                Ok(())
            }
        }
    }

    /// Removes and returns the replica under `key`.
    fn take(&self, key: u64) -> Option<Replica> {
        lock(&self.entries).remove(&key)
    }

    /// Returns a taken replica whose promotion failed. A newer
    /// generation that arrived in the meantime wins.
    fn put_back(&self, key: u64, replica: Replica) {
        let _ = self.store(key, replica);
    }

    /// Accepts ring epoch `epoch` if it is the newest seen; returns the
    /// epoch now in force.
    fn advance_ring(&self, epoch: u64) -> u64 {
        self.ring_epoch
            .fetch_max(epoch, Ordering::SeqCst)
            .max(epoch)
    }
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// One engine and the counters of the service that drives it.
struct Lane {
    engine: DetectionEngine,
    counters: TransportCounters,
}

/// What the services of one server share.
struct Node {
    config: ServerConfig,
    /// Metrics replies carry the lane count (the shard count); an
    /// unsharded server reports zero there.
    sharded: bool,
    lanes: Vec<Lane>,
    replicas: ReplicaStore,
}

/// When a session last served a request, and whether a tick batch is
/// in flight on it.
struct Activity {
    last_used: Instant,
    in_flight: bool,
}

/// The engine side of a session: locked for the duration of each
/// request that touches the engine.
struct Engine {
    handle: SessionHandle,
    outcomes: mpsc::Receiver<TickOutcome>,
}

/// One open session in a service's registry. Dropping the last
/// reference closes it (the handle's `Drop` does the close; the engine
/// still drains whatever was queued).
struct Session {
    /// Connection that opened it.
    owner: u64,
    state_dim: usize,
    input_dim: usize,
    /// Retained for replication egress: the backup rebuilds the
    /// detector stack from this spec at promotion time.
    spec: SessionSpec,
    activity: Mutex<Activity>,
    engine: Mutex<Engine>,
}

impl Session {
    /// The TTL rule: idle for `ttl` with no request in flight. A held
    /// engine lock is a request in progress, so it is skipped too.
    fn idle_past(&self, now: Instant, ttl: Duration) -> bool {
        if matches!(self.engine.try_lock(), Err(TryLockError::WouldBlock)) {
            return false;
        }
        let activity = lock(&self.activity);
        !activity.in_flight && now.saturating_duration_since(activity.last_used) >= ttl
    }

    /// Ends an in-flight batch and restarts the idle clock.
    fn batch_done(&self) {
        let mut activity = lock(&self.activity);
        activity.in_flight = false;
        activity.last_used = Instant::now();
    }
}

#[derive(Default)]
struct Registry {
    sessions: HashMap<u64, Arc<Session>>,
    /// Open sessions per connection (the quota check); connections
    /// holding none have no entry.
    per_conn: HashMap<u64, usize>,
    next_id: u64,
}

impl Registry {
    /// Drops a session (closing it) and its quota count.
    fn remove(&mut self, id: u64) {
        let Some(session) = self.sessions.remove(&id) else {
            return;
        };
        if let Some(count) = self.per_conn.get_mut(&session.owner) {
            *count -= 1;
            if *count == 0 {
                self.per_conn.remove(&session.owner);
            }
        }
    }
}

/// What serving one request produced.
//
// `Frame` is large (MetricsReply carries every runtime counter), but a
// `Served` lives only from `serve` to the caller's match — boxing the
// frame would buy an allocation per request on the hot path.
#[allow(clippy::large_enum_variant)]
pub enum Served {
    /// The reply, ready to send.
    Reply(Frame),
    /// A `Tick` batch went to the engine; collect its reply with
    /// [`SessionService::poll`].
    Batch(PendingBatch),
}

/// A `Tick` batch submitted to the engine, awaiting its outcomes. A
/// connection holds at most one, which keeps replies in request order.
pub struct PendingBatch {
    /// Wire session id the reply will name.
    id: u64,
    session: Arc<Session>,
    expected: usize,
    outcomes: Vec<WireOutcome>,
    since: Instant,
}

impl PendingBatch {
    fn complete(&self) -> bool {
        self.outcomes.len() == self.expected
    }
}

/// Request handling for one engine of a server; see the module docs.
pub struct SessionService {
    node: Arc<Node>,
    /// This service's lane, which is also its first wire id.
    index: usize,
    registry: Mutex<Registry>,
}

impl SessionService {
    /// Builds the `lanes` services of one server, each with its own
    /// engine built from `config.engine`, sharing `config` and one
    /// replica store. `sharded` servers report the lane count in
    /// metrics replies.
    pub fn for_server(config: ServerConfig, lanes: usize, sharded: bool) -> Vec<SessionService> {
        let node = Arc::new(Node {
            lanes: (0..lanes)
                .map(|_| Lane {
                    engine: DetectionEngine::new(config.engine.clone()),
                    counters: TransportCounters::default(),
                })
                .collect(),
            config,
            sharded,
            replicas: ReplicaStore::default(),
        });
        (0..node.lanes.len())
            .map(|index| SessionService {
                node: Arc::clone(&node),
                index,
                registry: Mutex::new(Registry {
                    next_id: index as u64,
                    ..Registry::default()
                }),
            })
            .collect()
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.node.config
    }

    /// This service's engine.
    pub fn engine(&self) -> &DetectionEngine {
        &self.node.lanes[self.index].engine
    }

    fn counters(&self) -> &TransportCounters {
        &self.node.lanes[self.index].counters
    }

    /// Engine counters across every service of this server, folded
    /// with [`RuntimeMetrics::merged`].
    pub fn engine_metrics(&self) -> RuntimeMetrics {
        self.node
            .lanes
            .iter()
            .map(|lane| lane.engine.metrics())
            .reduce(|acc, m| acc.merged(&m))
            .expect("a server has at least one lane")
    }

    /// Transport counters across every service of this server, folded
    /// with [`TransportMetrics::merged`] (every one sums).
    pub fn transport_metrics(&self) -> TransportMetrics {
        self.node
            .lanes
            .iter()
            .map(|lane| lane.counters.snapshot())
            .reduce(|acc, m| acc.merged(&m))
            .expect("a server has at least one lane")
    }

    /// Counts an accepted connection.
    pub fn connection_opened(&self) {
        bump(&self.counters().connections_opened, 1);
    }

    /// Counts a connection torn down for cause (transport failure,
    /// stalled frame, refused accept); clean closes do not count.
    pub fn connection_dropped(&self) {
        bump(&self.counters().connections_dropped, 1);
    }

    /// Counts frames that arrived torn and were completed by resume.
    pub fn frames_resumed(&self, frames: u64) {
        bump(&self.counters().partial_frame_resumes, frames);
    }

    /// A malformed frame: counts the decode error and the drop, and
    /// returns the error frame to send (uncorrelated) before closing.
    pub fn protocol_violation(&self, err: &dyn Display) -> Frame {
        bump(&self.counters().decode_errors, 1);
        self.connection_dropped();
        self.reply(error(
            ErrorCode::Internal,
            format!("protocol violation, closing connection: {err}"),
        ))
    }

    /// Counts a reply before it can reach the wire, so a client that
    /// has read its reply always observes `frames_out` already bumped.
    fn reply(&self, frame: Frame) -> Frame {
        bump(&self.counters().frames_out, 1);
        frame
    }

    /// Serves one request from connection `conn`.
    pub fn serve(&self, conn: u64, frame: Frame) -> Served {
        bump(&self.counters().frames_in, 1);
        let reply = match frame {
            Frame::Hello { client: _ } => Frame::HelloAck {
                server: self.config().server_name.clone(),
            },
            Frame::OpenSession(spec) => self.open(conn, &spec, None),
            // A wire-level restore starts a fresh snapshot lineage
            // (generation 0): the wire state image cannot carry the
            // counter, and only cluster promotion needs it.
            Frame::RestoreSession { spec, state } => self.open(conn, &spec, Some((&state, 0))),
            Frame::Tick { session, ticks } => match self.submit(conn, session, ticks) {
                Ok(batch) => return Served::Batch(batch),
                Err(reply) => reply,
            },
            Frame::SnapshotSession { session } => match self.lookup(conn, session) {
                // Replies are strictly ordered, so every prior batch
                // has delivered its outcomes and this only waits for
                // queue drain (normally instant).
                Ok(s) => Frame::SessionSnapshot {
                    session,
                    state: WireSessionState::from_snapshot(&lock(&s.engine).handle.snapshot()),
                },
                Err(reply) => reply,
            },
            Frame::CloseSession { session } => {
                let mut registry = lock(&self.registry);
                match registry.sessions.get(&session) {
                    Some(s) if s.owner == conn => {
                        registry.remove(session);
                        Frame::SessionClosed { session }
                    }
                    _ => unknown_session(session),
                }
            }
            Frame::MetricsQuery => Frame::MetricsReply(self.metrics_reply()),
            Frame::Recalibrate {
                session,
                state_dim,
                input_dim,
                a,
                b,
            } => self.recalibrate(conn, session, (state_dim, input_dim), &a, &b),
            Frame::ReplicateSnapshot {
                key,
                generation,
                spec,
                state,
            } => {
                let replica = Replica {
                    generation,
                    spec,
                    state,
                };
                match self.node.replicas.store(key, replica) {
                    Ok(()) => Frame::ReplicateAck { key, generation },
                    Err(held) => error(
                        ErrorCode::BadSnapshot,
                        format!(
                            "stale replica generation {generation} for key {key} (holding {held})"
                        ),
                    ),
                }
            }
            Frame::PromoteSession { key } => self.promote(conn, key),
            // The ack always carries the epoch now in force, so a
            // sender with an old view can tell it lost.
            Frame::RingUpdate { epoch, members } => {
                let current = self.node.replicas.advance_ring(epoch);
                if current == epoch {
                    if let Some(sink) = &self.config().replication {
                        sink.ring_update(epoch, &members);
                    }
                }
                Frame::ReplicateAck {
                    key: 0,
                    generation: current,
                }
            }
            // Reply-direction frames arriving from a client are
            // requests nobody can serve; answer with a typed error but
            // keep the connection (the stream is still well-formed).
            Frame::HelloAck { .. }
            | Frame::SessionOpened { .. }
            | Frame::TickOutcomes { .. }
            | Frame::SessionClosed { .. }
            | Frame::MetricsReply(_)
            | Frame::SessionSnapshot { .. }
            | Frame::ReplicateAck { .. }
            | Frame::RecalibrateAck { .. }
            | Frame::Error { .. } => error(
                ErrorCode::Internal,
                "reply-direction frame is not a valid request",
            ),
        };
        Served::Reply(self.reply(reply))
    }

    /// Serves one request, blocking until a `Tick` batch's outcomes
    /// are in (or [`ServerConfig::outcome_timeout`] passes). Only the
    /// batch's own session is locked while it waits.
    pub fn serve_blocking(&self, conn: u64, frame: Frame) -> Frame {
        let mut batch = match self.serve(conn, frame) {
            Served::Reply(reply) => return reply,
            Served::Batch(batch) => batch,
        };
        let timeout = self.config().outcome_timeout;
        {
            let engine = lock(&batch.session.engine);
            while !batch.complete() {
                let left = timeout.saturating_sub(batch.since.elapsed());
                match engine.outcomes.recv_timeout(left) {
                    Ok(outcome) => batch.outcomes.push(WireOutcome::from_outcome(&outcome)),
                    Err(_) => break,
                }
            }
        }
        self.settle(batch)
    }

    /// Collects whatever outcomes are ready without blocking. Returns
    /// the reply once the batch is complete or past
    /// [`ServerConfig::outcome_timeout`], and the batch back otherwise.
    #[allow(clippy::result_large_err)] // Ok is the reply frame, as in `Served`
    pub fn poll(&self, mut batch: PendingBatch) -> Result<Frame, PendingBatch> {
        {
            let engine = lock(&batch.session.engine);
            while !batch.complete() {
                match engine.outcomes.try_recv() {
                    Ok(outcome) => batch.outcomes.push(WireOutcome::from_outcome(&outcome)),
                    Err(_) => break,
                }
            }
        }
        if batch.complete() || batch.since.elapsed() >= self.config().outcome_timeout {
            Ok(self.settle(batch))
        } else {
            Err(batch)
        }
    }

    /// The reply for a batch that is complete or out of time.
    fn settle(&self, batch: PendingBatch) -> Frame {
        let reply = if batch.complete() {
            // All outcomes are in hand, so the session queue is drained
            // and the replicated snapshot is exactly the post-batch
            // state.
            self.replicate(batch.id, &batch.session);
            Frame::TickOutcomes {
                session: batch.id,
                outcomes: batch.outcomes,
            }
        } else {
            error(
                ErrorCode::Timeout,
                format!(
                    "engine produced {}/{} outcomes in time",
                    batch.outcomes.len(),
                    batch.expected
                ),
            )
        };
        batch.session.batch_done();
        self.reply(reply)
    }

    /// Closes every session connection `conn` holds.
    pub fn close_connection(&self, conn: u64) {
        let mut registry = lock(&self.registry);
        if registry.per_conn.remove(&conn).is_some() {
            registry.sessions.retain(|_, s| s.owner != conn);
        }
    }

    /// Closes sessions idle past [`ServerConfig::session_ttl`] with no
    /// request in flight. Eviction is exactly a
    /// `CloseSession`: the owner's next use answers `UnknownSession`.
    pub fn sweep_idle(&self) {
        let Some(ttl) = self.config().session_ttl else {
            return;
        };
        let now = Instant::now();
        let mut registry = lock(&self.registry);
        let expired: Vec<u64> = registry
            .sessions
            .iter()
            .filter(|(_, s)| s.idle_past(now, ttl))
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            registry.remove(id);
            bump(&self.counters().sessions_evicted, 1);
        }
    }

    /// The `MetricsReply` image: every lane's engine and counters.
    fn metrics_reply(&self) -> WireMetrics {
        let mut wm = wire_metrics(&self.engine_metrics(), &self.transport_metrics());
        if self.node.sharded {
            wm.shards = self.node.lanes.len() as u64;
        }
        wm
    }

    /// Looks up `session` for connection `conn` and restarts its idle
    /// clock (a request is starting).
    #[allow(clippy::result_large_err)] // Err is the ready-to-send reply frame; rare path
    fn lookup(&self, conn: u64, session: u64) -> Result<Arc<Session>, Frame> {
        let registry = lock(&self.registry);
        match registry.sessions.get(&session) {
            Some(s) if s.owner == conn => {
                lock(&s.activity).last_used = Instant::now();
                Ok(Arc::clone(s))
            }
            _ => Err(unknown_session(session)),
        }
    }

    /// Opens a fresh session, or — when `restore` carries a snapshot and
    /// the generation to seed its lineage counter with — rebuilds one
    /// mid-stream. Both answer `SessionOpened`.
    fn open(
        &self,
        conn: u64,
        spec: &SessionSpec,
        restore: Option<(&WireSessionState, u64)>,
    ) -> Frame {
        let limit = self.config().max_sessions_per_connection;
        if lock(&self.registry)
            .per_conn
            .get(&conn)
            .copied()
            .unwrap_or(0)
            >= limit
        {
            return error(
                ErrorCode::SessionLimit,
                format!("connection already holds {limit} sessions"),
            );
        }
        let (logger, detector, state_dim, input_dim) = match session_parts_for_spec(spec) {
            Ok(parts) => parts,
            Err((code, message)) => return error(code, message),
        };
        let (handle, outcomes) = match restore {
            None => self.engine().add_session(logger, detector),
            Some((state, generation)) => {
                let mut snapshot = state.to_snapshot();
                snapshot.generation = generation;
                match self.engine().restore_session(logger, detector, &snapshot) {
                    Ok(pair) => pair,
                    Err(e) => return error(ErrorCode::BadSnapshot, format!("restore: {e}")),
                }
            }
        };
        let session = Arc::new(Session {
            owner: conn,
            state_dim,
            input_dim,
            spec: spec.clone(),
            activity: Mutex::new(Activity {
                last_used: Instant::now(),
                in_flight: false,
            }),
            engine: Mutex::new(Engine { handle, outcomes }),
        });
        let mut registry = lock(&self.registry);
        let id = registry.next_id;
        registry.next_id += self.node.lanes.len() as u64;
        registry.sessions.insert(id, session);
        *registry.per_conn.entry(conn).or_default() += 1;
        Frame::SessionOpened {
            session: id,
            state_dim: state_dim as u32,
            input_dim: input_dim as u32,
        }
    }

    /// Turns the replica under `key` into a live session owned by
    /// `conn`. The replica is consumed; the reply echoes the restored
    /// state so the promoting router can judge its freshness.
    fn promote(&self, conn: u64, key: u64) -> Frame {
        let Some(replica) = self.node.replicas.take(key) else {
            return error(ErrorCode::UnknownSession, format!("replica {key}"));
        };
        match self.open(
            conn,
            &replica.spec,
            Some((&replica.state, replica.generation)),
        ) {
            Frame::SessionOpened { session, .. } => {
                self.engine().record_failover();
                Frame::SessionSnapshot {
                    session,
                    state: replica.state,
                }
            }
            // The restore failed: keep the replica so a retry (or
            // another router) can still promote it.
            refused => {
                self.node.replicas.put_back(key, replica);
                refused
            }
        }
    }

    /// Validates a whole `Tick` batch, then submits it. Nothing is
    /// submitted unless every tick fits: the engine asserts on
    /// dimension mismatches, and a half-submitted batch would
    /// desynchronize the outcome stream.
    #[allow(clippy::result_large_err)] // Err is the ready-to-send reply frame
    fn submit(&self, conn: u64, id: u64, ticks: Vec<WireTick>) -> Result<PendingBatch, Frame> {
        let session = self.lookup(conn, id)?;
        for (i, tick) in ticks.iter().enumerate() {
            if tick.estimate.len() != session.state_dim || tick.input.len() != session.input_dim {
                return Err(error(
                    ErrorCode::DimensionMismatch,
                    format!(
                        "tick {i}: got estimate/input dims {}/{}, session wants {}/{}",
                        tick.estimate.len(),
                        tick.input.len(),
                        session.state_dim,
                        session.input_dim
                    ),
                ));
            }
        }
        let expected = ticks.len();
        {
            let engine = lock(&session.engine);
            for tick in ticks {
                // Under the Block policy a saturated session queue
                // throttles the producer right here — per-session
                // backpressure reaching back through TCP to a client
                // waiting on this very reply.
                let tick = Tick {
                    estimate: Vector::from_vec(tick.estimate),
                    input: Vector::from_vec(tick.input),
                };
                if engine.handle.submit(tick).is_err() {
                    return Err(error(
                        ErrorCode::UnknownSession,
                        "session closed under batch",
                    ));
                }
            }
        }
        lock(&session.activity).in_flight = true;
        Ok(PendingBatch {
            id,
            session,
            expected,
            outcomes: Vec::with_capacity(expected),
            since: Instant::now(),
        })
    }

    /// Swaps a live session's plant model mid-stream (accepted model
    /// drift). The engine waits for the session's queue to drain, so
    /// the swap is a clean cut between two ticks; the post-swap state
    /// is replicated like a post-batch state so a failover restores
    /// the *recalibrated* session.
    fn recalibrate(&self, conn: u64, id: u64, dims: (u32, u32), a: &[f64], b: &[f64]) -> Frame {
        let session = match self.lookup(conn, id) {
            Ok(s) => s,
            Err(reply) => return reply,
        };
        let reject = |message: String| {
            bump(&self.counters().recalibrations_rejected, 1);
            error(ErrorCode::DimensionMismatch, message)
        };
        let (n, m) = (dims.0 as usize, dims.1 as usize);
        if (n, m) != (session.state_dim, session.input_dim) {
            return reject(format!(
                "recalibrate declares dims {n}/{m}, session wants {}/{}",
                session.state_dim, session.input_dim
            ));
        }
        // The wire decoder already validated the element counts against
        // the declared dims, so these constructions cannot fail.
        let a = Matrix::from_row_major(n, n, a.to_vec()).expect("A validated on decode");
        let b = Matrix::from_row_major(n, m, b.to_vec()).expect("B validated on decode");
        let recal_count = match lock(&session.engine).handle.recalibrate(&a, &b) {
            Ok(count) => count,
            Err(e) => return reject(format!("recalibrate: {e}")),
        };
        self.replicate(id, &session);
        Frame::RecalibrateAck {
            session: id,
            recal_count,
        }
    }

    /// Hands the session's current state to the replication sink, if
    /// any. Called only when the session's queue is drained, so the
    /// snapshot is exactly the state the client was just told about.
    /// The sink only enqueues, so the reply never waits on a backup.
    fn replicate(&self, id: u64, session: &Session) {
        let Some(sink) = &self.config().replication else {
            return;
        };
        let snapshot = lock(&session.engine).handle.snapshot();
        let lag = sink.replicate(ReplicationUpdate {
            session: id,
            generation: snapshot.generation,
            spec: session.spec.clone(),
            state: WireSessionState::from_snapshot(&snapshot),
        });
        self.engine().record_replication(lag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replica(generation: u64) -> Replica {
        Replica {
            generation,
            spec: SessionSpec::model_defaults(2),
            state: WireSessionState {
                prev_window: 0,
                steps_since_estimate: 0,
                initial_radius: 0.0,
                complementary_enabled: true,
                reestimation_period: 0,
                cached_deadline: None,
                next_step: generation,
                next_seq: generation,
                entries: Vec::new(),
                recalibration: None,
            },
        }
    }

    #[test]
    fn put_back_never_overwrites_a_newer_replica() {
        let store = ReplicaStore::default();
        store.store(7, replica(1)).unwrap();
        // A promotion takes generation 1 ...
        let taken = store.take(7).unwrap();
        // ... a newer snapshot lands while the restore runs ...
        store.store(7, replica(2)).unwrap();
        // ... and the failed promotion puts the old copy back.
        store.put_back(7, taken);
        assert_eq!(store.take(7).unwrap().generation, 2);
    }

    #[test]
    fn transport_counters_sum_across_lanes() {
        let services = SessionService::for_server(ServerConfig::default(), 3, true);
        services[0].connection_opened();
        services[1].connection_opened();
        services[1].connection_dropped();
        services[2].frames_resumed(5);
        services[2].frames_resumed(2);
        services[0].frames_resumed(1);
        let m = services[1].transport_metrics();
        assert_eq!(m.connections_opened, 2);
        assert_eq!(m.connections_dropped, 1);
        assert_eq!(m.partial_frame_resumes, 8);
        assert_eq!(m.frames_in, 0);
        // Every service reports the same server-wide sums.
        assert_eq!(services[0].transport_metrics(), m);
        let Served::Reply(Frame::MetricsReply(wm)) = services[2].serve(1, Frame::MetricsQuery)
        else {
            panic!("metrics query failed");
        };
        assert_eq!(
            (
                wm.shards,
                wm.connections_opened,
                wm.partial_frame_resumes,
                wm.frames_in
            ),
            (3, 2, 8, 1)
        );
    }

    #[test]
    fn wire_ids_step_by_the_service_count() {
        let services = SessionService::for_server(ServerConfig::default(), 3, true);
        let spec = SessionSpec::model_defaults(2);
        for (k, service) in services.iter().enumerate() {
            let mut ids = Vec::new();
            for _ in 0..2 {
                match service.serve(1, Frame::OpenSession(spec.clone())) {
                    Served::Reply(Frame::SessionOpened { session, .. }) => ids.push(session),
                    _ => panic!("open failed"),
                }
            }
            assert_eq!(ids, [k as u64, k as u64 + 3]);
        }
    }
}
