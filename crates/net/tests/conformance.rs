//! Cross-server conformance: one scripted request sequence, replayed
//! against the blocking [`Server`], against [`NetServer`] on its
//! native backend and against [`NetServer`] forced onto `poll(2)`.
//! Every reply frame must be byte-identical across the three once
//! session ids are normalised (ids are allocated per shard) and the
//! `MetricsReply` fields that depend on sharding, timing or transport
//! accounting are zeroed.
//!
//! The script walks every request kind and every typed error the
//! servers can answer with, then ends with a malformed frame that must
//! produce the protocol-violation error and a close.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};

use awsad_models::Simulator;
use awsad_net::{NetServer, NetServerConfig};
use awsad_runtime::EngineConfig;
use awsad_serve::server::{Server, ServerConfig};
use awsad_serve::wire::{
    read_envelope, write_frame_corr, ErrorCode, Frame, ReadFrameError, RingMember, SessionSpec,
    WireLatency, WireMetrics, WireTick, DEFAULT_MAX_FRAME_LEN,
};

/// Small enough that the script reaches the quota.
const SESSIONS_PER_CONNECTION: usize = 3;

fn base_config() -> ServerConfig {
    ServerConfig {
        max_sessions_per_connection: SESSIONS_PER_CONNECTION,
        ..ServerConfig::default()
    }
}

/// A raw connection that tags every request with a fresh correlation
/// id and checks the echo.
struct RawConn {
    stream: TcpStream,
    next_corr: u64,
}

impl RawConn {
    fn connect(addr: SocketAddr) -> RawConn {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        RawConn {
            stream,
            next_corr: 1,
        }
    }

    fn call(&mut self, request: &Frame) -> Frame {
        let corr = self.next_corr;
        self.next_corr += 1;
        write_frame_corr(&mut self.stream, request, Some(corr)).unwrap();
        let env = read_envelope(&mut self.stream, DEFAULT_MAX_FRAME_LEN).unwrap();
        assert_eq!(env.corr, Some(corr), "corr id not echoed for {request:?}");
        env.frame
    }
}

fn session_of(reply: &Frame) -> u64 {
    match reply {
        Frame::SessionOpened { session, .. } | Frame::SessionSnapshot { session, .. } => *session,
        other => panic!("expected a session-opening reply, got {other:?}"),
    }
}

fn ticks(n: usize, dims: (usize, usize), offset: f64) -> Vec<WireTick> {
    (0..n)
        .map(|t| WireTick {
            estimate: vec![offset + 0.01 * t as f64; dims.0],
            input: vec![0.0; dims.1],
        })
        .collect()
}

/// Runs the script against the server at `addr` and returns every
/// reply in order, session ids already normalised.
fn run_script(addr: SocketAddr) -> Vec<Frame> {
    let mut replies = Vec::new();
    let mut ids = Ids::default();
    let mut a = RawConn::connect(addr);
    let vehicle = SessionSpec::model_defaults(2);
    let model = Simulator::VehicleTurning.build();
    let (n, m) = (model.state_dim(), model.system.input_dim());

    replies.push(a.call(&Frame::Hello {
        client: "conformance".into(),
    }));
    // BadModel.
    replies.push(a.call(&Frame::OpenSession(SessionSpec::model_defaults(9))));
    let opened = a.call(&Frame::OpenSession(vehicle.clone()));
    let s1 = ids.learn(session_of(&opened));
    replies.push(opened);
    replies.push(a.call(&Frame::Tick {
        session: s1,
        ticks: ticks(5, (n, m), 0.0),
    }));
    // UnknownSession for a session that never existed.
    replies.push(a.call(&Frame::Tick {
        session: 999_999,
        ticks: ticks(1, (n, m), 0.0),
    }));
    // DimensionMismatch on Tick, then an empty batch.
    replies.push(a.call(&Frame::Tick {
        session: s1,
        ticks: ticks(1, (n + 2, m), 0.0),
    }));
    replies.push(a.call(&Frame::Tick {
        session: s1,
        ticks: Vec::new(),
    }));
    let snapshot = a.call(&Frame::SnapshotSession { session: s1 });
    let Frame::SessionSnapshot { state, .. } = snapshot.clone() else {
        panic!("expected SessionSnapshot, got {snapshot:?}");
    };
    replies.push(snapshot);
    // DimensionMismatch on Recalibrate, then an accepted swap.
    replies.push(a.call(&Frame::Recalibrate {
        session: s1,
        state_dim: (n + 1) as u32,
        input_dim: m as u32,
        a: vec![0.5; (n + 1) * (n + 1)],
        b: vec![0.1; (n + 1) * m],
    }));
    let scaled = |mat: &[f64]| mat.iter().map(|v| v * 0.99).collect::<Vec<_>>();
    replies.push(a.call(&Frame::Recalibrate {
        session: s1,
        state_dim: n as u32,
        input_dim: m as u32,
        a: scaled(model.system.a().as_slice()),
        b: scaled(model.system.b().as_slice()),
    }));
    replies.push(a.call(&Frame::Tick {
        session: s1,
        ticks: ticks(4, (n, m), 0.9),
    }));
    // Restore: a good one (closed twice), then a BadSnapshot one.
    let restored = a.call(&Frame::RestoreSession {
        spec: vehicle.clone(),
        state: state.clone(),
    });
    let s2 = ids.learn(session_of(&restored));
    replies.push(restored);
    replies.push(a.call(&Frame::CloseSession { session: s2 }));
    replies.push(a.call(&Frame::CloseSession { session: s2 }));
    replies.push(a.call(&Frame::RestoreSession {
        spec: SessionSpec::model_defaults(1),
        state: state.clone(),
    }));
    // Replication: accept, reject as stale, promote unknown, promote.
    let replicate = |key, generation| Frame::ReplicateSnapshot {
        key,
        generation,
        spec: vehicle.clone(),
        state: state.clone(),
    };
    replies.push(a.call(&replicate(7, 5)));
    replies.push(a.call(&replicate(7, 5)));
    replies.push(a.call(&Frame::PromoteSession { key: 8 }));
    let promoted = a.call(&Frame::PromoteSession { key: 7 });
    ids.learn(session_of(&promoted));
    replies.push(promoted);
    // Ring membership: accepted, then a stale epoch.
    let members = vec![RingMember {
        shard: 0,
        addr: "127.0.0.1:1".into(),
    }];
    replies.push(a.call(&Frame::RingUpdate {
        epoch: 3,
        members: members.clone(),
    }));
    replies.push(a.call(&Frame::RingUpdate { epoch: 2, members }));
    // A reply-direction frame sent as a request.
    replies.push(a.call(&Frame::HelloAck {
        server: "not a request".into(),
    }));
    // Fill the quota: a third session, then SessionLimit on open and
    // on promote (the replica survives the failed promotion).
    let opened = a.call(&Frame::OpenSession(vehicle.clone()));
    let s4 = ids.learn(session_of(&opened));
    replies.push(opened);
    replies.push(a.call(&Frame::OpenSession(vehicle.clone())));
    replies.push(a.call(&replicate(9, 1)));
    replies.push(a.call(&Frame::PromoteSession { key: 9 }));
    replies.push(a.call(&Frame::CloseSession { session: s4 }));
    let promoted = a.call(&Frame::PromoteSession { key: 9 });
    ids.learn(session_of(&promoted));
    replies.push(promoted);
    replies.push(a.call(&Frame::MetricsQuery));

    // Another connection cannot reach this connection's session.
    let mut b = RawConn::connect(addr);
    replies.push(b.call(&Frame::Tick {
        session: s1,
        ticks: ticks(1, (n, m), 0.0),
    }));
    replies.push(b.call(&Frame::SnapshotSession { session: s1 }));

    // A malformed frame: the error reply, then the close.
    let garbage = [0u8, 0, 0, 8, 0xde, 0xad, 0xbe, 0xef, 0x00, 0x11, 0x22, 0x33];
    b.stream.write_all(&garbage).unwrap();
    let env = read_envelope(&mut b.stream, DEFAULT_MAX_FRAME_LEN).unwrap();
    assert_eq!(env.corr, None, "a protocol violation has no corr to echo");
    replies.push(env.frame);
    match read_envelope(&mut b.stream, DEFAULT_MAX_FRAME_LEN) {
        Err(ReadFrameError::Closed) | Err(ReadFrameError::Io(_)) => {}
        other => panic!("expected a close after a protocol violation, got {other:?}"),
    }

    // The first connection is unharmed.
    replies.push(a.call(&Frame::Tick {
        session: s1,
        ticks: ticks(1, (n, m), 0.0),
    }));
    replies.into_iter().map(|f| ids.normalise(f)).collect()
}

/// Maps each server's session ids onto their order of appearance.
#[derive(Default)]
struct Ids(HashMap<u64, u64>);

impl Ids {
    fn learn(&mut self, raw: u64) -> u64 {
        let next = self.0.len() as u64;
        self.0.entry(raw).or_insert(next);
        raw
    }

    fn id(&self, raw: u64) -> u64 {
        *self.0.get(&raw).unwrap_or(&raw)
    }

    fn normalise(&self, frame: Frame) -> Frame {
        match frame {
            Frame::SessionOpened {
                session,
                state_dim,
                input_dim,
            } => Frame::SessionOpened {
                session: self.id(session),
                state_dim,
                input_dim,
            },
            Frame::TickOutcomes { session, outcomes } => Frame::TickOutcomes {
                session: self.id(session),
                outcomes,
            },
            Frame::SessionClosed { session } => Frame::SessionClosed {
                session: self.id(session),
            },
            Frame::SessionSnapshot { session, state } => Frame::SessionSnapshot {
                session: self.id(session),
                state,
            },
            Frame::RecalibrateAck {
                session,
                recal_count,
            } => Frame::RecalibrateAck {
                session: self.id(session),
                recal_count,
            },
            Frame::Error { code, message } => {
                let message = match message.strip_prefix("session ") {
                    Some(raw) if code == ErrorCode::UnknownSession => match raw.parse() {
                        Ok(raw) => format!("session {}", self.id(raw)),
                        Err(_) => message,
                    },
                    _ => message,
                };
                Frame::Error { code, message }
            }
            Frame::MetricsReply(wm) => Frame::MetricsReply(comparable_metrics(&wm)),
            other => other,
        }
    }
}

/// Keeps the `MetricsReply` fields every server must agree on — the
/// ones settled before the reply is written — and zeroes the rest:
/// the shard fields, the transport counters, and the engine figures
/// that depend on worker timing.
fn comparable_metrics(wm: &WireMetrics) -> WireMetrics {
    let none = WireLatency {
        count: 0,
        mean_ns: 0.0,
        p50_bound_ns: None,
        p99_bound_ns: None,
        overflow: 0,
    };
    WireMetrics {
        sessions_active: wm.sessions_active,
        ticks_submitted: wm.ticks_submitted,
        ticks_processed: 0,
        alarms_raised: 0,
        degraded_ticks: wm.degraded_ticks,
        queue_depth_high_water: 0,
        log_latency: none,
        detect_latency: none,
        frames_in: 0,
        frames_out: 0,
        decode_errors: 0,
        connections_opened: 0,
        connections_dropped: 0,
        alloc_free_ticks: 0,
        batched_deadline_queries: 0,
        sessions_evicted: wm.sessions_evicted,
        shards: 0,
        partial_frame_resumes: 0,
        sessions_replicated: wm.sessions_replicated,
        failovers: wm.failovers,
        replication_lag_hwm: wm.replication_lag_hwm,
        batch_ticks: 0,
        batch_sessions_hwm: 0,
        scalar_fallback_ticks: 0,
        recalibrations: wm.recalibrations,
        recalibrations_rejected: wm.recalibrations_rejected,
    }
}

#[test]
fn blocking_and_readiness_servers_answer_byte_identically() {
    let blocking = Server::bind("127.0.0.1:0", base_config()).unwrap();
    let reference = run_script(blocking.local_addr());
    blocking.shutdown();
    assert_eq!(reference.len(), 33, "script length changed");

    for force_poll in [false, true] {
        let net = NetServer::bind(
            "127.0.0.1:0",
            NetServerConfig {
                base: base_config(),
                shards: 2,
                force_poll,
                ..NetServerConfig::default()
            },
        )
        .unwrap();
        let replies = run_script(net.local_addr());
        net.shutdown();
        assert_eq!(replies.len(), reference.len());
        for (i, (got, want)) in replies.iter().zip(&reference).enumerate() {
            assert_eq!(
                got.encode(),
                want.encode(),
                "reply {i} differs (force_poll={force_poll}):\n  net:      {got:?}\n  blocking: {want:?}"
            );
        }
    }
}

#[test]
fn the_script_hits_every_typed_error() {
    let server = Server::bind("127.0.0.1:0", base_config()).unwrap();
    let replies = run_script(server.local_addr());
    server.shutdown();
    let codes: Vec<ErrorCode> = replies
        .iter()
        .filter_map(|f| match f {
            Frame::Error { code, .. } => Some(*code),
            _ => None,
        })
        .collect();
    for code in [
        ErrorCode::BadModel,
        ErrorCode::UnknownSession,
        ErrorCode::DimensionMismatch,
        ErrorCode::BadSnapshot,
        ErrorCode::SessionLimit,
        ErrorCode::Internal,
    ] {
        assert!(codes.contains(&code), "script never produced {code:?}");
    }
    let messages: Vec<&str> = replies
        .iter()
        .filter_map(|f| match f {
            Frame::Error { message, .. } => Some(message.as_str()),
            _ => None,
        })
        .collect();
    for needle in [
        "recalibrate declares dims",
        "stale replica generation",
        "replica 8",
        "connection already holds",
        "reply-direction frame is not a valid request",
        "protocol violation, closing connection",
        "restore: ",
    ] {
        assert!(
            messages.iter().any(|m| m.contains(needle)),
            "script never produced an error containing {needle:?}: {messages:#?}"
        );
    }
    // The stale ring epoch is acked with the epoch in force.
    let epoch_acks = replies
        .iter()
        .filter(|f| {
            matches!(
                f,
                Frame::ReplicateAck {
                    key: 0,
                    generation: 3
                }
            )
        })
        .count();
    assert_eq!(epoch_acks, 2, "both RingUpdates ack epoch 3");
}

#[test]
fn a_batch_past_the_outcome_timeout_answers_timeout_on_every_server() {
    // A queue that holds the whole batch, so submitting never waits for
    // the engine, and a zero timeout: the engine is still tens of
    // milliseconds from finishing when the server first looks for the
    // batch's outcomes.
    const TICKS: usize = 20_000;
    let config = ServerConfig {
        engine: EngineConfig {
            queue_capacity: TICKS,
            ..EngineConfig::default()
        },
        outcome_timeout: std::time::Duration::ZERO,
        ..base_config()
    };
    let blocking = Server::bind("127.0.0.1:0", config.clone()).unwrap();
    let net = NetServer::bind(
        "127.0.0.1:0",
        NetServerConfig {
            base: config,
            ..NetServerConfig::default()
        },
    )
    .unwrap();
    for addr in [blocking.local_addr(), net.local_addr()] {
        let mut conn = RawConn::connect(addr);
        let session = session_of(&conn.call(&Frame::OpenSession(SessionSpec::model_defaults(2))));
        match conn.call(&Frame::Tick {
            session,
            ticks: ticks(TICKS, (1, 1), 0.0),
        }) {
            Frame::Error { code, message } => {
                assert_eq!(code, ErrorCode::Timeout);
                assert!(message.starts_with("engine produced "), "{message}");
                assert!(
                    message.ends_with(&format!("/{TICKS} outcomes in time")),
                    "{message}"
                );
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        // The connection survives the timeout.
        assert!(matches!(
            conn.call(&Frame::Hello {
                client: "after".into()
            }),
            Frame::HelloAck { .. }
        ));
    }
    blocking.shutdown();
    net.shutdown();
}
