//! `fleet-open`: hundreds of registry sessions multiplexed over two
//! connections to the epoll `NetServer`, each session sending one tick
//! per frame on a fixed sample period, open-loop, at a ladder of fixed
//! absolute offered rates. Every tick is timed from its *scheduled*
//! send time, so a stall is charged to every tick it delays. A final
//! saturating phase keeps a fixed window of frames in flight on each
//! connection to measure the server's capacity.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use awsad_net::{NetServer, NetServerConfig, REQUEST_QUEUE_CAP};
use awsad_runtime::{BackpressurePolicy, EngineConfig};
use awsad_serve::server::ServerConfig;
use awsad_serve::wire::{
    read_envelope, write_frame_corr, Frame, ReadFrameError, DEFAULT_MAX_FRAME_LEN,
};

use crate::horizon::{RECAL_GAP, RECAL_ROUNDS};
use crate::inputs::Inputs;
use crate::report::RunReport;
use crate::stats::{
    cpu, median, peak_rss_mb, ratio, rounds_p50_ms, secs, wire_hash, Clock, Histogram, Sliced,
    Stream,
};
use crate::{timed_setups, Settings};

/// Client connections the fleet is multiplexed over.
pub const CONNECTIONS: usize = 2;
/// Sample periods of the ladder: the nominal rung first, then faster.
const LADDER_PERIODS_US: [u64; 3] = [20_000, 10_000, 5_000];
/// Share of the measuring time each rung gets.
const LADDER_SHARES: [f64; 3] = [0.4, 0.1, 0.1];
/// Share of the measuring time of the saturating phase.
const SATURATE_SHARE: f64 = 0.4;
/// How long a phase may take to drain its outstanding ticks.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

/// The server configuration every fleet run uses: one I/O shard whose
/// engine runs one worker, with the per-connection session limit
/// raised to hold half the fleet.
pub fn server_config(sessions: usize) -> NetServerConfig {
    NetServerConfig {
        base: ServerConfig {
            engine: EngineConfig {
                workers: 1,
                backpressure: BackpressurePolicy::Block,
                ..EngineConfig::default()
            },
            max_sessions_per_connection: sessions.div_ceil(CONNECTIONS).max(1),
            outcome_timeout: Duration::from_secs(10),
            ..ServerConfig::default()
        },
        shards: 1,
        ..NetServerConfig::default()
    }
}

/// One client connection carrying a slice of the fleet.
struct Conn {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    /// `(session index into the inputs, server session id)`.
    sessions: Vec<(usize, u64)>,
    /// Next trace position per session.
    positions: Vec<u64>,
    /// Outcomes served per session.
    served: Vec<Stream>,
}

impl Conn {
    /// Connects and performs the `Hello` handshake.
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            sessions: Vec::new(),
            positions: Vec::new(),
            served: Vec::new(),
        };
        match conn.call(&Frame::Hello {
            client: "awsad-perfbench".into(),
        })? {
            Frame::HelloAck { .. } => Ok(conn),
            other => Err(unexpected(&other)),
        }
    }

    /// One synchronous request/reply round trip.
    fn call(&mut self, frame: &Frame) -> std::io::Result<Frame> {
        write_frame_corr(&mut self.writer, frame, None)?;
        read_envelope(&mut self.reader, DEFAULT_MAX_FRAME_LEN)
            .map(|env| env.frame)
            .map_err(|e| std::io::Error::other(e.to_string()))
    }
}

fn unexpected(frame: &Frame) -> std::io::Error {
    std::io::Error::other(format!("unexpected reply {}", frame.type_name()))
}

/// A running server with the fleet opened on it.
struct Fleet {
    server: NetServer,
    conns: Vec<Conn>,
}

/// Binds the server, connects, and opens every session (round-robin
/// over the connections). This is the workload's set-up.
fn launch(inputs: &Inputs) -> std::io::Result<Fleet> {
    let server = NetServer::bind("127.0.0.1:0", server_config(inputs.sessions.len()))?;
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::connect(server.local_addr()))
        .collect::<std::io::Result<Vec<_>>>()?;
    for (i, s) in inputs.sessions.iter().enumerate() {
        let conn = &mut conns[i % CONNECTIONS];
        match conn.call(&Frame::OpenSession(s.spec.clone()))? {
            Frame::SessionOpened { session, .. } => {
                conn.sessions.push((i, session));
                conn.positions.push(0);
                conn.served.push(Stream::default());
            }
            other => return Err(unexpected(&other)),
        }
    }
    Ok(Fleet { server, conns })
}

/// How a phase sends.
#[derive(Debug, Clone, Copy)]
enum Schedule {
    /// Every session sends one tick per `period_ns`, for `rounds`
    /// periods, evenly staggered across the period.
    Periodic { period_ns: u64, rounds: u64 },
    /// Send as fast as `window` outstanding frames per connection
    /// allow, until `until_ns`.
    Saturate { window: u64, until_ns: u64 },
}

/// What one phase measured (summed over the connections).
#[derive(Debug)]
struct Phase {
    /// Scheduled send to verdict (the generator's lateness included).
    latency: Histogram,
    /// Actual send to verdict.
    rtt: Histogram,
    /// Generator lateness: actual minus scheduled send.
    late: Histogram,
    /// Scheduled-send latency by completion time.
    sliced: Sliced,
    /// The phase's sending window, ns on the run's clock.
    from_ns: u64,
    to_ns: u64,
    /// Outstanding ticks when the last tick of the phase was sent.
    backlog_end: u64,
    completed: u64,
    failed: u64,
    /// First scheduled send to last verdict, seconds.
    elapsed_s: f64,
    drained: bool,
}

impl Default for Phase {
    fn default() -> Self {
        Phase {
            latency: Histogram::default(),
            rtt: Histogram::default(),
            late: Histogram::default(),
            sliced: Sliced::default(),
            from_ns: 0,
            to_ns: 0,
            backlog_end: 0,
            completed: 0,
            failed: 0,
            elapsed_s: 0.0,
            drained: true,
        }
    }
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.latency.merge(&other.latency);
        self.rtt.merge(&other.rtt);
        self.late.merge(&other.late);
        self.sliced.merge(&other.sliced);
        self.backlog_end += other.backlog_end;
        self.completed += other.completed;
        self.failed += other.failed;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.drained &= other.drained;
    }

    fn rate(&self) -> f64 {
        self.completed as f64 / self.elapsed_s
    }

    /// Completions per second over the phase's whole slices (see
    /// [`Sliced::rate`]).
    fn sliced_rate(&self) -> f64 {
        self.sliced.rate(self.from_ns, self.to_ns)
    }

    /// Latency quantile over the phase's whole slices (see
    /// [`Sliced::quantile_ms`]).
    fn sliced_quantile_ms(&self, q: f64) -> f64 {
        self.sliced.quantile_ms(self.from_ns, self.to_ns, q)
    }
}

/// A tick in flight on one connection.
struct InFlight {
    corr: u64,
    scheduled_ns: u64,
    sent_ns: u64,
}

/// The reply-reading half of a phase on one connection. Replies
/// arrive in request order, so each pops the oldest tick in flight.
fn read_replies(
    reader: &mut BufReader<TcpStream>,
    served: &mut [Stream],
    queue: &Mutex<VecDeque<InFlight>>,
    counters: [&AtomicU64; 2],
    writer_done: &AtomicBool,
    clock: Clock,
) -> (Phase, u64) {
    let [sent, received] = counters;
    let mut part = Phase::default();
    let mut last_ns = 0;
    let mut done_at = None;
    let _ = reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(50)));
    loop {
        if writer_done.load(Ordering::Acquire) {
            if received.load(Ordering::Acquire) == sent.load(Ordering::Acquire) {
                break;
            }
            if done_at.get_or_insert_with(Instant::now).elapsed() > DRAIN_LIMIT {
                part.drained = false;
                break;
            }
        }
        let env = match read_envelope(reader, DEFAULT_MAX_FRAME_LEN) {
            Ok(env) => env,
            Err(ReadFrameError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(_) => {
                part.drained = false;
                break;
            }
        };
        let now = clock.now_ns();
        let Some(flight) = queue.lock().expect("queue lock").pop_front() else {
            part.drained = false;
            break;
        };
        let local = (flight.corr >> 40) as usize;
        let position = flight.corr & ((1 << 40) - 1);
        match (&env.frame, env.corr) {
            (Frame::TickOutcomes { outcomes, .. }, Some(c))
                if c == flight.corr && outcomes.len() == 1 && outcomes[0].seq == position =>
            {
                served[local].push(wire_hash(&outcomes[0]));
                part.latency.record(now - flight.scheduled_ns);
                part.sliced.record(now, now - flight.scheduled_ns, 1);
                part.rtt.record(now - flight.sent_ns);
                part.completed += 1;
            }
            _ => {
                // A wrong reply breaks the stream (its digest can no
                // longer match) and counts as a late tick.
                served[local].push(u64::MAX);
                part.failed += 1;
                part.latency.record(u64::MAX >> 2);
            }
        }
        last_ns = now;
        received.fetch_add(1, Ordering::Release);
    }
    (part, last_ns)
}

/// Runs one phase on one connection: this thread is the generator, a
/// scoped sibling reads replies.
fn run_phase_on(
    conn: &mut Conn,
    conn_index: usize,
    clock: Clock,
    start_ns: u64,
    schedule: Schedule,
    inputs: &Inputs,
) -> Phase {
    let sessions = conn.sessions.clone();
    let local = sessions.len() as u64;
    let queue: Mutex<VecDeque<InFlight>> = Mutex::new(VecDeque::new());
    let sent = AtomicU64::new(0);
    let received = AtomicU64::new(0);
    let writer_done = AtomicBool::new(false);
    let (reader, writer) = (&mut conn.reader, &mut conn.writer);
    let (served, positions) = (&mut conn.served, &mut conn.positions);
    let mut phase = Phase::default();

    let (reader_part, last_ns) = std::thread::scope(|scope| {
        let reader_thread = scope.spawn(|| {
            read_replies(
                reader,
                served,
                &queue,
                [&sent, &received],
                &writer_done,
                clock,
            )
        });
        let mut late = Histogram::default();
        let mut send = |writer: &mut BufWriter<TcpStream>, j: usize, due: u64| -> bool {
            let (idx, session) = sessions[j];
            let k = positions[j];
            positions[j] += 1;
            let corr = (j as u64) << 40 | k;
            let frame = Frame::Tick {
                session,
                ticks: vec![inputs.sessions[idx].tick(k as usize).clone()],
            };
            let sent_ns = clock.now_ns();
            late.record(sent_ns.saturating_sub(due));
            queue.lock().expect("queue lock").push_back(InFlight {
                corr,
                scheduled_ns: due.min(sent_ns),
                sent_ns,
            });
            sent.fetch_add(1, Ordering::Release);
            write_frame_corr_buffered(writer, &frame, corr).is_ok()
        };
        match schedule {
            Schedule::Periodic { period_ns, rounds } => {
                let slot_ns = period_ns / local.max(1);
                // Interleave the connections within a slot.
                let offset_ns = slot_ns * conn_index as u64 / CONNECTIONS as u64;
                'rounds: for round in 0..rounds {
                    for j in 0..sessions.len() {
                        let due = start_ns + (round * local + j as u64) * slot_ns + offset_ns;
                        // Never more than the server's request queue
                        // in flight: past it the generator waits, and
                        // the wait shows as lateness.
                        while sent.load(Ordering::Acquire) - received.load(Ordering::Acquire)
                            >= REQUEST_QUEUE_CAP as u64
                        {
                            if writer.flush().is_err() {
                                break 'rounds;
                            }
                            std::thread::sleep(Duration::from_micros(20));
                        }
                        let now = clock.now_ns();
                        if due > now {
                            // Everything already due is buffered; send
                            // it before sleeping.
                            if writer.flush().is_err() {
                                break 'rounds;
                            }
                            std::thread::sleep(Duration::from_nanos(due - now));
                        }
                        if !send(writer, j, due) {
                            break 'rounds;
                        }
                    }
                }
            }
            Schedule::Saturate { window, until_ns } => {
                let mut j = 0;
                while clock.now_ns() < until_ns {
                    let outstanding =
                        sent.load(Ordering::Acquire) - received.load(Ordering::Acquire);
                    if outstanding >= window {
                        if writer.flush().is_err() {
                            break;
                        }
                        std::thread::yield_now();
                        continue;
                    }
                    if !send(writer, j, clock.now_ns()) {
                        break;
                    }
                    j = (j + 1) % sessions.len();
                }
            }
        }
        let _ = writer.flush();
        phase.late = late;
        phase.backlog_end = sent.load(Ordering::Acquire) - received.load(Ordering::Acquire);
        writer_done.store(true, Ordering::Release);
        reader_thread.join().expect("reader thread panicked")
    });
    phase.failed = sent.into_inner() - received.into_inner();
    phase.absorb(reader_part);
    phase.elapsed_s = last_ns.saturating_sub(start_ns) as f64 / 1e9;
    phase
}

/// `write_frame_corr` without the per-frame flush, so frames that are
/// due together leave in one write.
fn write_frame_corr_buffered(
    w: &mut BufWriter<TcpStream>,
    frame: &Frame,
    corr: u64,
) -> std::io::Result<()> {
    let payload = frame
        .try_encode_with_corr(Some(corr))
        .map_err(std::io::Error::other)?;
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(&payload)
}

/// Runs one phase on every connection at once, one generator thread
/// per connection. `schedule` receives the phase's start time.
fn run_phase(
    fleet: &mut Fleet,
    inputs: &Inputs,
    clock: Clock,
    schedule: impl Fn(u64) -> Schedule,
) -> Phase {
    // Start a little ahead so both generators begin on schedule.
    let start_ns = clock.now_ns() + 2_000_000;
    let schedule = schedule(start_ns);
    let to_ns = match schedule {
        Schedule::Periodic { period_ns, rounds } => start_ns + period_ns * rounds,
        Schedule::Saturate { until_ns, .. } => until_ns,
    };
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = fleet
            .conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                scope.spawn(move || run_phase_on(conn, c, clock, start_ns, schedule, inputs))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        from_ns: start_ns,
        to_ns,
        ..Phase::default()
    };
    for part in parts {
        phase.absorb(part);
    }
    phase
}

/// Recalibrates every session to its own nominal plant over the wire,
/// once per round for [`RECAL_ROUNDS`] rounds; returns each round's
/// round trips in ms and the failures.
fn recalibrate_all(conns: &mut [Conn], inputs: &Inputs) -> (Vec<Vec<f64>>, u64) {
    let mut rounds = Vec::new();
    let mut failed = 0;
    for round in 0..RECAL_ROUNDS {
        if round > 0 {
            std::thread::sleep(RECAL_GAP);
        }
        let mut times = Vec::new();
        for conn in conns.iter_mut() {
            for (idx, session) in conn.sessions.clone() {
                let (logger, _) = inputs.sessions[idx].parts();
                let (a, b) = (logger.system().a(), logger.system().b());
                let (n, m) = b.shape();
                let frame = Frame::Recalibrate {
                    session,
                    state_dim: n as u32,
                    input_dim: m as u32,
                    a: a.as_slice().to_vec(),
                    b: b.as_slice().to_vec(),
                };
                let start = Instant::now();
                match conn.call(&frame) {
                    Ok(Frame::RecalibrateAck { .. }) => times.push(secs(start) * 1e3),
                    _ => failed += 1,
                }
            }
        }
        rounds.push(times);
    }
    (rounds, failed)
}

/// Whether the generator kept its schedule: p99 lateness under half a
/// sample period. A rung where it did not is invalid, not fast.
fn generator_kept_up(rung: &Phase, period_ns: u64) -> bool {
    rung.late.quantile_ms(0.99) * 1e6 <= period_ns as f64 / 2.0
}

/// A rung meets the limit when it is valid, every tick was served,
/// the p99 verdict arrived within one sample period, and no more than
/// one period's worth of ticks was still outstanding at its end.
fn meets_limit(rung: &Phase, period_ns: u64, sessions: u64) -> bool {
    generator_kept_up(rung, period_ns)
        && rung.drained
        && rung.failed == 0
        && rung.latency.quantile_ms(0.99) * 1e6 <= period_ns as f64
        && rung.backlog_end <= sessions
}

/// The timed `fleet-open` run.
pub fn run(inputs: &Inputs, settings: &Settings) -> RunReport {
    let mut report = RunReport::default();
    let mut setups = Vec::new();
    let teardown = |f: Fleet| f.server.shutdown();
    let mut fleet = match timed_setups(
        settings.setups_before(),
        &mut setups,
        || launch(inputs),
        teardown,
    ) {
        Ok(f) => f.expect("at least one set-up runs"),
        Err(e) => {
            report.note(format!("setup failed: {e}"));
            report.attempted += 1;
            report.failed += 1;
            return report;
        }
    };
    let sessions = inputs.sessions.len() as u64;
    report.attempted += sessions;

    cpu::pin_load();
    let clock = Clock::start();
    // Each rung starts once the previous one has drained, so every
    // rung's backlog at its start is zero.
    report.note(
        "rung  period_ms  offered/s  achieved/s  p50_ms  p99_ms  late_p99_ms  late_max_ms  \
         backlog_start  backlog_end  valid  meets_limit",
    );
    let mut rungs: Vec<Phase> = Vec::new();
    let mut sustained = None;
    let mut rss_nominal = f64::NAN;
    for (&period_us, &share) in LADDER_PERIODS_US.iter().zip(&LADDER_SHARES) {
        let period_ns = period_us * 1000;
        let rounds = ((settings.seconds * share * 1e9) as u64 / period_ns).max(2);
        let rung = run_phase(&mut fleet, inputs, clock, |_| Schedule::Periodic {
            period_ns,
            rounds,
        });
        let ok = meets_limit(&rung, period_ns, sessions);
        report.note(format!(
            "rung {:>9.1} {:>10.0} {:>11.0} {:>7.3} {:>7.3} {:>12.3} {:>12.3} {:>14} {:>12} {:>6} {:>12}",
            period_us as f64 / 1e3,
            sessions as f64 * 1e9 / period_ns as f64,
            rung.rate(),
            rung.latency.quantile_ms(0.5),
            rung.latency.quantile_ms(0.99),
            rung.late.quantile_ms(0.99),
            rung.late.quantile_ms(1.0),
            0,
            rung.backlog_end,
            generator_kept_up(&rung, period_ns),
            ok,
        ));
        if rungs.is_empty() {
            // Service memory at the nominal rate, before any overload.
            rss_nominal = peak_rss_mb();
        }
        if ok {
            sustained = Some(rung.rate());
        }
        rungs.push(rung);
        if !ok {
            break;
        }
    }
    let window = (REQUEST_QUEUE_CAP as u64)
        .min(sessions / CONNECTIONS as u64)
        .max(1);
    let saturate_ns = (settings.seconds * SATURATE_SHARE * 1e9) as u64;
    let saturated = run_phase(&mut fleet, inputs, clock, |start| Schedule::Saturate {
        window,
        until_ns: start + saturate_ns,
    });
    // The recalibration probe runs on the service core: a one-at-a-time
    // round trip between two cores would time the host waking an idle
    // core rather than the swap itself.
    cpu::pin_service();
    let (recal_ms, recal_failed) = recalibrate_all(&mut fleet.conns, inputs);
    let engine = fleet.server.engine_metrics();
    fleet.server.shutdown();
    let after = timed_setups(
        settings.setups_after(),
        &mut setups,
        || launch(inputs),
        teardown,
    );
    if let Ok(Some(last)) = after {
        teardown(last);
    }
    cpu::unpin();

    let nominal = &rungs[0];
    let nominal_period_ns = LADDER_PERIODS_US[0] * 1000;
    report.note(format!(
        "gen.late_ms.p99 {:.4} gen.late_ms.max {:.4} (nominal rung, {} ticks)",
        nominal.late.quantile_ms(0.99),
        nominal.late.quantile_ms(1.0),
        nominal.late.count()
    ));
    report.note(format!(
        "nominal rung, whole: tick_p50_ms {:.4} tick_p99_ms {:.4} batch_p50_ms {:.4} \
         batch_p99_ms {:.4} (batch = one frame)",
        nominal.latency.quantile_ms(0.5),
        nominal.latency.quantile_ms(0.99),
        nominal.rtt.quantile_ms(0.5),
        nominal.rtt.quantile_ms(0.99),
    ));
    match sustained {
        Some(rate) => report.note(format!(
            "sustained_ticks_per_s {rate:.1} (highest rung meeting the limit)"
        )),
        None => report.note("sustained_ticks_per_s none (no rung met the limit)"),
    }
    report.note(format!(
        "saturated: {} ticks in {:.3} s ({:.1}/s), {window} frames in flight per connection, \
         rtt p50 {:.4} ms",
        saturated.completed,
        saturated.elapsed_s,
        saturated.rate(),
        saturated.rtt.quantile_ms(0.5)
    ));
    report.note(format!(
        "engine queue_hwm {} degraded {} processed {}",
        engine.queue_depth_high_water, engine.degraded_ticks, engine.ticks_processed
    ));

    for phase in rungs.iter().chain([&saturated]) {
        report.attempted += phase.completed + phase.failed;
        report.failed += phase.failed;
    }
    report.attempted += recal_ms.iter().map(Vec::len).sum::<usize>() as u64 + recal_failed;
    report.failed += recal_failed;
    let served: Vec<(usize, Stream)> = fleet
        .conns
        .iter()
        .flat_map(|c| {
            c.sessions
                .iter()
                .map(|&(idx, _)| idx)
                .zip(c.served.iter().copied())
        })
        .collect();
    report.verify(inputs, &served);

    let on_time = nominal.latency.count_at_most(nominal_period_ns);
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", rss_nominal, "MB");
    report.metric("ticks_per_s", saturated.sliced_rate(), "1/s");
    report.metric("tick_p50_ms", nominal.sliced_quantile_ms(0.5), "ms");
    report.metric(
        "on_time_ratio",
        ratio(on_time as f64, nominal.latency.count() as f64),
        "ratio",
    );
    report.metric("recal_p50_ms", rounds_p50_ms(&recal_ms), "ms");
    report
}
