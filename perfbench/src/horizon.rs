//! `horizon-batch`: an in-process `DetectionEngine` with the
//! cross-session batched drain, running tens of quadrotor sessions at
//! `w_m = 100` without a deadline cache, submitted closed-loop with
//! `Block` backpressure from one generator thread. Also the
//! closed-loop drive the traced run reuses for its engine passes.

use std::collections::VecDeque;
use std::convert::Infallible;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant};

use awsad_linalg::Vector;
use awsad_runtime::{
    BackpressurePolicy, DetectionEngine, EngineConfig, RuntimeMetrics, SessionHandle, Tick,
    TickOutcome,
};

use crate::inputs::Inputs;
use crate::report::RunReport;
use crate::stats::{
    cpu, median, peak_rss_mb, ratio, rounds_p50_ms, secs, step_hash, Clock, Histogram, Sliced,
    Stream,
};
use crate::trace::Span;
use crate::{timed_setups, Settings};

/// Rounds of the end-of-run recalibration probe, each recalibrating
/// every session once; [`RECAL_GAP`] apart so the probe samples more
/// than one moment of a shared host.
pub const RECAL_ROUNDS: usize = 8;
/// Pause between recalibration rounds.
pub const RECAL_GAP: Duration = Duration::from_millis(250);
/// How long a submitted tick may wait for its outcome.
const OUTCOME_TIMEOUT: Duration = Duration::from_secs(10);

/// An engine configuration with the worker count pinned.
pub fn engine_config(workers: usize, cross_session_batch: bool) -> EngineConfig {
    EngineConfig {
        workers,
        backpressure: BackpressurePolicy::Block,
        cross_session_batch,
        ..EngineConfig::default()
    }
}

/// A live engine with every session of the inputs added.
pub struct Live {
    /// The engine under test.
    pub engine: DetectionEngine,
    /// One handle and outcome stream per input session, in order.
    pub sessions: Vec<(SessionHandle, Receiver<TickOutcome>)>,
}

/// Builds the engine and adds every session: the workload's set-up.
pub fn launch(inputs: &Inputs, config: EngineConfig) -> Live {
    let engine = DetectionEngine::new(config);
    let sessions = inputs
        .sessions
        .iter()
        .map(|s| {
            let (logger, detector) = s.parts();
            engine.add_session(logger, detector)
        })
        .collect();
    Live { engine, sessions }
}

/// Converts a wire tick to an engine tick.
pub fn engine_tick(tick: &awsad_serve::wire::WireTick) -> Tick {
    Tick {
        estimate: Vector::from_slice(&tick.estimate),
        input: Vector::from_slice(&tick.input),
    }
}

/// What a closed-loop drive measured.
#[derive(Debug, Default)]
pub struct ClosedLoop {
    /// Ticks completed.
    pub ticks: u64,
    /// Ticks that failed (refused submit, timeout, wrong sequence).
    pub failed: u64,
    /// Wall time of the drive, seconds.
    pub elapsed_s: f64,
    /// Submit-to-verdict latency per tick.
    pub wait: Histogram,
    /// The same, bucketed by completion time.
    pub sliced: Sliced,
    /// When submitting stopped, ns since the drive's start.
    pub until_ns: u64,
    /// Served outcome streams per session.
    pub served: Vec<(usize, Stream)>,
    /// Engine counters after the drive.
    pub metrics: Option<RuntimeMetrics>,
    /// Per-tick spans, when traced: the most recent [`SPAN_RING`],
    /// so a long saturated drive keeps bounded memory.
    pub spans: Vec<Span>,
}

/// How many per-tick spans a traced drive keeps.
pub const SPAN_RING: usize = 1 << 16;

impl ClosedLoop {
    /// Completed ticks per second over the whole drive.
    pub fn rate(&self) -> f64 {
        self.ticks as f64 / self.elapsed_s
    }

    /// Completed ticks per second over the drive's whole slices (see
    /// [`Sliced::rate`]).
    pub fn sliced_rate(&self) -> f64 {
        self.sliced.rate(0, self.until_ns)
    }
}

/// Drives every session from one generator thread for `seconds`,
/// keeping the engine saturated: the generator submits the next tick
/// of each session in turn, `Block` backpressure stalls it whenever a
/// session's queue is full (so at most `queue_capacity` ticks per
/// session are ever outstanding), and it collects the verdicts that
/// have arrived after each round. With `traced`, a span per tick
/// (submit to verdict collected) is kept.
pub fn closed_loop(live: &mut Live, inputs: &Inputs, seconds: f64, traced: bool) -> ClosedLoop {
    let clock = Clock::start();
    let until_ns = (seconds * 1e9) as u64;
    let n = live.sessions.len();
    let mut out = ClosedLoop {
        until_ns,
        ..ClosedLoop::default()
    };
    let mut streams = vec![Stream::default(); n];
    let mut submitted: Vec<VecDeque<u64>> = vec![VecDeque::new(); n];
    let mut k = 0;
    'rounds: while clock.now_ns() < until_ns {
        for (j, (handle, outcomes)) in live.sessions.iter().enumerate() {
            let input = &inputs.sessions[j];
            if let Some(r) = input.recal_at(k) {
                if handle.recalibrate(&r.a, &r.b).is_err() {
                    out.failed += 1;
                    break 'rounds;
                }
            }
            submitted[j].push_back(clock.now_ns());
            if handle.submit(engine_tick(input.tick(k))).is_err() {
                submitted[j].pop_back();
                out.failed += 1;
                break 'rounds;
            }
            while let Ok(o) = outcomes.try_recv() {
                let sent_ns = submitted[j].pop_front().expect("a tick is outstanding");
                out.collect(&mut streams[j], j, sent_ns, clock.now_ns(), Some(o), traced);
            }
        }
        k += 1;
    }
    for (j, (_, outcomes)) in live.sessions.iter().enumerate() {
        while let Some(sent_ns) = submitted[j].pop_front() {
            let o = outcomes.recv_timeout(OUTCOME_TIMEOUT).ok();
            out.collect(&mut streams[j], j, sent_ns, clock.now_ns(), o, traced);
        }
    }
    out.elapsed_s = clock.now_ns() as f64 / 1e9;
    out.served = streams.into_iter().enumerate().collect();
    out.metrics = Some(live.engine.metrics());
    out
}

impl ClosedLoop {
    /// Books one verdict (or its absence) for session `j`.
    fn collect(
        &mut self,
        stream: &mut Stream,
        j: usize,
        sent_ns: u64,
        now_ns: u64,
        outcome: Option<TickOutcome>,
        traced: bool,
    ) {
        match outcome {
            Some(o) if o.seq == stream.count as u64 && !o.degraded => {
                stream.push(step_hash(o.seq, &o.step));
                self.wait.record(now_ns - sent_ns);
                self.sliced.record(now_ns, now_ns - sent_ns, 1);
                self.ticks += 1;
                if traced {
                    let span = Span {
                        name: "runtime.tick",
                        start_ns: sent_ns,
                        end_ns: now_ns,
                        parent: 0,
                        tick: (j as u64) << 32 | o.seq,
                    };
                    if self.spans.len() < SPAN_RING {
                        self.spans.push(span);
                    } else {
                        self.spans[self.ticks as usize % SPAN_RING] = span;
                    }
                }
            }
            _ => {
                stream.push(u64::MAX);
                self.failed += 1;
            }
        }
    }
}

/// Recalibrates every session to its own nominal plant, once per
/// round for [`RECAL_ROUNDS`] rounds; returns each round's call
/// durations in ms and the failures.
pub fn recalibrate_all(live: &Live, inputs: &Inputs) -> (Vec<Vec<f64>>, u64) {
    let mut rounds = Vec::new();
    let mut failed = 0;
    for round in 0..RECAL_ROUNDS {
        if round > 0 {
            std::thread::sleep(RECAL_GAP);
        }
        let mut times = Vec::new();
        for ((handle, _), s) in live.sessions.iter().zip(&inputs.sessions) {
            let (logger, _) = s.parts();
            let start = Instant::now();
            match handle.recalibrate(logger.system().a(), logger.system().b()) {
                Ok(_) => times.push(secs(start) * 1e3),
                Err(_) => failed += 1,
            }
        }
        rounds.push(times);
    }
    (rounds, failed)
}

/// The timed `horizon-batch` run.
pub fn run(inputs: &Inputs, settings: &Settings) -> RunReport {
    let mut report = RunReport::default();
    let config = engine_config(1, true);
    let mut setups = Vec::new();
    let launch_one = || Ok::<_, Infallible>(launch(inputs, config.clone()));
    let Ok(Some(mut live)) = timed_setups(settings.setups_before(), &mut setups, launch_one, drop)
    else {
        unreachable!("launching an engine cannot fail and at least one set-up runs");
    };
    cpu::pin_load();
    let drive = closed_loop(&mut live, inputs, settings.seconds, false);
    let (recal_ms, recal_failed) = recalibrate_all(&live, inputs);
    let m = drive.metrics.expect("metrics recorded");
    drop(live);
    cpu::pin_service();
    let _ = timed_setups(settings.setups_after(), &mut setups, launch_one, drop);
    cpu::unpin();

    report.attempted = inputs.sessions.len() as u64 + drive.ticks + drive.failed;
    report.attempted += recal_ms.iter().map(Vec::len).sum::<usize>() as u64 + recal_failed;
    report.failed = drive.failed + recal_failed;
    report.verify(inputs, &drive.served);
    report.note(format!(
        "engine: {} ticks in {:.3} s, batch_ticks {}, scalar_fallback {}, batch_sessions_hwm {}, queue_hwm {}",
        drive.ticks,
        drive.elapsed_s,
        m.batch_ticks,
        m.scalar_fallback_ticks,
        m.batch_sessions_hwm,
        m.queue_depth_high_water
    ));
    report.note(format!(
        "whole run: {:.1} ticks/s, tick_p50_ms {:.4}, tick_p99_ms {:.4} (submit to verdict, saturated)",
        drive.rate(),
        drive.wait.quantile_ms(0.5),
        drive.wait.quantile_ms(0.99)
    ));

    // The verdict for sample t is due before sample t+1: the plant's
    // sampling period (0.1 s for the quadrotor).
    let period_ns = inputs.sessions[0].parts().0.system().dt() * 1e9;
    let on_time = drive.wait.count_at_most(period_ns as u64);
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("ticks_per_s", drive.sliced_rate(), "1/s");
    report.metric(
        "tick_p50_ms",
        drive.sliced.quantile_ms(0, drive.until_ns, 0.5),
        "ms",
    );
    report.metric(
        "on_time_ratio",
        ratio(on_time as f64, (drive.wait.count() + drive.failed) as f64),
        "ratio",
    );
    report.metric("recal_p50_ms", rounds_p50_ms(&recal_ms), "ms");
    report
}
