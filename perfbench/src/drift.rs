//! `cluster-drift`: a replicated 2-shard `LocalCluster` driven
//! closed-loop by one `ClusterClient` (one connection per shard) with
//! testkit drift sessions in small batches. Each session recalibrates
//! once mid-stream; after its trace ends it is closed and re-opened,
//! so session churn, checkpoints, replication and estimator rebuilds
//! are all on the measured path.

use std::time::{Duration, Instant};

use awsad_cluster::{ClusterClient, LocalCluster};
use awsad_serve::server::ServerConfig;

use crate::horizon::engine_config;
use crate::inputs::Inputs;
use crate::report::RunReport;
use crate::stats::{
    cpu, median, peak_rss_mb, ratio, secs, wire_hash, Clock, Histogram, Sliced, Stream,
};
use crate::{timed_setups, Settings};

/// Shards in the cluster.
pub const SHARDS: usize = 2;
/// Ticks per `tick_batch` call.
pub const BATCH: usize = 8;
/// Completed ticks after which the drive samples peak RSS: session
/// churn grows server state, so memory is compared at a fixed amount
/// of work rather than at a fixed time.
const RSS_AT_TICKS: u64 = 150_000;

/// The per-shard server configuration: one engine worker per shard.
pub fn server_config(sessions: usize) -> ServerConfig {
    ServerConfig {
        engine: engine_config(1, false),
        max_sessions_per_connection: sessions.max(64),
        outcome_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    }
}

/// A launched cluster with one live session per input session.
pub struct Live {
    /// The cluster under test.
    pub cluster: LocalCluster,
    /// The router.
    pub client: ClusterClient,
    /// Live instances, one per input session.
    pub instances: Vec<Instance>,
}

/// One opened session streaming an input session's trace.
#[derive(Debug)]
pub struct Instance {
    /// Index into the inputs.
    pub idx: usize,
    /// Cluster session key.
    pub key: u64,
    /// Next trace position.
    pub pos: usize,
    /// Outcomes served so far.
    pub served: Stream,
}

/// Launches the cluster and opens every session: the set-up.
pub fn launch(inputs: &Inputs) -> Result<Live, String> {
    let cluster = LocalCluster::launch(SHARDS, server_config(inputs.sessions.len()))
        .map_err(|e| format!("launch: {e}"))?;
    let mut client = cluster.client();
    let mut instances = Vec::with_capacity(inputs.sessions.len());
    for (idx, s) in inputs.sessions.iter().enumerate() {
        let session = client
            .open_session(&s.spec)
            .map_err(|e| format!("open: {e}"))?;
        instances.push(Instance {
            idx,
            key: session.key,
            pos: 0,
            served: Stream::default(),
        });
    }
    Ok(Live {
        cluster,
        client,
        instances,
    })
}

/// What a closed-loop cluster drive measured.
#[derive(Debug, Default)]
pub struct Drive {
    /// Ticks completed.
    pub ticks: u64,
    /// Operations attempted (batches, recalibrations, closes, opens).
    pub ops: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Batch round trips.
    pub batch: Histogram,
    /// Batch round trips, once per tick they carried: every tick of a
    /// batch gets its verdict when the batch returns.
    pub tick: Histogram,
    /// Recalibration round trips, by completion time.
    pub recal: Sliced,
    /// Ticks and their batch round trips, by completion time.
    pub sliced: Sliced,
    /// Length of the drive, ns.
    pub until_ns: u64,
    /// Peak RSS once [`RSS_AT_TICKS`] ticks completed (or at the end).
    pub rss_mb: Option<f64>,
    /// Wall time, seconds.
    pub elapsed_s: f64,
    /// Served streams of every instance, finished or not.
    pub served: Vec<(usize, Stream)>,
}

/// Advances one instance by one batch (recalibrating first when its
/// swap is due); re-opens it once its trace is done. Returns `false`
/// after a failure.
pub fn step_instance(
    client: &mut ClusterClient,
    inputs: &Inputs,
    inst: &mut Instance,
    drive: &mut Drive,
    clock: Clock,
) -> bool {
    let s = &inputs.sessions[inst.idx];
    if inst.pos == s.trace.len() {
        drive.ops += 2;
        if client.close_session(inst.key).is_err() {
            drive.failed += 1;
            return false;
        }
        match client.open_session(&s.spec) {
            Ok(session) => {
                drive
                    .served
                    .push((inst.idx, std::mem::take(&mut inst.served)));
                inst.key = session.key;
                inst.pos = 0;
            }
            Err(_) => {
                drive.failed += 1;
                return false;
            }
        }
    }
    if let Some(r) = s.recal_at(inst.pos) {
        let (n, m) = r.b.shape();
        drive.ops += 1;
        let start = clock.now_ns();
        match client.recalibrate(inst.key, n as u32, m as u32, r.a.as_slice(), r.b.as_slice()) {
            Ok(_) => drive
                .recal
                .record(clock.now_ns(), clock.now_ns() - start, 1),
            Err(_) => {
                drive.failed += 1;
                return false;
            }
        }
    }
    let mut end = (inst.pos + BATCH).min(s.trace.len());
    if let Some(r) = &s.recal {
        if r.at > inst.pos {
            end = end.min(r.at);
        }
    }
    let batch = &s.trace[inst.pos..end];
    drive.ops += 1;
    let start = clock.now_ns();
    match client.tick_batch(inst.key, batch) {
        Ok(outcomes) if outcomes.len() == batch.len() => {
            let ns = clock.now_ns() - start;
            drive.batch.record(ns);
            drive.tick.record_n(ns, batch.len() as u64);
            drive.sliced.record(clock.now_ns(), ns, batch.len() as u64);
            for o in &outcomes {
                inst.served.push(wire_hash(o));
            }
            inst.pos = end;
            drive.ticks += batch.len() as u64;
            true
        }
        _ => {
            drive.failed += 1;
            false
        }
    }
}

/// Drives every instance round-robin, closed-loop, for `seconds`.
pub fn drive(live: &mut Live, inputs: &Inputs, seconds: f64) -> Drive {
    let clock = Clock::start();
    let mut out = Drive {
        until_ns: (seconds * 1e9) as u64,
        ..Drive::default()
    };
    let start = Instant::now();
    'outer: while clock.now_ns() < out.until_ns {
        for inst in live.instances.iter_mut() {
            if !step_instance(&mut live.client, inputs, inst, &mut out, clock) {
                break 'outer;
            }
            if out.rss_mb.is_none() && out.ticks >= RSS_AT_TICKS {
                out.rss_mb = Some(peak_rss_mb());
            }
        }
    }
    out.elapsed_s = secs(start);
    for inst in &mut live.instances {
        out.served
            .push((inst.idx, std::mem::take(&mut inst.served)));
    }
    out
}

/// The timed `cluster-drift` run.
pub fn run(inputs: &Inputs, settings: &Settings) -> RunReport {
    let mut report = RunReport::default();
    let mut setups = Vec::new();
    let teardown = |l: Live| l.cluster.shutdown();
    let mut live = match timed_setups(
        settings.setups_before(),
        &mut setups,
        || launch(inputs),
        teardown,
    ) {
        Ok(l) => l.expect("at least one set-up runs"),
        Err(e) => {
            report.note(format!("setup failed: {e}"));
            report.attempted += 1;
            report.failed += 1;
            return report;
        }
    };
    cpu::pin_load();
    let d = drive(&mut live, inputs, settings.seconds);
    let replicated: u64 = (0..SHARDS as u32)
        .filter_map(|s| live.cluster.engine_metrics(s))
        .map(|m| m.sessions_replicated)
        .sum();
    teardown(live);
    cpu::pin_service();
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

    report.attempted = inputs.sessions.len() as u64 + d.ops;
    report.failed = d.failed;
    report.verify(inputs, &d.served);
    report.note(format!(
        "cluster: {} ticks in {} batches over {:.3} s, {} recalibrations, {} snapshots replicated",
        d.ticks,
        d.batch.count(),
        d.elapsed_s,
        d.recal.count(),
        replicated
    ));
    report.note(format!(
        "whole run: {:.1} ticks/s, tick_p50_ms {:.4}, tick_p99_ms {:.4}, batch_p50_ms {:.4}, batch_p99_ms {:.4}",
        d.ticks as f64 / d.elapsed_s,
        d.tick.quantile_ms(0.5),
        d.tick.quantile_ms(0.99),
        d.batch.quantile_ms(0.5),
        d.batch.quantile_ms(0.99)
    ));

    // On time = before the next sample is due, judged conservatively
    // against the fastest-sampled plant in the fleet.
    let min_period_ns = inputs
        .sessions
        .iter()
        .map(|s| s.parts().0.system().dt() * 1e9)
        .fold(f64::INFINITY, f64::min);
    let on_time = d.tick.count_at_most(min_period_ns as u64);
    report.metric("setup_s", median(&setups), "s");
    report.metric("peak_rss_mb", d.rss_mb.unwrap_or_else(peak_rss_mb), "MB");
    report.metric("ticks_per_s", d.sliced.rate(0, d.until_ns), "1/s");
    report.metric(
        "tick_p50_ms",
        d.sliced.quantile_ms(0, d.until_ns, 0.5),
        "ms",
    );
    report.metric(
        "on_time_ratio",
        ratio(on_time as f64, (d.tick.count() + d.failed) as f64),
        "ratio",
    );
    report.metric(
        "recal_p50_ms",
        d.recal.quantile_ms(0, d.until_ns, 0.5),
        "ms",
    );
    report
}
