//! The traced run: the workload's generated inputs replayed through
//! each layer's public entry points in turn — reachability query →
//! `AdaptiveDetector::step` (scalar and `BatchPlan` lanes) → engine
//! (single tick in flight; closed-loop scalar and mega-batch, 1 and 2
//! workers) → `Frame` encode/decode → blocking `Server` → `NetServer`
//! → `LocalCluster` — with a span around every call. A layer's added
//! cost is its path minus the next inner path on the same ticks; the
//! ledger checks those costs against an untraced end-to-end pass.

use std::collections::BTreeMap;
use std::time::Duration;

use awsad_core::{AdaptiveStep, BatchLane, BatchPlan};
use awsad_linalg::Vector;
use awsad_net::NetServer;
use awsad_reach::{Deadline, DeadlineEstimator, DeadlineScratch};
use awsad_serve::client::Client;
use awsad_serve::server::Server;
use awsad_serve::wire::{Frame, WireOutcome};

use crate::drift::{self, BATCH, SHARDS};
use crate::fleet;
use crate::horizon::{self, closed_loop, engine_config, engine_tick};
use crate::inputs::{Inputs, Workload};
use crate::report::RunReport;
use crate::stats::{mean, quantile, ratio, step_hash, wire_hash, Stream};
use crate::trace::Tracer;
use crate::Settings;

/// Share of the measuring time each closed-loop engine pass gets.
const THROUGHPUT_SHARE: f64 = 0.15;

/// `session << 32 | position`: the id every span of one tick shares.
fn tick_id(i: usize, k: usize) -> u64 {
    (i as u64) << 32 | k as u64
}

/// The tick order every single-in-flight pass replays: one pass over
/// each session's trace, interleaved position by position.
fn tick_order(inputs: &Inputs) -> Vec<(usize, usize)> {
    let longest = inputs
        .sessions
        .iter()
        .map(|s| s.trace.len())
        .max()
        .unwrap_or(0);
    (0..longest)
        .flat_map(|k| {
            inputs
                .sessions
                .iter()
                .enumerate()
                .filter(move |(_, s)| k < s.trace.len())
                .map(move |(i, _)| (i, k))
        })
        .collect()
}

/// Per-tick costs from the reach/core pass, in nanoseconds.
#[derive(Debug, Default)]
struct CorePass {
    log_ns: Vec<f64>,
    query_ns: Vec<f64>,
    walk_steps: Vec<f64>,
    step_ns: Vec<f64>,
    /// Reachability time the step itself spent: the query's cost when
    /// the step walked, 0 on a cache hit.
    reach_in_step_ns: Vec<f64>,
    snapshot_ns: Vec<f64>,
    recal_ns: Vec<f64>,
    cache_hits: u64,
    cache_misses: u64,
    /// Direct-stepping outcomes per session, in trace order.
    steps: Vec<Vec<AdaptiveStep>>,
}

fn core_pass(inputs: &Inputs, tr: &mut Tracer, order: &[(usize, usize)]) -> CorePass {
    let pass = tr.open("core.pass", 0);
    let mut out = CorePass {
        steps: vec![Vec::new(); inputs.sessions.len()],
        ..CorePass::default()
    };
    let mut parts: Vec<_> = inputs.sessions.iter().map(|s| s.parts()).collect();
    let mut scratch = DeadlineScratch::new();
    for &(i, k) in order {
        let s = &inputs.sessions[i];
        let (logger, det) = &mut parts[i];
        let id = tick_id(i, k);
        if let Some(r) = s.recal_at(k) {
            let (res, ns) = tr.time("core.recal", pass, id, || {
                det.recalibrate(logger, &r.a, &r.b)
            });
            res.expect("generated recalibration must be valid");
            out.recal_ns.push(ns);
        }
        let tick = s.tick(k);
        let (estimate, input) = (
            Vector::from_slice(&tick.estimate),
            Vector::from_slice(&tick.input),
        );
        let ((), ns) = tr.time("core.log", pass, id, || {
            logger.record(estimate, input);
        });
        out.log_ns.push(ns);

        let trusted = logger
            .trusted_entry(det.previous_window())
            .expect("a tick was just recorded")
            .estimate
            .clone();
        let r0 = det.initial_radius();
        let estimator = det.estimator();
        let (deadline, q_ns) = tr.time("reach.query", pass, id, || {
            estimator.checked_deadline_with(&trusted, r0, &mut scratch)
        });
        let horizon = estimator.config().max_steps();
        out.walk_steps
            .push(match deadline.expect("dimensions match") {
                Deadline::Within(t) => (t + 1).min(horizon) as f64,
                Deadline::Beyond => horizon as f64,
            });
        out.query_ns.push(q_ns);

        let before = det.deadline_cache_stats();
        let (step, ns) = tr.time("core.step", pass, id, || det.step(logger));
        out.step_ns.push(ns);
        let walked = match (before, det.deadline_cache_stats()) {
            (Some(b), Some(a)) => {
                out.cache_hits += a.hits - b.hits;
                out.cache_misses += a.misses - b.misses;
                a.misses > b.misses
            }
            _ => true,
        };
        out.reach_in_step_ns.push(if walked { q_ns } else { 0.0 });
        if k % 16 == 15 {
            let (_, ns) = tr.time("core.snapshot", pass, id, || det.snapshot(logger));
            out.snapshot_ns.push(ns);
        }
        out.steps[i].push(step);
    }
    tr.close(pass);
    out
}

/// Steps every group of batch-compatible sessions through
/// `BatchPlan::step_group`, position by position (up to each
/// session's recalibration, which changes its group). Returns the
/// per-lane costs and the lanes whose outcome differs from direct
/// stepping.
#[allow(clippy::needless_range_loop)] // `k` indexes traces and outcomes alike
fn batch_lane_pass(
    inputs: &Inputs,
    tr: &mut Tracer,
    direct: &[Vec<AdaptiveStep>],
) -> (Vec<f64>, u64) {
    let pass = tr.open("core.batch_pass", 0);
    let mut parts: Vec<_> = inputs.sessions.iter().map(|s| s.parts()).collect();
    let mut groups: BTreeMap<(u64, usize, u64), Vec<usize>> = BTreeMap::new();
    for (i, (_, det)) in parts.iter().enumerate() {
        if det.batch_supported() {
            let key = (
                det.estimator().fingerprint(),
                det.estimator().state_dim(),
                det.initial_radius().to_bits(),
            );
            groups.entry(key).or_default().push(i);
        }
    }
    let limit = |i: usize| {
        let s = &inputs.sessions[i];
        s.recal
            .as_ref()
            .map_or(s.trace.len(), |r| r.at.min(s.trace.len()))
    };
    let mut plan = BatchPlan::new();
    let mut out = Vec::new();
    let mut lane_ns = Vec::new();
    let mut mismatched = 0;
    for members in groups.values() {
        let longest = members.iter().map(|&i| limit(i)).max().unwrap_or(0);
        for k in 0..longest {
            let active: Vec<usize> = members.iter().copied().filter(|&i| k < limit(i)).collect();
            for &i in &active {
                let tick = inputs.sessions[i].tick(k);
                parts[i].0.record(
                    Vector::from_slice(&tick.estimate),
                    Vector::from_slice(&tick.input),
                );
            }
            let mut lanes: Vec<BatchLane<'_>> = parts
                .iter_mut()
                .enumerate()
                .filter(|(i, _)| active.contains(i))
                .map(|(_, (logger, detector))| BatchLane {
                    logger: &*logger,
                    detector,
                })
                .collect();
            out.clear();
            let ((), ns) = tr.time("core.batch_group", pass, tick_id(active[0], k), || {
                plan.step_group(&mut lanes, &mut out)
            });
            lane_ns.push(ns / active.len() as f64);
            for (&i, step) in active.iter().zip(&out) {
                mismatched += u64::from(direct[i][k] != *step);
            }
        }
    }
    tr.close(pass);
    (lane_ns, mismatched)
}

fn wire_outcome(seq: usize, step: &AdaptiveStep) -> WireOutcome {
    WireOutcome {
        seq: seq as u64,
        degraded: false,
        step: step.step as u64,
        deadline: step.deadline.steps().map(|s| s as u64),
        window: step.window as u64,
        previous_window: step.previous_window as u64,
        current_alarm: step.current_alarm,
        complementary_alarms: step
            .complementary_alarms
            .iter()
            .map(|&s| s as u64)
            .collect(),
    }
}

/// Codec costs in nanoseconds: per request/reply pair of 1-tick
/// frames and of `BATCH`-tick frames.
#[derive(Debug, Default)]
struct WirePass {
    encode_tick_ns: Vec<f64>,
    decode_tick_ns: Vec<f64>,
    encode_batch_ns: Vec<f64>,
    decode_batch_ns: Vec<f64>,
    bytes_per_tick: Vec<f64>,
    batch_ticks: Vec<f64>,
    mismatched: u64,
}

fn codec_pair(tr: &mut Tracer, pass: u32, id: u64, frames: [&Frame; 2]) -> (f64, f64, usize, bool) {
    let (mut enc, mut dec, mut bytes, mut same) = (0.0, 0.0, 0, true);
    for frame in frames {
        let (payload, e) = tr.time("wire.encode", pass, id, || frame.encode_with_corr(Some(id)));
        let (decoded, d) = tr.time("wire.decode", pass, id, || {
            Frame::decode_enveloped(&payload)
        });
        enc += e;
        dec += d;
        bytes += payload.len() + 4;
        same &= decoded.is_ok_and(|env| env.frame == *frame && env.corr == Some(id));
    }
    (enc, dec, bytes, same)
}

fn wire_pass(
    inputs: &Inputs,
    tr: &mut Tracer,
    order: &[(usize, usize)],
    direct: &[Vec<AdaptiveStep>],
) -> WirePass {
    let pass = tr.open("wire.pass", 0);
    let mut out = WirePass::default();
    for &(i, k) in order {
        let request = Frame::Tick {
            session: i as u64,
            ticks: vec![inputs.sessions[i].tick(k).clone()],
        };
        let reply = Frame::TickOutcomes {
            session: i as u64,
            outcomes: vec![wire_outcome(k, &direct[i][k])],
        };
        let (e, d, bytes, same) = codec_pair(tr, pass, tick_id(i, k), [&request, &reply]);
        out.encode_tick_ns.push(e);
        out.decode_tick_ns.push(d);
        out.bytes_per_tick.push(bytes as f64);
        out.mismatched += u64::from(!same);
    }
    for (i, s) in inputs.sessions.iter().enumerate() {
        for start in (0..s.trace.len()).step_by(BATCH) {
            let end = (start + BATCH).min(s.trace.len());
            let request = Frame::Tick {
                session: i as u64,
                ticks: s.trace[start..end].to_vec(),
            };
            let reply = Frame::TickOutcomes {
                session: i as u64,
                outcomes: (start..end)
                    .map(|k| wire_outcome(k, &direct[i][k]))
                    .collect(),
            };
            let (e, d, _, same) = codec_pair(tr, pass, tick_id(i, start), [&request, &reply]);
            out.encode_batch_ns.push(e);
            out.decode_batch_ns.push(d);
            out.batch_ticks.push((end - start) as f64);
            out.mismatched += u64::from(!same);
        }
    }
    tr.close(pass);
    out
}

/// One request of a chain pass: ticks `start..end` of session `i`.
#[derive(Debug, Clone, Copy)]
struct Unit {
    i: usize,
    start: usize,
    end: usize,
}

impl Unit {
    fn ticks(&self) -> usize {
        self.end - self.start
    }
}

/// One tick per request, in [`tick_order`].
fn tick_units(order: &[(usize, usize)]) -> Vec<Unit> {
    order
        .iter()
        .map(|&(i, k)| Unit {
            i,
            start: k,
            end: k + 1,
        })
        .collect()
}

/// `BATCH`-tick requests over one pass of every trace, split at the
/// recalibration, sessions interleaved batch by batch.
fn batch_units(inputs: &Inputs) -> Vec<Unit> {
    let mut per_session: Vec<Vec<Unit>> = inputs
        .sessions
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut units = Vec::new();
            let mut start = 0;
            while start < s.trace.len() {
                let mut end = (start + BATCH).min(s.trace.len());
                if let Some(r) = &s.recal {
                    if r.at > start {
                        end = end.min(r.at);
                    }
                }
                units.push(Unit { i, start, end });
                start = end;
            }
            units.reverse();
            units
        })
        .collect();
    let mut out = Vec::new();
    while per_session.iter().any(|u| !u.is_empty()) {
        out.extend(per_session.iter_mut().filter_map(Vec::pop));
    }
    out
}

/// Time per tick over a pass: total request time over total ticks.
fn per_tick_ns(unit_ns: &[f64], units: &[Unit]) -> f64 {
    unit_ns.iter().sum::<f64>() / units.iter().map(Unit::ticks).sum::<usize>() as f64
}

/// Engine pass with one request in flight: submit the unit's ticks,
/// wait for all of their outcomes. Returns each unit's wait in ns.
fn runtime_pass(
    inputs: &Inputs,
    tr: &mut Tracer,
    units: &[Unit],
    report: &mut RunReport,
) -> Vec<f64> {
    let pass = tr.open("runtime.pass", 0);
    let live = horizon::launch(inputs, engine_config(1, false));
    let mut served = vec![Stream::default(); inputs.sessions.len()];
    let mut wait_ns = Vec::with_capacity(units.len());
    for u in units {
        let s = &inputs.sessions[u.i];
        let (handle, outcomes) = &live.sessions[u.i];
        if let Some(r) = s.recal_at(u.start) {
            report.attempted += 1;
            if handle.recalibrate(&r.a, &r.b).is_err() {
                report.failed += 1;
            }
        }
        report.attempted += u.ticks() as u64;
        let (got, ns) = tr.time("runtime.wait", pass, tick_id(u.i, u.start), || {
            let mut got = Vec::with_capacity(u.ticks());
            for k in u.start..u.end {
                if handle.submit(engine_tick(s.tick(k))).is_err() {
                    return got;
                }
            }
            for _ in u.start..u.end {
                match outcomes.recv_timeout(Duration::from_secs(10)) {
                    Ok(o) => got.push(step_hash(o.seq, &o.step)),
                    Err(_) => break,
                }
            }
            got
        });
        report.failed += (u.ticks() - got.len()) as u64;
        wait_ns.push(ns);
        for h in got {
            served[u.i].push(h);
        }
    }
    drop(live);
    tr.close(pass);
    report.verify(inputs, &served.into_iter().enumerate().collect::<Vec<_>>());
    wait_ns
}

/// What a remote pass measured, per unit in ns.
#[derive(Debug, Default)]
struct RemotePass {
    rtt_ns: Vec<f64>,
    checkpoint_ns: Vec<f64>,
    partial_frame_resumes: u64,
}

/// Streams the units through any server speaking the wire protocol,
/// with the stock blocking `Client`; with `checkpoint`, each request
/// is followed by a `SnapshotSession` round trip, as the cluster
/// router does after every batch.
#[allow(clippy::too_many_arguments)]
fn remote_pass(
    inputs: &Inputs,
    tr: &mut Tracer,
    units: &[Unit],
    addr: std::net::SocketAddr,
    names: [&'static str; 3],
    checkpoint: bool,
    report: &mut RunReport,
) -> RemotePass {
    let [pass_name, rtt_name, checkpoint_name] = names;
    let pass = tr.open(pass_name, 0);
    let mut out = RemotePass::default();
    let mut served = vec![Stream::default(); inputs.sessions.len()];
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(_) => {
            report.attempted += 1;
            report.failed += 1;
            return out;
        }
    };
    let _ = client.set_reply_timeout(Some(Duration::from_secs(10)));
    let mut ids = Vec::new();
    for s in &inputs.sessions {
        report.attempted += 1;
        match client.open_session(&s.spec) {
            Ok(session) => ids.push(session.id),
            Err(_) => {
                report.failed += 1;
                return out;
            }
        }
    }
    for u in units {
        let s = &inputs.sessions[u.i];
        let id = tick_id(u.i, u.start);
        if let Some(r) = s.recal_at(u.start) {
            let (n, m) = r.b.shape();
            report.attempted += 1;
            if client
                .recalibrate(ids[u.i], n as u32, m as u32, r.a.as_slice(), r.b.as_slice())
                .is_err()
            {
                report.failed += 1;
            }
        }
        report.attempted += u.ticks() as u64;
        let batch: Vec<_> = (u.start..u.end).map(|k| s.tick(k).clone()).collect();
        let (got, ns) = tr.time(rtt_name, pass, id, || match batch.as_slice() {
            [one] => client
                .tick(ids[u.i], &one.estimate, &one.input)
                .map(|o| vec![o]),
            many => client.tick_batch(ids[u.i], many),
        });
        match got {
            Ok(outcomes) => {
                out.rtt_ns.push(ns);
                for o in &outcomes {
                    served[u.i].push(wire_hash(o));
                }
            }
            Err(_) => report.failed += u.ticks() as u64,
        }
        if checkpoint {
            report.attempted += 1;
            let (snap, ns) = tr.time(checkpoint_name, pass, id, || {
                client.snapshot_session(ids[u.i])
            });
            match snap {
                Ok(_) => out.checkpoint_ns.push(ns),
                Err(_) => report.failed += 1,
            }
        }
    }
    tr.close(pass);
    report.verify(inputs, &served.into_iter().enumerate().collect::<Vec<_>>());
    out
}

/// A remote pass against a fresh blocking `Server`.
fn serve_pass(
    inputs: &Inputs,
    tr: &mut Tracer,
    units: &[Unit],
    checkpoint: bool,
    report: &mut RunReport,
) -> RemotePass {
    match Server::bind("127.0.0.1:0", drift::server_config(inputs.sessions.len())) {
        Ok(server) => {
            let names = ["serve.pass", "serve.rtt", "serve.checkpoint"];
            let pass = remote_pass(
                inputs,
                tr,
                units,
                server.local_addr(),
                names,
                checkpoint,
                report,
            );
            server.shutdown();
            pass
        }
        Err(_) => {
            report.attempted += 1;
            report.failed += 1;
            RemotePass::default()
        }
    }
}

/// A remote pass against a fresh epoll `NetServer` (one connection
/// holds every session).
fn net_pass(
    inputs: &Inputs,
    tr: &mut Tracer,
    units: &[Unit],
    report: &mut RunReport,
) -> RemotePass {
    let cfg = fleet::server_config(inputs.sessions.len() * fleet::CONNECTIONS);
    match NetServer::bind("127.0.0.1:0", cfg) {
        Ok(server) => {
            let names = ["net.pass", "net.rtt", "net.checkpoint"];
            let mut pass =
                remote_pass(inputs, tr, units, server.local_addr(), names, false, report);
            pass.partial_frame_resumes = server.partial_frame_resumes();
            server.shutdown();
            pass
        }
        Err(_) => {
            report.attempted += 1;
            report.failed += 1;
            RemotePass::default()
        }
    }
}

/// What the cluster pass measured.
#[derive(Debug, Default)]
struct ClusterPass {
    batch_rtt_ns: Vec<f64>,
    lag_hwm: u64,
    replicated: u64,
}

/// Streams the units through a fresh replicated 2-shard cluster.
fn cluster_pass(
    inputs: &Inputs,
    tr: &mut Tracer,
    units: &[Unit],
    report: &mut RunReport,
) -> ClusterPass {
    let pass = tr.open("cluster.pass", 0);
    let mut out = ClusterPass::default();
    let mut live = match drift::launch(inputs) {
        Ok(l) => l,
        Err(_) => {
            report.attempted += 1;
            report.failed += 1;
            return out;
        }
    };
    report.attempted += inputs.sessions.len() as u64;
    for u in units {
        let s = &inputs.sessions[u.i];
        let inst = &mut live.instances[u.i];
        if let Some(r) = s.recal_at(u.start) {
            let (n, m) = r.b.shape();
            report.attempted += 1;
            if live
                .client
                .recalibrate(inst.key, n as u32, m as u32, r.a.as_slice(), r.b.as_slice())
                .is_err()
            {
                report.failed += 1;
            }
        }
        let batch: Vec<_> = (u.start..u.end).map(|k| s.tick(k).clone()).collect();
        report.attempted += u.ticks() as u64;
        let client = &mut live.client;
        let (got, ns) = tr.time("cluster.batch_rtt", pass, tick_id(u.i, u.start), || {
            client.tick_batch(inst.key, &batch)
        });
        match got {
            Ok(outcomes) => {
                out.batch_rtt_ns.push(ns);
                for o in &outcomes {
                    inst.served.push(wire_hash(o));
                }
            }
            Err(_) => report.failed += u.ticks() as u64,
        }
    }
    for shard in 0..SHARDS as u32 {
        if let Some(m) = live.cluster.engine_metrics(shard) {
            out.lag_hwm = out.lag_hwm.max(m.replication_lag_hwm);
            out.replicated += m.sessions_replicated;
        }
    }
    let served: Vec<_> = live
        .instances
        .iter_mut()
        .map(|inst| (inst.idx, std::mem::take(&mut inst.served)))
        .collect();
    let drift::Live { cluster, .. } = live;
    cluster.shutdown();
    tr.close(pass);
    report.verify(inputs, &served);
    out
}

/// The traced run for one workload's inputs.
pub fn run(inputs: &Inputs, settings: &Settings) -> RunReport {
    let mut report = RunReport::default();
    let mut tr = Tracer::new(true);
    let order = tick_order(inputs);
    let ticks = tick_units(&order);
    let batches = batch_units(inputs);
    let throughput_s = (settings.seconds * THROUGHPUT_SHARE).max(0.2);

    // reach: estimator construction per session.
    let build = tr.open("reach.build_pass", 0);
    let mut build_ns = Vec::new();
    for (i, s) in inputs.sessions.iter().enumerate() {
        let (logger, det) = s.parts();
        let config = det.estimator().config().clone();
        let (a, b) = (logger.system().a(), logger.system().b());
        let (est, ns) = tr.time("reach.build", build, tick_id(i, 0), || {
            DeadlineEstimator::new(a, b, config)
        });
        est.expect("generated plants build");
        build_ns.push(ns);
    }
    tr.close(build);

    // reach + core, scalar; then BatchPlan lanes; then the codec.
    let core = core_pass(inputs, &mut tr, &order);
    let (lane_ns, lane_mismatched) = batch_lane_pass(inputs, &mut tr, &core.steps);
    report.checked += lane_ns.len() as u64;
    report.mismatched += lane_mismatched;
    let wire = wire_pass(inputs, &mut tr, &order, &core.steps);
    report.mismatched += wire.mismatched;

    // One request in flight through each layer in turn.
    let wait = runtime_pass(inputs, &mut tr, &ticks, &mut report);
    let serve = serve_pass(inputs, &mut tr, &ticks, false, &mut report);
    let net = net_pass(inputs, &mut tr, &ticks, &mut report);
    let serve_batch = serve_pass(inputs, &mut tr, &batches, true, &mut report);
    let cluster = cluster_pass(inputs, &mut tr, &batches, &mut report);

    // The workload's outermost path again, alternating untraced and
    // traced, for the ledger's end-to-end cost.
    let mut main_pass = |traced: bool, report: &mut RunReport| -> f64 {
        let mut off = Tracer::new(false);
        let t = if traced { &mut tr } else { &mut off };
        match inputs.workload {
            Workload::FleetOpen => per_tick_ns(&net_pass(inputs, t, &ticks, report).rtt_ns, &ticks),
            Workload::HorizonBatch => per_tick_ns(&runtime_pass(inputs, t, &ticks, report), &ticks),
            Workload::ClusterDrift => per_tick_ns(
                &cluster_pass(inputs, t, &batches, report).batch_rtt_ns,
                &batches,
            ),
        }
    };
    let untraced_a = main_pass(false, &mut report);
    let traced_b = main_pass(true, &mut report);
    let untraced_c = main_pass(false, &mut report);
    let runtime_batch = (inputs.workload == Workload::ClusterDrift)
        .then(|| runtime_pass(inputs, &mut tr, &batches, &mut report));

    // Closed-loop engine throughput: scalar 1 and 2 workers, batched
    // 1 worker, and the workload's own configuration untraced/traced.
    let engine_pass = |workers: usize, batch: bool, traced: bool, report: &mut RunReport| {
        let mut live = horizon::launch(inputs, engine_config(workers, batch));
        let drive = closed_loop(&mut live, inputs, throughput_s, traced);
        report.attempted += drive.ticks + drive.failed;
        report.failed += drive.failed;
        report.verify(inputs, &drive.served);
        drive
    };
    let own_batch = inputs.workload == Workload::HorizonBatch;
    let scalar_1w = engine_pass(1, false, false, &mut report);
    let scalar_2w = engine_pass(2, false, false, &mut report);
    let batch_1w = engine_pass(1, true, false, &mut report);
    let traced_1 = engine_pass(1, own_batch, true, &mut report);
    let untraced_2 = engine_pass(1, own_batch, false, &mut report);
    let traced_2 = engine_pass(1, own_batch, true, &mut report);
    let untraced_rate = (if own_batch { &batch_1w } else { &scalar_1w }).rate() + untraced_2.rate();
    let overhead = untraced_rate / (traced_1.rate() + traced_2.rate()) - 1.0;
    let engines = [
        &scalar_1w,
        &scalar_2w,
        &batch_1w,
        &traced_1,
        &untraced_2,
        &traced_2,
    ];
    let metrics: Vec<_> = engines.iter().filter_map(|d| d.metrics).collect();
    let queue_hwm = metrics
        .iter()
        .map(|m| m.queue_depth_high_water)
        .max()
        .unwrap_or(0);
    let degraded: u64 = metrics.iter().map(|m| m.degraded_ticks).sum();
    let processed: u64 = metrics.iter().map(|m| m.ticks_processed).sum();
    let batch_m = batch_1w.metrics.expect("metrics recorded");
    let mut closed_loop_spans = traced_1.spans;
    closed_loop_spans.extend(traced_2.spans);

    // The ledger, per tick, in µs: each layer's path minus the next
    // inner path on the same ticks.
    let us = |ns: f64| ns / 1e3;
    let reach_us = us(mean(&core.reach_in_step_ns));
    let step_us = us(mean(&core.step_ns));
    let wait_us = us(per_tick_ns(&wait, &ticks));
    let codec_tick_us = us(mean(&wire.encode_tick_ns) + mean(&wire.decode_tick_ns));
    let serve_us = us(per_tick_ns(&serve.rtt_ns, &ticks));
    let net_us = us(per_tick_ns(&net.rtt_ns, &ticks));
    let serve_batch_us = us(per_tick_ns(&serve_batch.rtt_ns, &batches));
    let checkpoint_us = us(per_tick_ns(&serve_batch.checkpoint_ns, &batches));
    let traced_main_us = us(traced_b);
    let e2e_us = us((untraced_a + untraced_c) / 2.0);
    let mut ledger = vec![("reach", reach_us), ("core", step_us - reach_us)];
    match inputs.workload {
        Workload::FleetOpen => {
            ledger.push(("runtime", wait_us - step_us));
            ledger.push(("wire", codec_tick_us));
            ledger.push(("net", traced_main_us - wait_us - codec_tick_us));
        }
        Workload::HorizonBatch => ledger.push(("runtime", traced_main_us - step_us)),
        Workload::ClusterDrift => {
            let runtime_batch_us = us(per_tick_ns(
                &runtime_batch.expect("cluster-drift runs it"),
                &batches,
            ));
            let codec_batch_us =
                us(wire.encode_batch_ns.iter().sum::<f64>()
                    + wire.decode_batch_ns.iter().sum::<f64>())
                    / wire.batch_ticks.iter().sum::<f64>();
            ledger.push(("runtime", runtime_batch_us - step_us));
            ledger.push(("wire", codec_batch_us));
            ledger.push(("serve", serve_batch_us - runtime_batch_us - codec_batch_us));
            ledger.push(("checkpoint", checkpoint_us));
            ledger.push(("cluster", traced_main_us - serve_batch_us - checkpoint_us));
        }
    }
    let sum_us: f64 = ledger.iter().map(|(_, v)| v).sum();
    let gap = sum_us / e2e_us - 1.0;
    for (layer, v) in &ledger {
        report.note(format!(
            "ledger {layer:<10} {v:>10.3} us/tick {:>7.1}% of end-to-end",
            100.0 * v / e2e_us
        ));
    }
    report.note(format!(
        "ledger sum {sum_us:.3} us/tick vs untraced end-to-end {e2e_us:.3} us/tick: {}",
        if gap.abs() <= 0.10 {
            "closes within 10%".to_string()
        } else {
            format!("gap {:+.1}% named as ledger.gap_ratio", 100.0 * gap)
        }
    ));

    let p = |v: &[f64], q: f64| quantile(v, q) / 1e3;
    report.metric("reach.query_ns", mean(&core.query_ns), "ns");
    report.metric("reach.walk_steps", mean(&core.walk_steps), "count");
    report.metric(
        "reach.cache_hit_ratio",
        ratio(
            core.cache_hits as f64,
            (core.cache_hits + core.cache_misses) as f64,
        ),
        "ratio",
    );
    report.metric("reach.build_us", us(mean(&build_ns)), "us");
    report.metric("core.step_ns", mean(&core.step_ns), "ns");
    report.metric("core.self_ns", (step_us - reach_us) * 1e3, "ns");
    report.metric("core.batch_lane_ns", mean(&lane_ns), "ns");
    report.metric("core.log_ns", mean(&core.log_ns), "ns");
    report.metric("core.snapshot_us", us(mean(&core.snapshot_ns)), "us");
    let recal_us = if core.recal_ns.is_empty() {
        0.0
    } else {
        us(mean(&core.recal_ns))
    };
    report.metric("core.recal_us", recal_us, "us");
    report.metric("runtime.wait_us.p50", p(&wait, 0.5), "us");
    report.metric("runtime.wait_us.p99", p(&wait, 0.99), "us");
    report.metric("runtime.self_us", wait_us - step_us, "us");
    report.metric("runtime.scalar_ticks_per_s", scalar_1w.rate(), "1/s");
    report.metric("runtime.batch_ticks_per_s", batch_1w.rate(), "1/s");
    report.metric(
        "runtime.fallback_ratio",
        ratio(
            batch_m.scalar_fallback_ticks as f64,
            batch_m.batch_ticks as f64,
        ),
        "ratio",
    );
    report.metric(
        "runtime.scaling_2w",
        scalar_2w.rate() / (2.0 * scalar_1w.rate()),
        "ratio",
    );
    report.metric("runtime.queue_hwm", queue_hwm as f64, "count");
    report.metric(
        "runtime.degraded_ratio",
        ratio(degraded as f64, processed as f64),
        "ratio",
    );
    report.metric("wire.encode_ns.tick", mean(&wire.encode_tick_ns), "ns");
    report.metric("wire.decode_ns.tick", mean(&wire.decode_tick_ns), "ns");
    report.metric("wire.encode_ns.batch", mean(&wire.encode_batch_ns), "ns");
    report.metric("wire.decode_ns.batch", mean(&wire.decode_batch_ns), "ns");
    report.metric("wire.bytes_per_tick", mean(&wire.bytes_per_tick), "B");
    report.metric("serve.rtt_us", serve_us, "us");
    report.metric("serve.self_us", serve_us - wait_us - codec_tick_us, "us");
    report.metric("serve.batch_rtt_us", us(mean(&serve_batch.rtt_ns)), "us");
    report.metric("net.rtt_us.p50", p(&net.rtt_ns, 0.5), "us");
    report.metric("net.rtt_us.p99", p(&net.rtt_ns, 0.99), "us");
    report.metric("net.self_us", net_us - wait_us - codec_tick_us, "us");
    report.metric(
        "net.partial_frame_resumes",
        net.partial_frame_resumes as f64,
        "count",
    );
    report.metric(
        "cluster.batch_rtt_us",
        us(mean(&cluster.batch_rtt_ns)),
        "us",
    );
    report.metric(
        "cluster.self_us",
        us(mean(&cluster.batch_rtt_ns)
            - mean(&serve_batch.rtt_ns)
            - mean(&serve_batch.checkpoint_ns)),
        "us",
    );
    report.metric(
        "cluster.checkpoint_us",
        us(mean(&serve_batch.checkpoint_ns)),
        "us",
    );
    report.metric(
        "cluster.replication_lag_hwm",
        cluster.lag_hwm as f64,
        "count",
    );
    report.metric(
        "cluster.replicated_per_batch",
        ratio(cluster.replicated as f64, cluster.batch_rtt_ns.len() as f64),
        "ratio",
    );
    report.metric("ledger.e2e_us", e2e_us, "us");
    report.metric("ledger.sum_us", sum_us, "us");
    report.metric("ledger.gap_ratio", gap, "ratio");
    report.metric("trace.overhead_ratio", overhead, "ratio");

    report.spans = tr.into_spans();
    report.spans.append(&mut closed_loop_spans);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Scale;

    #[test]
    fn batch_units_cover_each_tick_once_and_split_at_the_recalibration() {
        let inputs = Inputs::generate(Workload::ClusterDrift, 4, Scale::Smoke);
        let units = batch_units(&inputs);
        for (i, s) in inputs.sessions.iter().enumerate() {
            let mine: Vec<&Unit> = units.iter().filter(|u| u.i == i).collect();
            let mut next = 0;
            for u in &mine {
                assert_eq!(u.start, next, "units run in trace order without gaps");
                assert!(u.ticks() >= 1 && u.ticks() <= BATCH);
                next = u.end;
            }
            assert_eq!(next, s.trace.len());
            if let Some(r) = &s.recal {
                if r.at < s.trace.len() {
                    assert!(
                        mine.iter().any(|u| u.start == r.at),
                        "a unit starts at the swap"
                    );
                }
            }
        }
    }

    #[test]
    fn tick_order_visits_every_tick_once() {
        let inputs = Inputs::generate(Workload::FleetOpen, 1, Scale::Smoke);
        let order = tick_order(&inputs);
        assert_eq!(order.len(), inputs.pass_ticks());
        let mut seen = std::collections::BTreeSet::new();
        assert!(order.iter().all(|t| seen.insert(*t)));
    }
}
