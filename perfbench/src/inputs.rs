//! Seeded input generation. Every workload derives its sessions from
//! `(workload, seed, scale)` alone; the program under test only ever
//! sees the generated specs and tick streams.

use awsad_core::{AdaptiveDetector, DataLogger};
use awsad_linalg::{Matrix, Vector};
use awsad_models::Simulator;
use awsad_serve::server::session_parts_for_spec;
use awsad_serve::wire::{SessionSpec, WireTick};
use awsad_sim::{run_episode, sample_attack, AttackKind, EpisodeConfig};
use awsad_testkit::{Scenario, SeedSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{step_hash, Digest, Stream};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop fleet of registry sessions over the epoll server.
    FleetOpen,
    /// Closed-loop long-horizon quadrotor sessions in a batching engine.
    HorizonBatch,
    /// Closed-loop drift sessions through a replicated 2-shard cluster.
    ClusterDrift,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetOpen,
        Workload::HorizonBatch,
        Workload::ClusterDrift,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetOpen => "fleet-open",
            Workload::HorizonBatch => "horizon-batch",
            Workload::ClusterDrift => "cluster-drift",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size: the full benchmark or the reduced self-test scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured configuration.
    Full,
    /// A few sessions, for the self-test.
    Smoke,
}

/// Sessions per workload at each scale.
fn session_count(workload: Workload, scale: Scale) -> usize {
    match (workload, scale) {
        (Workload::FleetOpen, Scale::Full) => 256,
        (Workload::HorizonBatch, Scale::Full) => 32,
        (Workload::ClusterDrift, Scale::Full) => 60,
        (Workload::HorizonBatch, Scale::Smoke) => 8,
        (_, Scale::Smoke) => 10,
    }
}

/// The quadrotor's maximum window on `horizon-batch`: the top of the
/// paper's Fig. 7 range.
pub const HORIZON_MAX_WINDOW: u32 = 100;
/// Length of each `horizon-batch` closed-loop trace.
const HORIZON_TRACE_LEN: usize = 240;

/// A mid-stream model swap: before tick `at`, recalibrate to `(a, b)`.
#[derive(Debug, Clone)]
pub struct Recal {
    /// Tick index the swap happens before.
    pub at: usize,
    /// Drifted state matrix.
    pub a: Matrix,
    /// Drifted input matrix.
    pub b: Matrix,
}

/// One generated session: what to open and what to stream into it.
#[derive(Debug, Clone)]
pub struct SessionInput {
    /// Seed string or description of the generator draw.
    pub label: String,
    /// The wire spec the session is opened with.
    pub spec: SessionSpec,
    /// One pass of the session's `(estimate, input)` stream.
    pub trace: Vec<WireTick>,
    /// The mid-stream recalibration, applied on the first pass only.
    pub recal: Option<Recal>,
}

impl SessionInput {
    /// The logger/detector pair the server builds for this spec.
    pub fn parts(&self) -> (DataLogger, AdaptiveDetector) {
        let (logger, detector, _, _) =
            session_parts_for_spec(&self.spec).expect("generated spec must be buildable");
        (logger, detector)
    }

    /// The `k`-th tick of the session's stream: the trace repeats.
    pub fn tick(&self, k: usize) -> &WireTick {
        &self.trace[k % self.trace.len()]
    }

    /// The recalibration due before tick `k`, if any.
    pub fn recal_at(&self, k: usize) -> Option<&Recal> {
        self.recal.as_ref().filter(|r| r.at == k)
    }

    /// Direct stepping over the first `max(counts)` ticks: the
    /// [`Stream`] digest after each of `counts` (ascending) outcomes,
    /// plus the number of alarming steps.
    pub fn reference(&self, counts: &[usize]) -> (Vec<Digest>, u64) {
        let (mut logger, mut detector) = self.parts();
        let mut stream = Stream::default();
        let mut digests = Vec::with_capacity(counts.len());
        let mut wanted = counts.iter().peekable();
        let mut alarms = 0;
        while wanted.peek() == Some(&&0) {
            digests.push(stream.digest);
            wanted.next();
        }
        let last = counts.last().copied().unwrap_or(0);
        for k in 0..last {
            if let Some(r) = self.recal_at(k) {
                detector
                    .recalibrate(&mut logger, &r.a, &r.b)
                    .expect("generated recalibration must be valid");
            }
            let tick = self.tick(k);
            logger.record(
                Vector::from_slice(&tick.estimate),
                Vector::from_slice(&tick.input),
            );
            let step = detector.step(&logger);
            alarms += u64::from(step.alarm());
            stream.push(step_hash(k as u64, &step));
            while wanted.peek() == Some(&&(k + 1)) {
                digests.push(stream.digest);
                wanted.next();
            }
        }
        (digests, alarms)
    }
}

/// A workload's complete generated input.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload these inputs drive.
    pub workload: Workload,
    /// The generated sessions.
    pub sessions: Vec<SessionInput>,
}

impl Inputs {
    /// Generates the inputs for `(workload, seed, scale)`.
    pub fn generate(workload: Workload, seed: u64, scale: Scale) -> Inputs {
        let count = session_count(workload, scale);
        let sessions = (0..count)
            .map(|i| match workload {
                Workload::FleetOpen => stratified(seed, i, SeedSpec::registry),
                Workload::HorizonBatch => horizon_session(splitmix(seed ^ splitmix(i as u64 + 1))),
                Workload::ClusterDrift => stratified(seed, i, SeedSpec::drift),
            })
            .collect();
        Inputs { workload, sessions }
    }

    /// Digest over every generated spec, tick and recalibration.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for s in &self.sessions {
            d.bytes(s.label.as_bytes());
            d.u64(u64::from(s.spec.model));
            d.u64(u64::from(s.spec.max_window));
            d.u64(u64::from(s.spec.min_window));
            d.f64s(&s.spec.threshold);
            d.u64(u64::from(s.spec.cache_capacity));
            d.f64s(&s.spec.output_map);
            d.u64(s.trace.len() as u64);
            for t in &s.trace {
                d.tick(t);
            }
            if let Some(r) = &s.recal {
                d.u64(r.at as u64);
                d.f64s(r.a.as_slice());
                d.f64s(r.b.as_slice());
            }
        }
        d.0
    }

    /// Digest and alarm count of direct stepping over one pass of
    /// every session's trace — the reference every served stream is
    /// checked against, and a fixed quantity for a given seed.
    pub fn reference_digest(&self) -> (u64, u64) {
        let mut d = Digest::default();
        let mut alarms = 0;
        for s in &self.sessions {
            let (digests, a) = s.reference(&[s.trace.len()]);
            d.u64(digests[0].0);
            alarms += a;
        }
        (d.0, alarms)
    }

    /// Total ticks in one pass over every session's trace.
    pub fn pass_ticks(&self) -> usize {
        self.sessions.iter().map(|s| s.trace.len()).sum()
    }
}

/// SplitMix64 finalizer: decorrelates per-session seeds.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The deadline-cache capacities testkit scenarios draw from.
const CACHE_CLASSES: [u32; 3] = [0, 64, 1024];

/// Session `i` of a testkit-family workload, stratified by plant and
/// deadline cache: session `i` runs Table 1 row `i mod 5 + 1` with
/// cache class `(i / 5) mod 3`, drawing sub-seeds in a fixed order
/// until the family's generator picks that pair. Every seed then gets
/// the same plant and cache mix, so the work per tick does not swing
/// with what a seed happens to draw.
fn stratified(seed: u64, i: usize, family: fn(u64) -> SeedSpec) -> SessionInput {
    let plants = Simulator::all().len();
    let row = (i % plants + 1) as u8;
    let cache = CACHE_CLASSES[(i / plants) % CACHE_CLASSES.len()];
    (0u64..)
        .map(|attempt| {
            let sub = splitmix(seed ^ splitmix((i as u64) << 20 | attempt));
            Scenario::from_seed(&family(sub))
        })
        .find(|scenario| {
            scenario
                .spec
                .as_ref()
                .is_some_and(|s| s.model == row && s.cache_capacity == cache)
        })
        .map(from_scenario)
        .expect("every plant is drawn eventually")
}

fn from_scenario(scenario: Scenario) -> SessionInput {
    let seed = scenario.seed;
    SessionInput {
        label: seed.to_string(),
        spec: scenario
            .spec
            .clone()
            .expect("registry and drift scenarios are wire-capable"),
        trace: scenario.trace.clone(),
        recal: scenario.recalibration.as_ref().map(|r| Recal {
            at: r.at.min(scenario.trace.len()),
            a: r.a.clone(),
            b: r.b.clone(),
        }),
    }
}

/// A quadrotor session at `w_m = 100` without a deadline cache: a
/// seeded closed-loop episode with a bias attack starting mid-trace.
fn horizon_session(seed: u64) -> SessionInput {
    let sim = Simulator::Quadrotor;
    let model = sim.build();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sampled = sample_attack(&model, AttackKind::Bias, &mut rng);
    let cfg = EpisodeConfig {
        steps: HORIZON_TRACE_LEN,
        max_window: HORIZON_MAX_WINDOW as usize,
        fixed_window: HORIZON_MAX_WINDOW as usize,
        ..EpisodeConfig::for_model(&model)
    };
    let episode = run_episode(
        &model,
        sampled.attack.as_mut(),
        Some(sampled.reference.clone()),
        &cfg,
        seed,
    );
    let trace = episode
        .estimates
        .iter()
        .zip(&episode.inputs)
        .map(|(x, u)| WireTick {
            estimate: x.as_slice().to_vec(),
            input: u.as_slice().to_vec(),
        })
        .collect();
    let spec = SessionSpec {
        max_window: HORIZON_MAX_WINDOW,
        ..SessionSpec::model_defaults(sim.table1_row() as u8)
    };
    SessionInput {
        label: format!(
            "quadrotor w_m={HORIZON_MAX_WINDOW} bias onset {:?} seed {seed:016x}",
            sampled.onset
        ),
        spec,
        trace,
        recal: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_reference() {
        for workload in Workload::ALL {
            let a = Inputs::generate(workload, 5, Scale::Smoke);
            let b = Inputs::generate(workload, 5, Scale::Smoke);
            assert_eq!(a.digest(), b.digest(), "{}", workload.name());
            assert_eq!(a.reference_digest(), b.reference_digest());
            assert_ne!(
                a.digest(),
                Inputs::generate(workload, 6, Scale::Smoke).digest()
            );
        }
    }

    #[test]
    fn stratified_sessions_cycle_plants_and_caches() {
        let inputs = Inputs::generate(Workload::FleetOpen, 3, Scale::Smoke);
        for (i, s) in inputs.sessions.iter().enumerate() {
            assert_eq!(s.spec.model as usize, i % 5 + 1);
            assert_eq!(s.spec.cache_capacity, CACHE_CLASSES[(i / 5) % 3]);
        }
    }

    #[test]
    fn reference_prefix_digests_match_a_longer_run() {
        let inputs = Inputs::generate(Workload::ClusterDrift, 2, Scale::Smoke);
        let s = &inputs.sessions[0];
        let n = s.trace.len();
        let (prefixes, _) = s.reference(&[0, n / 2, n]);
        assert_eq!(prefixes[0], Stream::default().digest);
        assert_eq!(prefixes[1], s.reference(&[n / 2]).0[0]);
        assert_eq!(prefixes[2], s.reference(&[n]).0[0]);
        assert_ne!(prefixes[1], prefixes[2]);
    }
}
