//! Cross-session batched stepping.
//!
//! [`BatchPlan`] steps a *group* of detection sessions one tick at a
//! time. Per lane it runs the same step phases
//! [`AdaptiveDetector::step`] is composed of — deadline resolution,
//! window adjustment with complementary detection, the current-window
//! check, finalization — and swaps in only two shared kernels: every
//! lane that needs a fresh deadline is answered by **one** batched
//! reachability walk
//! ([`awsad_reach::DeadlineEstimator::deadline_batch_refs_with`]), and
//! every lane's current-window mean is evaluated by **one**
//! structure-of-arrays kernel call
//! ([`awsad_linalg::kernels::soa::window_mean_lanes`]). Each kernel
//! column reproduces the scalar walk or window mean with the same f64
//! operations in the same order, so the produced [`AdaptiveStep`]
//! stream — and the deadline-cache statistics — are bit-identical to
//! stepping each session alone.
//!
//! # Grouping contract
//!
//! A group must be homogeneous where the shared kernels demand it:
//! every lane has the same state dimension, the same initial radius,
//! and estimators running bit-identical walks (equal
//! [`awsad_reach::DeadlineEstimator::fingerprint`]s — in practice,
//! sessions of the same plant model and reach configuration). Lanes
//! whose detector reports [`AdaptiveDetector::batch_supported`] `==
//! false` (quantized deadline caches) and lanes taking a *degraded*
//! step are stepped scalar instead; the runtime's engine routes them
//! to the scalar path and counts them as fallbacks. Thresholds,
//! window bounds, re-estimation periods and cache capacities may all
//! differ per lane — those phases stay per-lane.

use awsad_linalg::kernels::soa::{self, SoaBatch};
use awsad_linalg::Vector;
use awsad_reach::{BatchScratch, Deadline};

use crate::adaptive::DeadlineSource;
use crate::{AdaptiveDetector, AdaptiveStep, DataLogger};

/// One session's view inside a batched step: its logger (with the
/// current tick already recorded) and its detector.
#[derive(Debug)]
pub struct BatchLane<'a> {
    /// The lane's data logger; the caller must have recorded the
    /// current tick's `(estimate, input)` before the batched step.
    pub logger: &'a DataLogger,
    /// The lane's adaptive detector.
    pub detector: &'a mut AdaptiveDetector,
}

/// Reusable buffers and the stepping logic for cross-session batched
/// detection. See the [module docs](self) for the grouping contract
/// and the bit-identity argument.
#[derive(Debug, Default)]
pub struct BatchPlan {
    walk_scratch: BatchScratch,
    walk_deadlines: Vec<Deadline>,
    walk_lanes: Vec<usize>,
    sources: Vec<DeadlineSource>,
    alloc_free: Vec<bool>,
    scalar_mean: Vec<bool>,
    means: SoaBatch,
    offsets: Vec<usize>,
    factors: Vec<f64>,
}

impl BatchPlan {
    /// Creates a plan with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Steps every lane of `lanes` one tick, appending one
    /// [`AdaptiveStep`] per lane (in lane order) to `out`. The results
    /// are bit-identical to calling `lane.detector.step(lane.logger)`
    /// on each lane in isolation, provided the [grouping
    /// contract](self) holds.
    ///
    /// # Panics
    ///
    /// Panics when a lane's logger is empty (record the tick first),
    /// when lanes disagree on state dimension or initial radius, or
    /// when a lane's estimator rejects the batched walk (dimension
    /// mismatch within the group).
    pub fn step_group(&mut self, lanes: &mut [BatchLane<'_>], out: &mut Vec<AdaptiveStep>) {
        let n_lanes = lanes.len();
        if n_lanes == 0 {
            return;
        }

        // Phases 1–2: resolve each lane's deadline source; lanes that
        // need a walk queue up.
        self.sources.clear();
        self.walk_lanes.clear();
        for (j, lane) in lanes.iter_mut().enumerate() {
            let source = lane.detector.resolve_deadline(lane.logger);
            if matches!(source, DeadlineSource::Walk { .. }) {
                self.walk_lanes.push(j);
            }
            self.sources.push(source);
        }

        // One batched reachability walk answers every queued lane.
        // Each column of the walk is bit-identical to the scalar
        // `checked_deadline_with` the lane would have run alone.
        self.walk_deadlines.clear();
        if let Some(&first) = self.walk_lanes.first() {
            let r0 = lanes[first].detector.initial_radius();
            let trusted: Vec<&Vector> = self
                .walk_lanes
                .iter()
                .map(|&j| {
                    let lane = &lanes[j];
                    assert_eq!(
                        lane.detector.initial_radius().to_bits(),
                        r0.to_bits(),
                        "grouped lanes must share the initial radius"
                    );
                    lane.detector.trusted_estimate(lane.logger)
                })
                .collect();
            lanes[first]
                .detector
                .estimator()
                .deadline_batch_refs_with(
                    &trusted,
                    r0,
                    &mut self.walk_scratch,
                    &mut self.walk_deadlines,
                )
                .expect("grouped lanes share the estimator's state dimension");
        }

        // Phases 3–4 per lane: commit walked deadlines, adjust the
        // window and run complementary detection (rare, scalar).
        // `walk_lanes` is ordered, so the walked deadlines realign in
        // lane order.
        self.alloc_free.clear();
        let base = out.len();
        let mut walked = self.walk_deadlines.iter();
        for (lane, &source) in lanes.iter_mut().zip(&self.sources) {
            let det = &mut *lane.detector;
            let (deadline, alloc_free) = match source {
                DeadlineSource::Ready {
                    deadline,
                    alloc_free,
                } => (deadline, alloc_free),
                DeadlineSource::Walk { cache_miss } => {
                    let d = *walked.next().expect("one walked deadline per walk lane");
                    (d, det.commit_walked_deadline(lane.logger, d, cache_miss))
                }
            };
            self.alloc_free.push(alloc_free);
            out.push(det.adjust_window(lane.logger, deadline));
        }

        // Phase 5: one SoA kernel call evaluates every lane's
        // current-window mean; per lane the accumulation order equals
        // `window_mean_into` exactly. Lanes whose window is not fully
        // retained (only possible for hand-built loggers — the
        // detector never outruns retention) fall back to the scalar
        // check.
        let dim = lanes[0].logger.system().state_dim();
        self.means.reset(dim, n_lanes);
        self.offsets.clear();
        self.factors.clear();
        self.scalar_mean.clear();
        self.offsets.push(0);
        let mut entries: Vec<&[f64]> = Vec::new();
        for (lane, step) in lanes.iter().zip(&out[base..]) {
            assert_eq!(
                lane.logger.system().state_dim(),
                dim,
                "grouped lanes must share the state dimension"
            );
            let start = step.step.saturating_sub(step.window);
            let retained = lane
                .logger
                .oldest_step()
                .is_some_and(|first| start >= first);
            if retained {
                for at in start..=step.step {
                    let entry = lane.logger.entry(at).expect("window is retained");
                    entries.push(entry.residual.as_slice());
                }
                // `window_mean_into`'s divisor: entries in the window
                // minus one, at least one.
                self.factors.push(1.0 / (step.step - start).max(1) as f64);
                self.scalar_mean.push(false);
            } else {
                self.factors.push(1.0);
                self.scalar_mean.push(true);
            }
            self.offsets.push(entries.len());
        }
        soa::window_mean_lanes(&entries, &self.offsets, &self.factors, &mut self.means);
        drop(entries);

        // Threshold decisions and finalization.
        for (j, (lane, step)) in lanes.iter_mut().zip(&mut out[base..]).enumerate() {
            step.current_alarm = if self.scalar_mean[j] {
                lane.detector
                    .current_window_alarm(lane.logger, step.step, step.window)
            } else {
                lane.detector.exceeds_mean(self.means.lane(j))
            };
            lane.detector.finalize(step, self.alloc_free[j]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetectorConfig;
    use awsad_linalg::Matrix;
    use awsad_lti::LtiSystem;
    use awsad_reach::{CacheConfig, DeadlineCache, DeadlineEstimator, ReachConfig};
    use awsad_sets::BoxSet;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn rand_unit(state: &mut u64) -> f64 {
        (splitmix(state) >> 11) as f64 / (1u64 << 52) as f64
    }

    /// Integrator plant, |u| <= 1, safe |x| <= 5, horizon 40.
    fn session(
        tau: f64,
        w_m: usize,
        period: usize,
        cache: Option<CacheConfig>,
        r0: f64,
    ) -> (DataLogger, AdaptiveDetector) {
        let sys = LtiSystem::new_discrete_fully_observable(
            Matrix::identity(1),
            Matrix::from_rows(&[&[1.0]]).unwrap(),
            0.02,
        )
        .unwrap();
        let reach = ReachConfig::new(
            BoxSet::from_bounds(&[-1.0], &[1.0]).unwrap(),
            0.0,
            BoxSet::from_bounds(&[-5.0], &[5.0]).unwrap(),
            40,
        )
        .unwrap();
        let est = DeadlineEstimator::new(sys.a(), sys.b(), reach).unwrap();
        let cfg = DetectorConfig::new(Vector::from_slice(&[tau]), w_m).unwrap();
        let logger = DataLogger::new(sys, w_m);
        let mut det = AdaptiveDetector::new(cfg, est).unwrap();
        det.set_initial_radius(r0);
        det.set_reestimation_period(period);
        if let Some(cache) = cache {
            det.set_deadline_cache(DeadlineCache::new(cache));
        }
        (logger, det)
    }

    /// Asserts that every batched-side lane left the same detector
    /// state behind as its scalar twin: the alloc-free flag of the
    /// last step and the full snapshot (window, aged deadline, logger
    /// window). Returns how many lanes reported an alloc-free step.
    fn assert_lane_parity(
        direct: &[(DataLogger, AdaptiveDetector)],
        batched: &[(DataLogger, AdaptiveDetector)],
        t: usize,
    ) -> usize {
        let mut alloc_free = 0;
        for (j, ((dl, dd), (bl, bd))) in direct.iter().zip(batched).enumerate() {
            assert_eq!(
                bd.last_step_was_alloc_free(),
                dd.last_step_was_alloc_free(),
                "tick {t} lane {j} alloc-free flag"
            );
            assert_eq!(
                bd.snapshot(bl),
                dd.snapshot(dl),
                "tick {t} lane {j} snapshot"
            );
            alloc_free += usize::from(dd.last_step_was_alloc_free());
        }
        alloc_free
    }

    /// Drives heterogeneous sessions (mixed thresholds, window bounds,
    /// re-estimation periods, cache configurations, one lane with
    /// complementary detection off) for `ticks` steps twice — once
    /// scalar, once through the plan — and asserts bit-identical step
    /// streams, alloc-free flags, snapshots and cache statistics. A
    /// quantized-cache session rides along on the batched side stepped
    /// scalar next to the group, as the engine routes it.
    fn assert_group_matches_scalar(r0: f64, seed: u64) {
        let n_lanes = 8usize;
        let ticks = 60usize;
        let build = |j: usize| {
            let tau = 0.02 + 0.03 * j as f64;
            let w_m = 6 + 2 * (j % 3);
            let period = 1 + j % 3;
            let cache = match j % 3 {
                _ if j == 7 => Some(CacheConfig::quantized(0.5, 16)),
                0 => None,
                1 => Some(CacheConfig::exact(64)),
                _ => Some(CacheConfig::exact(2)), // tiny: exercises evictions
            };
            let mut pair = session(tau, w_m, period, cache, r0);
            pair.1.set_complementary_enabled(j != 6);
            pair
        };
        let mut direct: Vec<_> = (0..n_lanes).map(build).collect();
        let mut batched: Vec<_> = (0..n_lanes).map(build).collect();
        assert!(!batched[7].1.batch_supported());
        let mut plan = BatchPlan::new();
        let mut state = seed;
        let (mut alloc_free, mut complementary) = (0usize, 0usize);
        for t in 0..ticks {
            // Estimates wander toward the safe boundary so deadlines
            // shrink and complementary detection fires; a few repeats
            // guarantee cache hits.
            let mut xs: Vec<f64> = (0..n_lanes)
                .map(|_| -5.4 + 10.8 * rand_unit(&mut state))
                .collect();
            if t % 5 == 0 {
                xs.iter_mut().for_each(|x| *x = 1.25);
            }
            let mut scalar_steps = Vec::new();
            for (j, (logger, det)) in direct.iter_mut().enumerate() {
                logger.record(Vector::from_slice(&[xs[j]]), Vector::zeros(1));
                scalar_steps.push(det.step(logger));
            }
            let mut batch_steps: Vec<Option<AdaptiveStep>> = vec![None; n_lanes];
            let mut lanes: Vec<BatchLane<'_>> = Vec::new();
            let mut lane_ids = Vec::new();
            for (j, (logger, det)) in batched.iter_mut().enumerate() {
                logger.record(Vector::from_slice(&[xs[j]]), Vector::zeros(1));
                if det.batch_supported() {
                    lane_ids.push(j);
                    lanes.push(BatchLane {
                        logger,
                        detector: det,
                    });
                } else {
                    batch_steps[j] = Some(det.step(logger));
                }
            }
            let mut group_out = Vec::new();
            plan.step_group(&mut lanes, &mut group_out);
            for (k, j) in lane_ids.into_iter().enumerate() {
                batch_steps[j] = Some(group_out[k].clone());
            }
            let batch_steps: Vec<AdaptiveStep> = batch_steps.into_iter().flatten().collect();
            assert_eq!(batch_steps, scalar_steps, "tick {t}");
            alloc_free += assert_lane_parity(&direct, &batched, t);
            complementary += scalar_steps
                .iter()
                .filter(|s| !s.complementary_alarms.is_empty())
                .count();
        }
        for (j, ((_, d), (_, b))) in direct.iter().zip(&batched).enumerate() {
            assert_eq!(
                b.deadline_cache_stats(),
                d.deadline_cache_stats(),
                "lane {j} cache stats"
            );
        }
        // The parity checks must have seen both flag values and the
        // complementary path for the equalities to mean anything.
        assert!(alloc_free > 0 && alloc_free < n_lanes * ticks);
        assert!(complementary > 0);
        let quantized = direct[7].1.deadline_cache_stats().unwrap();
        assert!(quantized.hits > 0 && quantized.misses > 0);
    }

    #[test]
    fn batched_group_bit_identical_to_scalar_steps() {
        assert_group_matches_scalar(0.0, 0x00d1_ce5e_ed00_0001);
    }

    #[test]
    fn batched_group_bit_identical_with_initial_radius() {
        assert_group_matches_scalar(0.25, 0x00d1_ce5e_ed00_0002);
    }

    #[test]
    fn empty_group_is_a_no_op() {
        let mut plan = BatchPlan::new();
        let mut out = Vec::new();
        plan.step_group(&mut [], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn quantized_cache_is_not_batch_supported() {
        let (_, mut det) = session(0.1, 8, 1, None, 0.0);
        assert!(det.batch_supported());
        det.set_deadline_cache(DeadlineCache::new(CacheConfig::exact(16)));
        assert!(det.batch_supported());
        det.set_deadline_cache(DeadlineCache::new(CacheConfig::quantized(0.5, 16)));
        assert!(!det.batch_supported());
    }

    #[test]
    fn degraded_interleaving_stays_bit_identical() {
        // Degraded ticks are stepped scalar (as the engine routes
        // them); the batched lanes around them must still match.
        let n_lanes = 4usize;
        let cache = Some(CacheConfig::exact(32));
        let mut direct: Vec<_> = (0..n_lanes)
            .map(|_| session(0.05, 8, 1, cache.clone(), 0.0))
            .collect();
        let mut batched: Vec<_> = (0..n_lanes)
            .map(|_| session(0.05, 8, 1, cache.clone(), 0.0))
            .collect();
        let mut plan = BatchPlan::new();
        let mut state = 0xabad_1deau64;
        for t in 0..40 {
            let xs: Vec<f64> = (0..n_lanes)
                .map(|_| -5.2 + 10.4 * rand_unit(&mut state))
                .collect();
            // Lane j is degraded on ticks where (t + j) % 7 == 0.
            let mut scalar_steps = Vec::new();
            for (j, (logger, det)) in direct.iter_mut().enumerate() {
                logger.record(Vector::from_slice(&[xs[j]]), Vector::zeros(1));
                scalar_steps.push(if (t + j) % 7 == 0 {
                    det.step_degraded(logger)
                } else {
                    det.step(logger)
                });
            }
            let mut batch_steps: Vec<Option<AdaptiveStep>> = vec![None; n_lanes];
            let mut lanes = Vec::new();
            let mut lane_ids = Vec::new();
            for (j, (logger, det)) in batched.iter_mut().enumerate() {
                logger.record(Vector::from_slice(&[xs[j]]), Vector::zeros(1));
                if (t + j) % 7 == 0 {
                    batch_steps[j] = Some(det.step_degraded(logger));
                } else {
                    lane_ids.push(j);
                    lanes.push(BatchLane {
                        logger,
                        detector: det,
                    });
                }
            }
            let mut group_out = Vec::new();
            plan.step_group(&mut lanes, &mut group_out);
            for (k, j) in lane_ids.into_iter().enumerate() {
                batch_steps[j] = Some(group_out[k].clone());
            }
            for j in 0..n_lanes {
                assert_eq!(
                    batch_steps[j].as_ref().unwrap(),
                    &scalar_steps[j],
                    "tick {t} lane {j}"
                );
            }
            assert_lane_parity(&direct, &batched, t);
        }
    }
}
