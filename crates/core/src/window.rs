use awsad_linalg::Vector;

use crate::{DataLogger, DetectorConfig};

/// The basic window-based check of §4.1, stateless: given a window's
/// mean residual, alarm iff any dimension exceeds its threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowDetector {
    threshold: Vector,
}

impl WindowDetector {
    /// Creates a detector with per-dimension threshold `τ`.
    pub fn new(threshold: Vector) -> Self {
        WindowDetector { threshold }
    }

    /// The threshold in effect.
    pub fn threshold(&self) -> &Vector {
        &self.threshold
    }

    /// Whether `mean_residual` trips the alarm (`z^avg > τ` in any
    /// dimension).
    ///
    /// **Fail-safe**: a non-finite statistic (NaN/∞ from a faulty or
    /// absurd sensor value) always alarms. `NaN > τ` is false in IEEE
    /// arithmetic, so without this rule a sensor emitting NaN would
    /// silence the detector — the opposite of what a fault should do.
    ///
    /// # Panics
    ///
    /// Panics when lengths differ.
    pub fn exceeds(&self, mean_residual: &Vector) -> bool {
        self.exceeds_slice(mean_residual.as_slice())
    }

    /// [`WindowDetector::exceeds`] on a slice, for the batched
    /// detection path, which holds window means in a column-major
    /// [`awsad_linalg::kernels::soa::SoaBatch`] rather than per-lane
    /// `Vector`s.
    pub(crate) fn exceeds_slice(&self, mean_residual: &[f64]) -> bool {
        self.dims_exceeding(mean_residual).next().is_some()
    }

    /// The dimensions whose statistic exceeds their threshold —
    /// attribution for operators ("which sensor looks wrong").
    /// Non-finite entries count as exceeding (fail-safe, as in
    /// [`WindowDetector::exceeds`]).
    ///
    /// # Panics
    ///
    /// Panics when lengths differ.
    pub fn exceeding_dims(&self, mean_residual: &Vector) -> Vec<usize> {
        self.dims_exceeding(mean_residual.as_slice()).collect()
    }

    /// The per-dimension decision rule: dimension `d` trips when its
    /// statistic is non-finite or strictly above `τ_d`.
    fn dims_exceeding<'a>(&'a self, mean_residual: &'a [f64]) -> impl Iterator<Item = usize> + 'a {
        assert_eq!(
            mean_residual.len(),
            self.threshold.len(),
            "statistic dimension must match the threshold"
        );
        mean_residual
            .iter()
            .zip(self.threshold.as_slice())
            .enumerate()
            .filter(|(_, (v, t))| !v.is_finite() || v > t)
            .map(|(d, _)| d)
    }

    /// Runs the check for the window `[end − w, end]` against the
    /// logger's residuals. Returns `None` when the window is not fully
    /// retained (released data or future steps).
    pub fn check(&self, logger: &DataLogger, end: usize, w: usize) -> Option<bool> {
        logger.window_mean(end, w).map(|mean| self.exceeds(&mean))
    }

    /// Allocation-free variant of [`WindowDetector::check`]: the window
    /// mean is accumulated into `scratch` (via
    /// [`DataLogger::window_mean_into`]) instead of a fresh vector, and
    /// the decision is identical bit-for-bit.
    pub fn check_with(
        &self,
        logger: &DataLogger,
        end: usize,
        w: usize,
        scratch: &mut Vector,
    ) -> Option<bool> {
        logger.window_mean_into(end, w, scratch)?;
        Some(self.exceeds(scratch))
    }
}

/// The comparison arm of the paper's evaluation: the same
/// window-based detection but with a *fixed* window size, fed
/// step-by-step.
///
/// Table 2 and Figs. 6/8 contrast this detector against the adaptive
/// one: with a large fixed window it raises few false alarms but
/// discovers attacks long after the detection deadline.
#[derive(Debug, Clone)]
pub struct FixedWindowDetector {
    inner: WindowDetector,
    window: usize,
}

impl FixedWindowDetector {
    /// Creates a fixed-window detector using `config`'s threshold and
    /// the given window size (clamped to `config.max_window()`).
    pub fn new(config: &DetectorConfig, window: usize) -> Self {
        FixedWindowDetector {
            inner: WindowDetector::new(config.threshold().clone()),
            window: window.min(config.max_window()),
        }
    }

    /// The fixed window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Checks the window ending at the logger's current step. Returns
    /// `false` during warm-up the same way the paper's detector treats
    /// partial windows: the mean over the available prefix is used.
    pub fn step(&self, logger: &DataLogger) -> bool {
        let Some(current) = logger.current_step() else {
            return false;
        };
        self.inner
            .check(logger, current, self.window)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use awsad_linalg::Matrix;
    use awsad_lti::LtiSystem;

    fn logger() -> DataLogger {
        // Identity plant with zero B: prediction = previous estimate,
        // so the residual equals |x̄_t − x̄_{t−1}| exactly.
        let sys = LtiSystem::new_discrete_fully_observable(
            Matrix::identity(1),
            Matrix::zeros(1, 1),
            0.02,
        )
        .unwrap();
        DataLogger::new(sys, 20)
    }

    fn v(x: f64) -> Vector {
        Vector::from_slice(&[x])
    }

    #[test]
    fn exceeds_is_elementwise_any() {
        let det = WindowDetector::new(Vector::from_slice(&[0.1, 0.5]));
        assert!(!det.exceeds(&Vector::from_slice(&[0.1, 0.5]))); // equality is fine
        assert!(det.exceeds(&Vector::from_slice(&[0.2, 0.0])));
        assert!(det.exceeds(&Vector::from_slice(&[0.0, 0.6])));
    }

    #[test]
    fn non_finite_statistic_fails_safe() {
        let det = WindowDetector::new(Vector::from_slice(&[0.1, 0.5]));
        assert!(det.exceeds(&Vector::from_slice(&[f64::NAN, 0.0])));
        assert!(det.exceeds(&Vector::from_slice(&[0.0, f64::INFINITY])));
    }

    #[test]
    fn exceeding_dims_attributes_the_right_sensors() {
        let det = WindowDetector::new(Vector::from_slice(&[0.1, 0.5, 0.2]));
        assert_eq!(
            det.exceeding_dims(&Vector::from_slice(&[0.2, 0.4, 0.3])),
            vec![0, 2]
        );
        assert!(det
            .exceeding_dims(&Vector::from_slice(&[0.1, 0.5, 0.2]))
            .is_empty());
        assert_eq!(
            det.exceeding_dims(&Vector::from_slice(&[0.0, f64::NAN, 0.0])),
            vec![1]
        );
    }

    #[test]
    fn check_uses_window_mean() {
        let mut log = logger();
        log.record(v(0.0), v(0.0)); // r = 0
        log.record(v(1.0), v(0.0)); // r = 1
        log.record(v(1.0), v(0.0)); // r = 0
        let det = WindowDetector::new(v(0.4));
        // Window [1, 2]: mean 0.5 > 0.4 → alarm.
        assert_eq!(det.check(&log, 2, 1), Some(true));
        // Window [2, 2]: mean 0 → quiet.
        assert_eq!(det.check(&log, 2, 0), Some(false));
        // Unavailable window.
        assert_eq!(det.check(&log, 5, 0), None);
    }

    #[test]
    fn fixed_detector_dilutes_spike_across_window() {
        let cfg = DetectorConfig::new(v(0.3), 20).unwrap();
        let small = FixedWindowDetector::new(&cfg, 1);
        let large = FixedWindowDetector::new(&cfg, 9);
        let mut log = logger();
        for _ in 0..10 {
            log.record(v(0.0), v(0.0));
        }
        // One spike of residual 1.0.
        log.record(v(1.0), v(0.0));
        // Small window: mean 0.5 > 0.3 → alarm now.
        assert!(small.step(&log));
        // Large window: mean 0.1 < 0.3 → silent (delayed detection).
        assert!(!large.step(&log));
    }

    #[test]
    fn fixed_detector_warmup_uses_prefix() {
        let cfg = DetectorConfig::new(v(0.1), 20).unwrap();
        let det = FixedWindowDetector::new(&cfg, 10);
        let mut log = logger();
        assert!(!det.step(&log)); // nothing recorded
        log.record(v(0.0), v(0.0));
        assert!(!det.step(&log));
        log.record(v(5.0), v(0.0)); // huge residual in a 2-sample prefix
        assert!(det.step(&log));
    }

    #[test]
    fn fixed_window_clamped_to_max() {
        let cfg = DetectorConfig::new(v(0.1), 8).unwrap();
        let det = FixedWindowDetector::new(&cfg, 100);
        assert_eq!(det.window(), 8);
    }
}
