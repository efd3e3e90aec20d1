use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};

use awsad_linalg::Vector;

use crate::{Deadline, DeadlineEstimator, DeadlineScratch, Result};

/// Configuration of a [`DeadlineCache`].
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Quantization step applied per state dimension when forming the
    /// cache key.
    ///
    /// `0.0` (the default) keys on the exact bit pattern of the
    /// trusted state: hits only occur when the same state recurs
    /// exactly, and cached answers are **identical** to uncached
    /// queries — detection decisions are unchanged.
    ///
    /// A positive quantum `q` snaps each coordinate to its nearest
    /// multiple of `q`, so nearby states share one entry. To stay
    /// *sound*, the cached deadline is computed from the snapped
    /// representative with the initial-state uncertainty radius
    /// inflated by `q·√n/2` — every state in the bin lies inside that
    /// ball, so the cached deadline is conservative (never later than
    /// the true deadline) for the whole bin. Larger `q` → higher hit
    /// rate, but up-to-`q·√n/2`-worth of extra pessimism in the
    /// deadline and therefore smaller detection windows.
    pub quantum: f64,
    /// Maximum number of retained entries; the oldest entry is evicted
    /// (FIFO) once the bound is reached.
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            quantum: 0.0,
            capacity: 4096,
        }
    }
}

impl CacheConfig {
    /// An exact-key cache (quantum 0) with the given capacity.
    pub fn exact(capacity: usize) -> Self {
        CacheConfig {
            quantum: 0.0,
            capacity,
        }
    }

    /// A quantized cache with the given bin width and capacity.
    pub fn quantized(quantum: f64, capacity: usize) -> Self {
        CacheConfig { quantum, capacity }
    }
}

/// Counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the cache.
    pub hits: u64,
    /// Queries that ran the full deadline search.
    pub misses: u64,
    /// Entries evicted to honor the capacity bound.
    pub evictions: u64,
    /// Entries currently retained.
    pub len: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; `0` before any query.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Memoization layer over [`DeadlineEstimator::checked_deadline`].
///
/// The deadline search is the dominant per-step cost of the adaptive
/// detector — `O(w_m · n²)` per query — yet consecutive control steps
/// frequently query near-identical trusted states (steady-state
/// operation, convergent regulation). The cache maps a (quantized)
/// trusted state to its deadline, bounded by a FIFO eviction policy.
///
/// See [`CacheConfig::quantum`] for the exactness/soundness contract.
#[derive(Debug, Clone)]
pub struct DeadlineCache {
    config: CacheConfig,
    entries: HashMap<Vec<u64>, Deadline>,
    order: VecDeque<Vec<u64>>,
    stats: CacheStats,
    /// Reusable key buffer so hit-path lookups allocate nothing.
    key_scratch: Vec<u64>,
}

/// Builds the cache key for `(x0, r0)` into `key` (cleared first):
/// per-dimension quantized bins when `quantum > 0`, exact f64 bit
/// patterns otherwise, with `r0`'s bits appended.
fn build_key(quantum: f64, x0: &Vector, r0: f64, key: &mut Vec<u64>) {
    key.clear();
    key.reserve(x0.len() + 1);
    for d in 0..x0.len() {
        if quantum > 0.0 {
            key.push((x0[d] / quantum).round() as i64 as u64);
        } else {
            key.push(x0[d].to_bits());
        }
    }
    key.push(r0.to_bits());
}

/// The state and radius a miss on `(x0, r0)` is evaluated at: `x0`
/// itself when `quantum == 0`; otherwise the bin's snapped
/// representative with the radius inflated by `q·√n/2` to cover the
/// whole bin (soundness: every state keyed there lies within that
/// distance of the representative).
fn miss_query(quantum: f64, x0: &Vector, r0: f64) -> (Cow<'_, Vector>, f64) {
    if quantum > 0.0 {
        let snapped = Vector::from_fn(x0.len(), |d| (x0[d] / quantum).round() * quantum);
        let inflation = 0.5 * quantum * (x0.len() as f64).sqrt();
        (Cow::Owned(snapped), r0 + inflation)
    } else {
        (Cow::Borrowed(x0), r0)
    }
}

impl DeadlineCache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let capacity = config.capacity.max(1);
        DeadlineCache {
            config: CacheConfig { capacity, ..config },
            entries: HashMap::with_capacity(capacity.min(1024)),
            order: VecDeque::new(),
            stats: CacheStats::default(),
            key_scratch: Vec::new(),
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Effectiveness counters accumulated since construction.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            len: self.entries.len(),
            ..self.stats
        }
    }

    /// The deadline from `x0` with initial-state radius `r0`, answered
    /// from the cache when possible.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ReachError::DimensionMismatch`] for a
    /// wrong-length `x0`.
    pub fn deadline(
        &mut self,
        estimator: &DeadlineEstimator,
        x0: &Vector,
        r0: f64,
    ) -> Result<Deadline> {
        let mut scratch = DeadlineScratch::new();
        self.deadline_with(estimator, x0, r0, &mut scratch)
    }

    /// Like [`DeadlineCache::deadline`], but misses run the
    /// allocation-free walk on caller-held scratch — on a hit the
    /// lookup itself allocates nothing (the key is built in a reusable
    /// buffer), so a warm cache keeps the detect path heap-quiet.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ReachError::DimensionMismatch`] for a
    /// wrong-length `x0`.
    pub fn deadline_with(
        &mut self,
        estimator: &DeadlineEstimator,
        x0: &Vector,
        r0: f64,
        scratch: &mut DeadlineScratch,
    ) -> Result<Deadline> {
        if let Some(hit) = self.lookup(x0, r0) {
            return Ok(hit);
        }
        let (x, r) = miss_query(self.config.quantum, x0, r0);
        let deadline = estimator.checked_deadline_with(&x, r, scratch)?;
        // `lookup` left the key in `key_scratch`.
        self.insert(self.key_scratch.clone(), deadline);
        Ok(deadline)
    }

    /// The lookup half of [`DeadlineCache::deadline_with`], for
    /// callers that resolve misses themselves: builds the key and
    /// returns the cached deadline, counting a hit — or counts a miss
    /// and returns `None`, leaving the computation to the caller.
    ///
    /// A caller that answers the miss must evaluate it exactly as
    /// [`DeadlineCache::deadline_with`] would (for an exact-mode cache,
    /// `quantum == 0`: a plain walk from `(x0, r0)`) and hand the
    /// result back through [`DeadlineCache::insert_computed`] with the
    /// same `(x0, r0)`. The pair then reproduces `deadline_with`'s
    /// cache state and statistics exactly: one miss counted here, no
    /// extra count at insert. The detector's step uses this for
    /// exact-mode caches, so that a batch planner can fold many
    /// sessions' misses into one batched walk.
    pub fn lookup(&mut self, x0: &Vector, r0: f64) -> Option<Deadline> {
        build_key(self.config.quantum, x0, r0, &mut self.key_scratch);
        if let Some(&hit) = self.entries.get(self.key_scratch.as_slice()) {
            self.stats.hits += 1;
            return Some(hit);
        }
        self.stats.misses += 1;
        None
    }

    /// Stores a deadline the caller computed for a
    /// [`DeadlineCache::lookup`] miss on the same `(x0, r0)`. Counts
    /// nothing — the miss was already counted by the lookup — so
    /// `lookup` + compute + `insert_computed` is stat-identical and
    /// state-identical to one [`DeadlineCache::deadline_with`] call.
    pub fn insert_computed(&mut self, x0: &Vector, r0: f64, deadline: Deadline) {
        build_key(self.config.quantum, x0, r0, &mut self.key_scratch);
        let key = self.key_scratch.clone();
        self.insert(key, deadline);
    }

    /// Speculatively fills the cache for a batch of states with one
    /// [`DeadlineEstimator::deadline_batch`] walk.
    ///
    /// States already cached (or duplicated within `states`) are
    /// skipped; the rest are evaluated together — in quantized mode at
    /// their snapped representatives with the usual radius inflation,
    /// so a prewarmed entry is bit-identical to the one a cache miss
    /// would have produced. Each computed entry counts as a miss
    /// (the later lookup that consumes it then counts as a hit, which
    /// keeps hit-rate accounting aligned with the scalar miss path).
    ///
    /// Returns the number of entries computed.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ReachError::DimensionMismatch`] if any state
    /// has the wrong length; nothing is inserted in that case.
    pub fn prewarm(
        &mut self,
        estimator: &DeadlineEstimator,
        states: &[&Vector],
        r0: f64,
    ) -> Result<usize> {
        let q = self.config.quantum;
        let mut keys: Vec<Vec<u64>> = Vec::new();
        let mut reps: Vec<Vector> = Vec::new();
        let mut eff_r0 = r0;
        for s in states {
            build_key(q, s, r0, &mut self.key_scratch);
            if self.entries.contains_key(self.key_scratch.as_slice())
                || keys.contains(&self.key_scratch)
            {
                continue;
            }
            keys.push(self.key_scratch.clone());
            // Equal-length states share the inflated radius; a
            // mismatched length fails the batched walk below.
            let (rep, r) = miss_query(q, s, r0);
            reps.push(rep.into_owned());
            eff_r0 = r;
        }
        if reps.is_empty() {
            return Ok(0);
        }
        let deadlines = estimator.deadline_batch(&reps, eff_r0)?;
        let count = deadlines.len();
        for (key, deadline) in keys.into_iter().zip(deadlines) {
            self.stats.misses += 1;
            self.insert(key, deadline);
        }
        Ok(count)
    }

    /// Drops all entries (counters are preserved).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }

    fn insert(&mut self, key: Vec<u64>, deadline: Deadline) {
        while self.entries.len() >= self.config.capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.entries.remove(&oldest);
            self.stats.evictions += 1;
        }
        if self.entries.insert(key.clone(), deadline).is_none() {
            self.order.push_back(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ReachConfig;
    use awsad_linalg::Matrix;
    use awsad_sets::BoxSet;

    /// Pure integrator: x_{t+1} = x_t + u_t, |u| <= 1, safe |x| <= 5.
    fn integrator() -> DeadlineEstimator {
        let a = Matrix::identity(1);
        let b = Matrix::from_rows(&[&[1.0]]).unwrap();
        let cfg = ReachConfig::new(
            BoxSet::from_bounds(&[-1.0], &[1.0]).unwrap(),
            0.0,
            BoxSet::from_bounds(&[-5.0], &[5.0]).unwrap(),
            100,
        )
        .unwrap();
        DeadlineEstimator::new(&a, &b, cfg).unwrap()
    }

    fn v(x: f64) -> Vector {
        Vector::from_slice(&[x])
    }

    #[test]
    fn exact_mode_matches_uncached_and_counts_hits() {
        let est = integrator();
        let mut cache = DeadlineCache::new(CacheConfig::exact(64));
        for x in [0.0, 3.0, 0.0, 3.0, 0.0] {
            let cached = cache.deadline(&est, &v(x), 0.0).unwrap();
            assert_eq!(cached, est.checked_deadline(&v(x), 0.0).unwrap());
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.len, 2);
        assert!((stats.hit_rate() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn lookup_insert_computed_reproduces_deadline_with_exactly() {
        let est = integrator();
        let mut split = DeadlineCache::new(CacheConfig::exact(64));
        let mut fused = DeadlineCache::new(CacheConfig::exact(64));
        let mut scratch = crate::DeadlineScratch::new();
        for x in [0.0, 3.0, 0.0, -2.5, 3.0, 0.0] {
            let reference = fused.deadline_with(&est, &v(x), 0.0, &mut scratch).unwrap();
            let got = match split.lookup(&v(x), 0.0) {
                Some(hit) => hit,
                None => {
                    let d = est.checked_deadline_with(&v(x), 0.0, &mut scratch).unwrap();
                    split.insert_computed(&v(x), 0.0, d);
                    d
                }
            };
            assert_eq!(got, reference, "x={x}");
        }
        assert_eq!(split.stats(), fused.stats());
    }

    #[test]
    fn exact_mode_distinguishes_radii() {
        let est = integrator();
        let mut cache = DeadlineCache::new(CacheConfig::exact(64));
        let a = cache.deadline(&est, &v(3.0), 0.0).unwrap();
        let b = cache.deadline(&est, &v(3.0), 1.0).unwrap();
        assert!(b.is_tighter_than(a));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn quantized_mode_is_sound() {
        let est = integrator();
        let q = 0.5;
        let mut cache = DeadlineCache::new(CacheConfig::quantized(q, 64));
        // Every cached answer must be no later than the exact deadline
        // for every state in its bin.
        for i in 0..40 {
            let x = -4.0 + 0.2 * i as f64;
            let cached = cache.deadline(&est, &v(x), 0.0).unwrap();
            let exact = est.checked_deadline(&v(x), 0.0).unwrap();
            assert!(
                cached == exact || cached.is_tighter_than(exact),
                "x={x}: cached {cached} later than exact {exact}"
            );
        }
        let stats = cache.stats();
        assert!(stats.hits > 0, "bin sharing must produce hits");
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        let est = integrator();
        let mut cache = DeadlineCache::new(CacheConfig::exact(4));
        for i in 0..10 {
            cache.deadline(&est, &v(i as f64 * 0.1), 0.0).unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.len, 4);
        assert_eq!(stats.evictions, 6);
        // The oldest keys were evicted: re-querying them misses.
        cache.deadline(&est, &v(0.0), 0.0).unwrap();
        assert_eq!(cache.stats().misses, 11);
    }

    #[test]
    fn clear_preserves_counters() {
        let est = integrator();
        let mut cache = DeadlineCache::new(CacheConfig::exact(8));
        cache.deadline(&est, &v(1.0), 0.0).unwrap();
        cache.clear();
        assert_eq!(cache.stats().len, 0);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn dimension_mismatch_propagates() {
        let est = integrator();
        let mut cache = DeadlineCache::new(CacheConfig::default());
        assert!(cache.deadline(&est, &Vector::zeros(2), 0.0).is_err());
    }

    #[test]
    fn deadline_with_scratch_matches_plain_lookup() {
        let est = integrator();
        let mut plain = DeadlineCache::new(CacheConfig::exact(64));
        let mut scratched = DeadlineCache::new(CacheConfig::exact(64));
        let mut scratch = DeadlineScratch::new();
        for x in [0.0, 3.0, 0.0, -2.0, 3.0] {
            let a = plain.deadline(&est, &v(x), 0.0).unwrap();
            let b = scratched
                .deadline_with(&est, &v(x), 0.0, &mut scratch)
                .unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(plain.stats(), scratched.stats());
    }

    #[test]
    fn prewarm_turns_lookups_into_hits() {
        let est = integrator();
        let mut cache = DeadlineCache::new(CacheConfig::exact(64));
        let states = [v(0.0), v(3.0), v(0.0), v(-2.0)];
        let refs: Vec<&Vector> = states.iter().collect();
        // 4 states, 3 distinct: exactly 3 batch computations.
        assert_eq!(cache.prewarm(&est, &refs, 0.0).unwrap(), 3);
        assert_eq!(cache.stats().misses, 3);
        for s in &states {
            let cached = cache.deadline(&est, s, 0.0).unwrap();
            assert_eq!(cached, est.checked_deadline(s, 0.0).unwrap());
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 4, "all post-prewarm lookups must hit");
        assert_eq!(stats.misses, 3);
        // Prewarming again computes nothing.
        assert_eq!(cache.prewarm(&est, &refs, 0.0).unwrap(), 0);
    }

    #[test]
    fn prewarm_quantized_matches_miss_path() {
        let est = integrator();
        let q = 0.5;
        let states: Vec<Vector> = (0..10).map(|i| v(-2.0 + 0.3 * i as f64)).collect();
        let refs: Vec<&Vector> = states.iter().collect();
        let mut warmed = DeadlineCache::new(CacheConfig::quantized(q, 64));
        warmed.prewarm(&est, &refs, 0.0).unwrap();
        let mut cold = DeadlineCache::new(CacheConfig::quantized(q, 64));
        for s in &states {
            let a = warmed.deadline(&est, s, 0.0).unwrap();
            let b = cold.deadline(&est, s, 0.0).unwrap();
            assert_eq!(a, b, "prewarmed entry must equal the miss-path entry");
        }
        assert_eq!(warmed.stats().hits, states.len() as u64);
    }

    #[test]
    fn prewarm_dimension_mismatch_inserts_nothing() {
        let est = integrator();
        let mut cache = DeadlineCache::new(CacheConfig::exact(64));
        let good = v(1.0);
        let bad = Vector::zeros(2);
        assert!(cache.prewarm(&est, &[&good, &bad], 0.0).is_err());
        assert_eq!(cache.stats().len, 0);
        assert_eq!(cache.stats().misses, 0);
    }
}
