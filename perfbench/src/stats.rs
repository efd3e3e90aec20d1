//! Small measurement helpers: quantiles, digests, clocks, memory.

use std::time::Instant;

use awsad_core::AdaptiveStep;
use awsad_serve::wire::{WireOutcome, WireTick};

/// Log-bucketed latency histogram: 128 linear buckets below 128 ns,
/// then 128 buckets per power of two (under 1% relative error). Its
/// size is bounded by the largest value recorded, so recording
/// millions of samples costs no memory growth and the process's peak
/// RSS reflects the service, not the harness.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

impl Histogram {
    fn bucket(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros();
        let mantissa = (ns >> (exp - SUB_BITS)) & (SUB - 1);
        (SUB * u64::from(exp - SUB_BITS + 1) + mantissa) as usize
    }

    /// The smallest value that lands in `bucket`.
    fn lower_bound(bucket: usize) -> u64 {
        let b = bucket as u64;
        if b < SUB {
            return b;
        }
        let exp = b / SUB - 1 + u64::from(SUB_BITS);
        (SUB + b % SUB) << (exp - u64::from(SUB_BITS))
    }

    /// Records `n` samples of `ns` nanoseconds.
    pub fn record_n(&mut self, ns: u64, n: u64) {
        let b = Self::bucket(ns);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += n;
        self.total += n;
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.record_n(ns, 1);
    }

    /// Adds another histogram's samples.
    pub fn merge(&mut self, other: &Histogram) {
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Samples in the buckets up to and including the one holding
    /// `ns` (so within one bucket width, under 1%, of `ns`).
    pub fn count_at_most(&self, ns: u64) -> u64 {
        let last = Self::bucket(ns).min(self.counts.len().saturating_sub(1));
        self.counts.iter().take(last + 1).sum()
    }

    /// Quantile `q` in milliseconds, interpolated linearly within the
    /// bucket holding the nearest-rank sample (`NaN` when empty).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let lo = Self::lower_bound(b) as f64;
                let width = (Self::lower_bound(b + 1) as f64 - lo).max(1.0);
                let within = (rank - seen) as f64 / c as f64;
                return (lo + within * width) / 1e6;
            }
            seen += c;
        }
        unreachable!("rank is at most the total count")
    }
}

/// Length of the slices runs report medians over.
pub const SLICE_NS: u64 = 500_000_000;

/// Completions and latencies bucketed into fixed wall-clock slices.
/// On a shared host a run passes through spells of unusually fast or
/// slow service lasting seconds; reporting the conservative quartile
/// over slices (the first quartile of rates, the third of latencies)
/// keeps a spell covering up to a quarter of the run, on either side,
/// from moving the result.
#[derive(Debug, Clone)]
pub struct Sliced {
    slice_ns: u64,
    slices: Vec<(u64, Histogram)>,
}

impl Default for Sliced {
    /// [`SLICE_NS`] slices counted from the clock's origin.
    fn default() -> Self {
        Sliced {
            slice_ns: SLICE_NS,
            slices: Vec::new(),
        }
    }
}

impl Sliced {
    /// Records `n` completions at `now_ns`, each with latency
    /// `latency_ns`.
    pub fn record(&mut self, now_ns: u64, latency_ns: u64, n: u64) {
        let i = (now_ns / self.slice_ns) as usize;
        if self.slices.len() <= i {
            self.slices.resize_with(i + 1, Default::default);
        }
        self.slices[i].0 += n;
        self.slices[i].1.record_n(latency_ns, n);
    }

    /// Adds another recorder's samples (same slice length).
    pub fn merge(&mut self, other: &Sliced) {
        if self.slices.len() < other.slices.len() {
            self.slices
                .resize_with(other.slices.len(), Default::default);
        }
        for (mine, theirs) in self.slices.iter_mut().zip(&other.slices) {
            mine.0 += theirs.0;
            mine.1.merge(&theirs.1);
        }
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.slices.iter().map(|(n, _)| n).sum()
    }

    /// The slices strictly inside `[from_ns, to_ns)`: whole slices of
    /// steady state, without the partial ramp-up and drain slices.
    fn inner(&self, from_ns: u64, to_ns: u64) -> &[(u64, Histogram)] {
        let first = (from_ns.div_ceil(self.slice_ns) as usize).min(self.slices.len());
        let last = ((to_ns / self.slice_ns) as usize).clamp(first, self.slices.len());
        &self.slices[first..last]
    }

    /// Completions per second over the whole slices within
    /// `[from_ns, to_ns)`: the first quartile of the per-slice rates.
    pub fn rate(&self, from_ns: u64, to_ns: u64) -> f64 {
        let rates: Vec<f64> = self
            .inner(from_ns, to_ns)
            .iter()
            .map(|(n, _)| *n as f64 * 1e9 / self.slice_ns as f64)
            .collect();
        quantile(&rates, 0.25)
    }

    /// Latency quantile `q` over the whole slices within
    /// `[from_ns, to_ns)`, in ms: the third quartile of the per-slice
    /// values.
    pub fn quantile_ms(&self, from_ns: u64, to_ns: u64, q: f64) -> f64 {
        let values: Vec<f64> = self
            .inner(from_ns, to_ns)
            .iter()
            .filter(|(n, _)| *n > 0)
            .map(|(_, h)| h.quantile_ms(q))
            .collect();
        quantile(&values, 0.75)
    }
}

/// An outcome stream folded as it is served: how many outcomes and
/// the digest of their hashes, so a long run keeps no per-tick state.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stream {
    /// Outcomes served.
    pub count: usize,
    /// Digest of their [`step_hash`]es in order.
    pub digest: Digest,
}

impl Stream {
    /// Folds in the next outcome's hash.
    pub fn push(&mut self, hash: u64) {
        self.count += 1;
        self.digest.u64(hash);
    }
}

/// Nearest-rank quantile of an unsorted sample (`q` in `[0, 1]`).
/// Returns `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// p50 over probe rounds taken at different moments: the third
/// quartile of the per-round medians, the same conservative side of
/// the spread [`Sliced::quantile_ms`] reports.
pub fn rounds_p50_ms(rounds: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| median(r))
        .collect();
    quantile(&medians, 0.75)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean (`NaN` for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `num / den`, or `0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Seconds elapsed since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return f64::NAN;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a, 64-bit: the digest every input and outcome stream is
/// summarized with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a `u64` in (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a slice of floats in by their IEEE-754 bit patterns.
    pub fn f64s(&mut self, values: &[f64]) {
        self.u64(values.len() as u64);
        for v in values {
            self.u64(v.to_bits());
        }
    }

    /// Folds a wire tick in.
    pub fn tick(&mut self, tick: &WireTick) {
        self.f64s(&tick.estimate);
        self.f64s(&tick.input);
    }
}

/// The digest of one detection outcome: every field of the
/// [`AdaptiveStep`] plus the session-local sequence number. Two
/// outcomes hash equal exactly when they are equal (up to 64-bit
/// collisions).
pub fn step_hash(seq: u64, step: &AdaptiveStep) -> u64 {
    let mut d = Digest::default();
    d.u64(seq);
    d.u64(step.step as u64);
    d.u64(step.deadline.steps().map_or(u64::MAX, |s| s as u64));
    d.u64(step.window as u64);
    d.u64(step.previous_window as u64);
    d.u64(u64::from(step.current_alarm));
    d.u64(step.complementary_alarms.len() as u64);
    for &a in &step.complementary_alarms {
        d.u64(a as u64);
    }
    d.0
}

/// [`step_hash`] of a wire outcome; a degraded outcome never matches
/// a reference (the benchmark runs with `Block` backpressure).
pub fn wire_hash(outcome: &WireOutcome) -> u64 {
    let h = step_hash(outcome.seq, &outcome.to_step());
    if outcome.degraded {
        !h
    } else {
        h
    }
}

/// Wall-clock nanoseconds since a fixed origin, shared across threads.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose origin is now.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// CPU placement for timed runs. On a small shared host the scheduler
/// may put the load generator and the service on one core in one run
/// and on two in the next, which moves every round-trip time; pinning
/// makes the placement the same in every run. Threads inherit the
/// affinity of the thread that spawns them, so pinning the main thread
/// before the service starts places every service thread.
pub mod cpu {
    #[cfg(target_os = "linux")]
    extern "C" {
        // `std` already links the C library on Linux.
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// Cores available to this process.
    pub fn count() -> usize {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    fn set(mask: &[u64; 16]) -> bool {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: the mask outlives the call and its size is passed.
            unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = mask;
            false
        }
    }

    /// The core the service runs on (the last one).
    pub fn service() -> usize {
        count() - 1
    }

    /// Pins the calling thread to the service core. No-op (returns
    /// `false`) on a single-core host.
    pub fn pin_service() -> bool {
        count() >= 2 && pin(service())
    }

    /// Pins the calling thread to the load core (core 0). No-op on a
    /// single-core host.
    pub fn pin_load() -> bool {
        count() >= 2 && pin(0)
    }

    fn pin(core: usize) -> bool {
        let mut mask = [0u64; 16];
        if core >= mask.len() * 64 {
            return false;
        }
        mask[core / 64] |= 1 << (core % 64);
        set(&mask)
    }

    /// Lets the calling thread run on every core again.
    pub fn unpin() -> bool {
        let mut mask = [0u64; 16];
        for core in 0..count().min(mask.len() * 64) {
            mask[core / 64] |= 1 << (core % 64);
        }
        set(&mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let mut h = Histogram::default();
        for us in 1..=1000u64 {
            h.record(us * 1000);
        }
        for (q, want_ms) in [(0.5, 0.5), (0.9, 0.9), (0.99, 0.99)] {
            let got = h.quantile_ms(q);
            assert!(
                (got - want_ms).abs() / want_ms < 0.01,
                "q{q}: {got} vs {want_ms}"
            );
        }
        assert_eq!(h.count(), 1000);
        assert!(h.count_at_most(500_000).abs_diff(500) <= 5);
    }

    #[test]
    fn sliced_statistics_use_only_whole_slices() {
        let mut s = Sliced::default();
        // Slice 0 is a partial ramp-up; slices 1..=4 are steady.
        s.record(SLICE_NS / 2, 1_000, 7);
        for i in 1..=4u64 {
            s.record(i * SLICE_NS + 1, 2_000_000, 10 * i);
        }
        let rates = [20.0, 40.0, 60.0, 80.0];
        assert_eq!(s.rate(SLICE_NS / 4, 5 * SLICE_NS), quantile(&rates, 0.25));
        assert_eq!(s.count(), 7 + 100);
        let p50 = s.quantile_ms(SLICE_NS / 4, 5 * SLICE_NS, 0.5);
        assert!((p50 - 2.0).abs() < 0.02, "{p50}");
    }

    #[test]
    fn merged_histograms_add_counts() {
        let (mut a, mut b) = (Histogram::default(), Histogram::default());
        a.record(100);
        b.record_n(10_000_000, 3);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert!(a.quantile_ms(1.0) >= 10.0);
    }
}
