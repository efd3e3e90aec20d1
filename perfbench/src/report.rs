//! What a workload run hands back to `main`, and the shared
//! correctness gate.

use std::collections::BTreeMap;

use crate::inputs::Inputs;
use crate::stats::{Digest, Stream};
use crate::trace::Span;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one run: counts for the correctness gate, metrics,
/// human-readable notes, and (traced runs) recorded spans.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Operations attempted (ticks, opens, recalibrations, closes).
    pub attempted: u64,
    /// Operations that failed, were refused or timed out.
    pub failed: u64,
    /// Served streams whose outcomes differ from direct stepping.
    pub mismatched: u64,
    /// Served outcomes compared against direct stepping.
    pub checked: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Extra lines printed before the result (per-rung tables etc.).
    pub notes: Vec<String>,
    /// Spans recorded by a traced run.
    pub spans: Vec<Span>,
}

impl RunReport {
    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Appends a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Compares served outcome streams against direct stepping. Each
    /// entry is `(session index, stream served)`; several entries may
    /// share a session (re-opened instances replay the stream from its
    /// start), so each is checked against the reference prefix of its
    /// own length.
    pub fn verify(&mut self, inputs: &Inputs, served: &[(usize, Stream)]) {
        let mut counts: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, stream) in served {
            counts.entry(*i).or_default().push(stream.count);
        }
        let jobs: Vec<(usize, Vec<usize>)> = counts
            .into_iter()
            .map(|(i, mut c)| {
                c.sort_unstable();
                c.dedup();
                (i, c)
            })
            .collect();
        // Direct stepping costs as much as serving; split it over two
        // threads (the benchmark's generator budget).
        let half = jobs.len().div_ceil(2).max(1);
        let references: BTreeMap<(usize, usize), Digest> = std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .chunks(half)
                .map(|chunk| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for (i, c) in chunk {
                            let (digests, _) = inputs.sessions[*i].reference(c);
                            out.extend(c.iter().zip(digests).map(|(&n, d)| ((*i, n), d)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference thread panicked"))
                .collect()
        });
        for (i, stream) in served {
            self.checked += stream.count as u64;
            self.mismatched += u64::from(references[&(*i, stream.count)] != stream.digest);
        }
    }
}
