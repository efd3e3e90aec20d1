//! In-memory span recorder for the traced run. Spans are recorded by
//! the benchmark around its calls into each layer, kept in memory
//! while the run measures, and written out once at exit.

use std::io::{self, Write};
use std::path::Path;

use crate::stats::Clock;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span covers (`reach.query`, `net.rtt`, ...).
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index + 1 of the enclosing span (`0` = root).
    pub parent: u32,
    /// Identifier shared by every span of one tick or request:
    /// `session << 32 | position`.
    pub tick: u64,
}

/// Records spans against a shared clock. A disabled tracer times the
/// same calls but keeps nothing, so a pass can run with and without
/// tracing to measure what tracing costs.
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer keeping spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            clock: Clock::start(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Opens a parent span; returns its id for children (`0` when
    /// disabled). Close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        if !self.enabled {
            return 0;
        }
        let now = self.clock.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            tick: 0,
        });
        self.spans.len() as u32
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: u32) {
        if id > 0 {
            self.spans[id as usize - 1].end_ns = self.clock.now_ns();
        }
    }

    /// Times `f` and returns its result with its duration in
    /// nanoseconds, recording a span when enabled.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        tick: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = self.clock.now_ns();
        let out = f();
        let end = self.clock.now_ns();
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: start,
                end_ns: end,
                parent,
                tick,
            });
        }
        (out, (end - start) as f64)
    }

    /// Hands over the recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Writes spans as CSV (`id,parent,name,tick,start_ns,end_ns`).
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,name,tick,start_ns,end_ns")?;
    for (i, s) in spans.iter().enumerate() {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            i + 1,
            s.parent,
            s.name,
            s.tick,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}
