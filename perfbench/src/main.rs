//! Seeded benchmark of the awsad detection service.
//!
//! ```text
//! awsad-perfbench --workload <fleet-open|horizon-batch|cluster-drift>
//!                 --seed <n> --seconds <s> --trace <0|1> [--scale smoke]
//! ```
//!
//! `--trace 0` is the timed run: end-to-end metrics with no tracing.
//! `--trace 1` is the traced run: the same generated inputs replayed
//! layer by layer, reporting per-layer costs and the ledger. Both
//! check every served outcome stream against direct stepping and exit
//! non-zero when any operation failed, any outcome differed, or the
//! workload raised no alarm. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

mod drift;
mod fleet;
mod horizon;
mod inputs;
mod layers;
mod report;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use inputs::{Inputs, Scale, Workload};
use report::RunReport;

/// Run parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Measuring time, seconds.
    pub seconds: f64,
    /// How many times the set-up is repeated (its median is reported).
    pub setup_reps: usize,
}

impl Settings {
    /// Set-ups timed before the measurement. The rest are timed after
    /// it, so the reported median samples the host at two moments.
    pub fn setups_before(&self) -> usize {
        self.setup_reps.div_ceil(2)
    }

    /// Set-ups timed after the measurement.
    pub fn setups_after(&self) -> usize {
        self.setup_reps - self.setups_before()
    }
}

/// Runs `setup` `reps` times, pushing each duration (seconds) onto
/// `times` and tearing down every instance but the last, which is
/// returned (`None` when `reps` is 0).
pub fn timed_setups<T, E>(
    reps: usize,
    times: &mut Vec<f64>,
    mut setup: impl FnMut() -> Result<T, E>,
    mut teardown: impl FnMut(T),
) -> Result<Option<T>, E> {
    let mut last = None;
    for _ in 0..reps {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let start = Instant::now();
        let up = setup()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(up);
    }
    Ok(last)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("unknown scale {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        scale,
    })
}

/// JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number; non-finite values (which a correct run never
/// produces) become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Build and host provenance, as a JSON object.
fn provenance(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"cores\": {cores}, \"git_rev\": {}, \"source_digest\": {}, \"profile\": {}, \
         \"opt_level\": {}, \"rustflags\": {}, \"rustc\": {}, \"target\": {}, \
         \"workload\": {}, \"seed\": {}, \"scale\": {}}}",
        json_str(env!("PERFBENCH_GIT_REV")),
        json_str(env!("PERFBENCH_SOURCE_DIGEST")),
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(env!("PERFBENCH_OPT_LEVEL")),
        json_str(env!("PERFBENCH_RUSTFLAGS")),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_TARGET")),
        json_str(args.workload.name()),
        args.seed,
        json_str(if args.scale == Scale::Full {
            "full"
        } else {
            "smoke"
        }),
    )
}

fn metrics_json(report: &RunReport) -> String {
    let body: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let settings = Settings {
        seconds: args.seconds,
        setup_reps: if args.scale == Scale::Full { 15 } else { 2 },
    };
    let provenance = provenance(&args);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("provenance {provenance}");

    let inputs = Inputs::generate(args.workload, args.seed, args.scale);
    let (reference_digest, alarms) = inputs.reference_digest();
    println!(
        "inputs digest={:016x} sessions={} pass_ticks={}",
        inputs.digest(),
        inputs.sessions.len(),
        inputs.pass_ticks()
    );
    println!("reference digest={reference_digest:016x} alarms_per_pass={alarms}");

    let report = if args.trace {
        layers::run(&inputs, &settings)
    } else {
        // The service starts on its own core; each workload moves its
        // load generator to the other one once set-up is done.
        stats::cpu::pin_service();
        match args.workload {
            Workload::FleetOpen => fleet::run(&inputs, &settings),
            Workload::HorizonBatch => horizon::run(&inputs, &settings),
            Workload::ClusterDrift => drift::run(&inputs, &settings),
        }
    };

    for line in &report.notes {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    // A mismatched outcome is a failed operation.
    let failed = report.failed + report.mismatched;
    let attempted = report.attempted.max(1);
    // A run too short to fill one whole slice has no value to report.
    let measured = report.metrics.iter().all(|m| m.value.is_finite());
    let correct = failed == 0 && alarms > 0 && report.checked > 0 && measured;
    println!(
        "gate correct={correct} attempted={attempted} failed={} mismatched={} checked={} \
         failed_ops_ratio={} alarms_per_pass={alarms} all_metrics_measured={measured} wall_s={:.3}",
        report.failed,
        report.mismatched,
        report.checked,
        failed as f64 / attempted as f64,
        started.elapsed().as_secs_f64()
    );

    let out_dir = PathBuf::from(".perfbench");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let result = format!(
            "{{\"bench\": \"perfbench\", \"provenance\": {provenance}, \
             \"inputs_digest\": \"{:016x}\", \"reference_digest\": \"{reference_digest:016x}\", \
             \"alarms_per_pass\": {alarms}, \"correct\": {correct}, \"attempted\": {attempted}, \
             \"failed\": {failed}, \"metrics\": {}}}\n",
            inputs.digest(),
            metrics_json(&report)
        );
        let _ = std::fs::write(out_dir.join(format!("{stem}.json")), result);
        if !report.spans.is_empty() {
            // One span file per workload (the latest traced run), so
            // repeated runs do not pile up large files.
            let path = out_dir.join(format!("{}.spans.csv", args.workload.name()));
            let _ = trace::write_spans(&path, &report.spans);
        }
    }

    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&report)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
