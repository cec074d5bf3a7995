//! The repository benchmark: one closed-loop workload per run, driven
//! through the layers' public functions.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload frontier|fleet|fleet_durable|cluster \
//!     --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off; with `--trace 1` it alternates untraced and traced operations on
//! the same inputs and reports the per-layer metrics and the tracing
//! overhead. Correctness gates ride along with every operation: a failed
//! gate ends the run with exit code 1 and no result line. The last line
//! of standard output is the result object; the lines before it are the
//! human-readable report and a provenance stamp. `--smoke` shrinks every
//! workload to a size that runs in about a second. See `README.md`.

mod cluster;
mod fleet;
mod frontier;
mod rng;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use dpm_harness::Json;

use crate::trace::Tracer;

/// End-to-end metrics: every `--trace 0` run reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("success_frac", "ratio"),
];

/// Per-layer metrics: every `--trace 1` run reports all of them, with 0
/// for a layer the workload does not reach.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.build_ms", "ms"),
    ("core.metrics_ms", "ms"),
    ("mdp.pi_ms", "ms"),
    ("mdp.eval_ms", "ms"),
    ("mdp.improve_ms", "ms"),
    ("mdp.rounds", "count"),
    ("mdp.singular_failures", "count"),
    ("mdp.nonconverged_failures", "count"),
    ("linalg.lu_flops_computed", "flop"),
    ("serve.compile_ms", "ms"),
    ("serve.lookup_ns", "ns"),
    ("serve.shard_speedup", "x"),
    ("serve.overhead_ms", "ms"),
    ("serve.journal_overhead_ms", "ms"),
    ("serve.journal_bytes", "bytes"),
    ("serve.journal_records", "count"),
    ("serve.resume_ms", "ms"),
    ("serve.swaps_accepted", "count"),
    ("sim.run_events_per_s_1t", "1/s"),
    ("sim.merge_ms", "ms"),
    ("sim.events", "count"),
    ("sim.switches", "count"),
    ("sim.lost", "count"),
    ("cluster.model_ms", "ms"),
    ("cluster.joint_mf_ms", "ms"),
    ("cluster.joint_iters", "count"),
    ("linalg.kron_matvec_us", "us"),
    ("cluster.lumped_gen_ms", "ms"),
    ("ctmc.lumped_solve_ms", "ms"),
    ("ctmc.escalations", "count"),
    ("ctmc.lu_final_solves", "count"),
    ("linalg.sparse_lu_factor_nnz", "count"),
    ("linalg.sparse_lu_factor_ms", "ms"),
    ("cluster.refine_ms", "ms"),
    ("cluster.k16_lumped_ms", "ms"),
    ("cluster.k16_sweeps", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage_pct", "%"),
    ("trace.ops", "count"),
];

/// Command-line options every workload receives.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
}

/// One measured operation.
pub struct Op {
    /// Wall time of the operation alone (gates run outside it).
    pub secs: f64,
    /// Share of the operation that succeeded, in `[0, 1]`.
    pub success: f64,
    /// The operation met an error the workload does not expect.
    pub failed: bool,
}

/// An untraced run: set-up times, operations, and workload-specific
/// figures for the report.
pub struct Measured {
    pub setup_secs: Vec<f64>,
    pub ops: Vec<Op>,
    pub report: Vec<String>,
}

/// A traced run: per-layer values plus the paired operation times the
/// tracing overhead comes from.
pub struct Traced {
    pub layers: BTreeMap<&'static str, f64>,
    pub tracer: Tracer,
    pub untraced_secs: Vec<f64>,
    pub traced_secs: Vec<f64>,
    pub report: Vec<String>,
}

impl Default for Traced {
    fn default() -> Traced {
        Traced {
            layers: BTreeMap::new(),
            tracer: Tracer::new(),
            untraced_secs: Vec::new(),
            traced_secs: Vec::new(),
            report: Vec::new(),
        }
    }
}

/// Seconds `body` takes, with its result.
pub fn timed<T>(body: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = body();
    (out, start.elapsed().as_secs_f64())
}

/// The closed loop: operation `i + 1` starts when operation `i` ends.
/// Operations run in whole units of `unit`; the loop stops before a unit
/// that would likely end past `seconds` of wall time (judged by the mean
/// so far), after at least one unit.
pub fn closed_loop<T>(
    seconds: f64,
    unit: usize,
    mut op: impl FnMut(usize) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(op(out.len())?);
        let n = out.len();
        let projected = start.elapsed().as_secs_f64() * (n + unit) as f64 / n as f64;
        if n.is_multiple_of(unit) && projected > seconds {
            return Ok(out);
        }
    }
}

/// Sets up once, then runs the closed loop, timing the set-up again after
/// every operation (the copy is dropped) so that `setup_s` samples the
/// same stretch of time as the operations do.
pub fn setup_and_loop<S, T>(
    seconds: f64,
    unit: usize,
    mut setup: impl FnMut() -> Result<S, String>,
    mut op: impl FnMut(&S, usize) -> Result<T, String>,
) -> Result<(S, Vec<f64>, Vec<T>), String> {
    let (state, secs) = timed(&mut setup);
    let state = state?;
    let mut setup_secs = vec![secs];
    let ops = closed_loop(seconds, unit, |i| {
        let out = op(&state, i)?;
        let (again, secs) = timed(&mut setup);
        again?;
        setup_secs.push(secs);
        Ok(out)
    })?;
    Ok((state, setup_secs, ops))
}

/// The `p`-quantile of sorted data, interpolating between ranks.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Report line for latency samples in milliseconds: the median, and the
/// 90th percentile only when at least ten samples lie beyond it.
pub fn latency_line(name: &str, secs: &[f64]) -> String {
    let ms = sorted(secs.iter().map(|s| s * 1e3));
    let n = ms.len();
    let beyond = n / 10;
    let p90 = if beyond >= 10 {
        format!("p90 {:.3} ms", quantile(&ms, 0.9))
    } else {
        "p90 n/a (fewer than 10 samples beyond it)".to_owned()
    };
    format!("{name}: p50 {:.3} ms, {p90}, n = {n}", quantile(&ms, 0.5))
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing VmHWM: {e}"))?;
    Ok(kb / 1024.0)
}

/// First line of a command's output, or `unknown`.
fn first_line(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn stamp(workload: &str, opts: &Opts, trace: bool, ops: usize) -> Json {
    let mut s = Json::object();
    // Only the working directory's own repository, never a parent's.
    let git = first_line(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_DIR", ".git"),
    );
    s.set("git_rev", git);
    s.set(
        "nproc",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get),
    );
    s.set("rustc", first_line(Command::new("rustc").arg("--version")));
    s.set("workload", workload);
    s.set("seed", opts.seed);
    s.set("seconds", Json::num(opts.seconds));
    s.set("trace", trace);
    s.set("smoke", opts.smoke);
    s.set("operations", ops);
    s
}

fn result_line(attempted: usize, failed: usize, metrics: &[(&str, &str, f64)]) -> String {
    let mut m = Json::object();
    for &(name, unit, value) in metrics {
        let mut v = Json::object();
        v.set("value", Json::num(value));
        v.set("unit", unit);
        m.set(name, v);
    }
    let mut out = Json::object();
    out.set("correct", true);
    out.set("attempted", attempted);
    out.set("failed", failed);
    out.set("metrics", m);
    out.render_compact()
}

fn measured_metrics(m: &Measured) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let busy: f64 = m.ops.iter().map(|o| o.secs).sum();
    let good: f64 = m.ops.iter().map(|o| o.success).sum();
    let ok_secs: Vec<f64> = m
        .ops
        .iter()
        .filter(|o| o.success >= 1.0)
        .map(|o| o.secs * 1e3)
        .collect();
    let values = [
        (
            "setup_s",
            quantile(&sorted(m.setup_secs.iter().copied()), 0.5),
        ),
        ("peak_rss_mb", peak_rss_mb()?),
        ("ops_per_s", good / busy),
        ("op_p50_ms", quantile(&sorted(ok_secs), 0.5)),
        ("success_frac", good / m.ops.len() as f64),
    ];
    with_units(END_TO_END, &values.into_iter().collect())
}

fn traced_metrics(t: &mut Traced) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let op_secs: f64 = t.traced_secs.iter().sum();
    let summary = t.tracer.summary();
    let root_self = summary.get(trace::OP).map_or(0.0, |s| s.self_secs);
    t.layers.insert(
        "trace.overhead_ms",
        (mean(&t.traced_secs) - mean(&t.untraced_secs)) * 1e3,
    );
    t.layers
        .insert("trace.coverage_pct", 100.0 * (1.0 - root_self / op_secs));
    t.layers.insert("trace.ops", t.traced_secs.len() as f64);
    let mut values = BTreeMap::new();
    for &(name, _) in PER_LAYER {
        values.insert(name, t.layers.get(name).copied().unwrap_or(0.0));
    }
    for name in t.layers.keys() {
        if !values.contains_key(name) {
            return Err(format!("workload reported undeclared layer metric {name}"));
        }
    }
    with_units(PER_LAYER, &values)
}

fn with_units(
    table: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    table
        .iter()
        .map(|&(name, unit)| {
            let v = *values.get(name).ok_or(format!("metric {name} missing"))?;
            if v.is_finite() {
                Ok((name, unit, v))
            } else {
                Err(format!("metric {name} is not finite: {v}"))
            }
        })
        .collect()
}

fn print_span_table(t: &Traced) {
    let ops = t.traced_secs.len().max(1) as f64;
    let op_ms = mean(&t.traced_secs) * 1e3;
    println!(
        "spans (per traced operation, {} operations):",
        t.traced_secs.len()
    );
    println!(
        "  {:<24} {:>8} {:>12} {:>12} {:>8}",
        "span", "calls", "total ms", "self ms", "share"
    );
    for (name, s) in t.tracer.summary() {
        let total = s.total_secs * 1e3 / ops;
        println!(
            "  {:<24} {:>8.2} {:>12.4} {:>12.4} {:>7.1}%",
            name,
            s.calls as f64 / ops,
            total,
            s.self_secs * 1e3 / ops,
            100.0 * total / op_ms
        );
    }
    println!("layer metric shares of the traced operation ({op_ms:.3} ms):");
    for (name, v) in &t.layers {
        if name.ends_with("_ms") && !name.starts_with("trace.") {
            println!("  {name:<28} {:>7.1}%", 100.0 * v / op_ms);
        }
    }
}

fn run(workload: &str, opts: &Opts, trace: bool) -> Result<String, String> {
    let mut lines = Vec::new();
    let result = if trace {
        let mut t = match workload {
            "frontier" => frontier::trace(opts)?,
            "fleet" => fleet::trace(opts, false)?,
            "fleet_durable" => fleet::trace(opts, true)?,
            "cluster" => cluster::trace(opts)?,
            other => return Err(format!("unknown workload `{other}`")),
        };
        let metrics = traced_metrics(&mut t)?;
        print_span_table(&t);
        lines.extend(t.report.iter().cloned());
        for &(name, unit, v) in &metrics {
            lines.push(format!("layer {name} = {v} {unit}"));
        }
        lines.push(format!(
            "stamp {}",
            stamp(workload, opts, true, t.traced_secs.len()).render_compact()
        ));
        result_line(t.traced_secs.len(), 0, &metrics)
    } else {
        let m = match workload {
            "frontier" => frontier::measure(opts)?,
            "fleet" => fleet::measure(opts, false)?,
            "fleet_durable" => fleet::measure(opts, true)?,
            "cluster" => cluster::measure(opts)?,
            other => return Err(format!("unknown workload `{other}`")),
        };
        let metrics = measured_metrics(&m)?;
        lines.extend(m.report.iter().cloned());
        for &(name, unit, v) in &metrics {
            lines.push(format!("metric {name} = {v} {unit}"));
        }
        lines.push(format!(
            "stamp {}",
            stamp(workload, opts, false, m.ops.len()).render_compact()
        ));
        let failed = m.ops.iter().filter(|o| o.failed).count();
        result_line(m.ops.len(), failed, &metrics)
    };
    for line in lines {
        println!("{line}");
    }
    Ok(result)
}

fn parse_args() -> Result<(String, Opts, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value `{value}` for {flag}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            smoke,
        },
        trace,
    ))
}

fn main() -> ExitCode {
    let (workload, opts, trace) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload frontier|fleet|fleet_durable|cluster \
                 --seed N --seconds S --trace 0|1 [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&workload, &opts, trace) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
