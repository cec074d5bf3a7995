//! `fleet` and `fleet_durable`: the serving hot path.
//!
//! One `fleet` operation is one `serve()` of 256 systems × 2 000 requests
//! on 2 shards, under the paper's Q = 5, w = 1 optimal policy compiled in
//! set-up; each operation gets its own root seed. A `fleet_durable`
//! operation serves the same fleet with a checkpoint journal and one hot
//! swap to the w = 10 policy at a 3 000-event barrier, cuts the journal
//! at a seeded fraction of its bytes (a kill mid-append), and resumes.

use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dpm_core::{optimize, PmSystem, SpModel, SrModel};
use dpm_harness::{artifact, seed::derive_serve_attempt_seed};
use dpm_serve::{serve, CompiledController, CompiledPolicy, ServeConfig, ServeOutcome, SwapPlan};
use dpm_sim::workload::PoissonWorkload;
use dpm_sim::{MergedReport, SimConfig, Simulator};

use crate::rng::SplitMix;
use crate::trace::{span, Tracer};
use crate::{closed_loop, latency_line, setup_and_loop, timed, Measured, Op, Opts, Traced};

const SHARDS: usize = 2;
const WEIGHT: f64 = 1.0;
const SWAP_WEIGHT: f64 = 10.0;
/// The journal is cut at a seeded fraction of its bytes in this range.
const CUT: (f64, f64) = (0.2, 0.9);
/// Lookup sweeps over every state per traced operation.
const LOOKUP_ROUNDS: usize = 20_000;
/// Where journals live while an operation runs, relative to the working
/// directory (the checkout root).
const SCRATCH_DIR: &str = ".bench_out";
const STREAM: u64 = 2;

struct Size {
    systems: usize,
    requests: u64,
    swap_at: u64,
}

fn size(opts: &Opts) -> Size {
    if opts.smoke {
        Size {
            systems: 8,
            requests: 200,
            swap_at: 300,
        }
    } else {
        Size {
            systems: 256,
            requests: 2_000,
            swap_at: 3_000,
        }
    }
}

struct Setup {
    system: PmSystem,
    compiled: CompiledPolicy,
    swap_to: CompiledPolicy,
}

/// Builds the paper's server (Q = 5, λ = 1/6) and compiles its optimal
/// policies for w = 1 and, when durable, the swap target w = 10.
fn setup(durable: bool) -> Result<Setup, String> {
    let system = PmSystem::builder()
        .provider(SpModel::dac99_server().map_err(|e| e.to_string())?)
        .requestor(SrModel::poisson(1.0 / 6.0).map_err(|e| e.to_string())?)
        .capacity(5)
        .build()
        .map_err(|e| e.to_string())?;
    let compile = |w: f64| -> Result<CompiledPolicy, String> {
        let solution = optimize::optimal_policy(&system, w).map_err(|e| e.to_string())?;
        CompiledPolicy::compile(&system, solution.policy()).map_err(|e| e.to_string())
    };
    let compiled = compile(WEIGHT)?;
    let swap_to = if durable {
        fs::create_dir_all(SCRATCH_DIR).map_err(|e| format!("creating {SCRATCH_DIR}: {e}"))?;
        compile(SWAP_WEIGHT)?
    } else {
        compiled.clone()
    };
    Ok(Setup {
        system,
        compiled,
        swap_to,
    })
}

/// The next operation's inputs: the fleet's root seed and the journal cut.
fn next_inputs(rng: &mut SplitMix) -> (u64, f64) {
    let root = rng.next_u64();
    let cut = CUT.0 + rng.unit() * (CUT.1 - CUT.0);
    (root, cut)
}

fn config(size: &Size, root: u64) -> ServeConfig {
    ServeConfig::new(root)
        .systems(size.systems)
        .requests_per_system(size.requests)
        .shards(SHARDS)
}

fn journal_path() -> PathBuf {
    Path::new(SCRATCH_DIR).join(format!("journal-{}.jsonl", std::process::id()))
}

/// The durable operation's configuration: journal plus one hot swap.
fn durable_config(size: &Size, s: &Setup, root: u64, journal: &Path) -> ServeConfig {
    config(size, root)
        .swaps(SwapPlan::new().swap_at(size.swap_at, s.swap_to.clone()))
        .checkpoint(journal)
}

/// Simulates a kill mid-append: keeps the first `cut` share of the
/// journal's bytes. Returns the journal's size and record count before
/// the cut.
fn kill(journal: &Path, cut: f64) -> Result<(usize, usize), String> {
    let bytes = fs::read(journal).map_err(|e| format!("reading journal: {e}"))?;
    let records = bytes
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        .saturating_sub(1);
    let keep = (bytes.len() as f64 * cut) as u64;
    fs::OpenOptions::new()
        .write(true)
        .open(journal)
        .and_then(|f| f.set_len(keep))
        .map_err(|e| format!("truncating journal: {e}"))?;
    Ok((bytes.len(), records))
}

/// Fraction of the fleet served (quarantined systems count against it).
fn served_share(outcome: &ServeOutcome) -> f64 {
    outcome.served() as f64 / outcome.systems() as f64
}

/// The durable operation's result.
struct Durable {
    full: ServeOutcome,
    resumed: ServeOutcome,
    serve_secs: f64,
    resume_secs: f64,
    journal_bytes: usize,
    journal_records: usize,
}

fn durable_op(
    size: &Size,
    s: &Setup,
    root: u64,
    cut: f64,
    tracer: Option<&Tracer>,
) -> Result<Durable, String> {
    let journal = journal_path();
    let config = durable_config(size, s, root, &journal);
    let resume = config.clone().resume(&journal);
    let (full, serve_secs) = span(tracer, "serve.journaled", || {
        timed(|| serve(&s.system, &s.compiled, &config))
    });
    let full = full.map_err(|e| format!("journaled serve: {e}"))?;
    let (journal_bytes, journal_records) = span(tracer, "bench.kill", || kill(&journal, cut))?;
    let (resumed, resume_secs) = span(tracer, "serve.resume", || {
        timed(|| serve(&s.system, &s.compiled, &resume))
    });
    let resumed = resumed.map_err(|e| format!("resumed serve: {e}"))?;
    fs::remove_file(&journal).map_err(|e| format!("removing journal: {e}"))?;
    Ok(Durable {
        full,
        resumed,
        serve_secs,
        resume_secs,
        journal_bytes,
        journal_records,
    })
}

/// Gate: the resumed fleet equals the uninterrupted one at tolerance 0,
/// and the hot swap was accepted.
fn durable_gate(d: &Durable) -> Result<(), String> {
    if d.full.fingerprint() != d.resumed.fingerprint()
        || !artifact::diff(&d.full.to_json(), &d.resumed.to_json(), 0.0).is_empty()
    {
        return Err("resumed fleet differs from the uninterrupted fleet".to_owned());
    }
    if d.full.swap_outcomes().is_empty() || !d.full.swap_outcomes().iter().all(|o| o.accepted()) {
        return Err("the hot swap was not accepted".to_owned());
    }
    Ok(())
}

fn cleanup() {
    // Best effort: a failed operation may leave its journal behind, and
    // the directory may hold another run's journal.
    fs::remove_file(journal_path()).ok();
    fs::remove_dir(SCRATCH_DIR).ok();
}

pub fn measure(opts: &Opts, durable: bool) -> Result<Measured, String> {
    let size = size(opts);
    let mut rng = SplitMix::new(opts.seed, STREAM);
    let mut serve_secs = Vec::new();
    let mut resume_secs = Vec::new();
    let mut events = 0u64;
    let mut first: Option<(u64, u64)> = None;
    let looped = setup_and_loop(
        opts.seconds,
        1,
        || setup(durable),
        |s, _| {
            let (root, cut) = next_inputs(&mut rng);
            if durable {
                let (d, secs) = timed(|| durable_op(&size, s, root, cut, None));
                let d = d?;
                durable_gate(&d)?;
                serve_secs.push(d.serve_secs);
                resume_secs.push(d.resume_secs);
                events += d.full.merged().events();
                return Ok(Op {
                    secs,
                    success: served_share(&d.full).min(served_share(&d.resumed)),
                    failed: false,
                });
            }
            let config = config(&size, root);
            let (outcome, secs) = timed(|| serve(&s.system, &s.compiled, &config));
            Ok(match outcome {
                Ok(outcome) => {
                    first.get_or_insert((root, outcome.fingerprint()));
                    serve_secs.push(secs);
                    events += outcome.merged().events();
                    Op {
                        secs,
                        success: served_share(&outcome),
                        failed: outcome.quarantined() > 0,
                    }
                }
                Err(e) => {
                    eprintln!("serve failed: {e}");
                    Op {
                        secs,
                        success: 0.0,
                        failed: true,
                    }
                }
            })
        },
    );
    cleanup();
    let (s, setup_secs, ops) = looped?;
    if let Some((root, fingerprint)) = first {
        // Gate, once and outside the timed loop: one shard reproduces the
        // sharded fleet bit for bit.
        let single = serve(&s.system, &s.compiled, &config(&size, root).shards(1))
            .map_err(|e| format!("1-shard serve: {e}"))?;
        if single.fingerprint() != fingerprint {
            return Err("1-shard fingerprint differs from the 2-shard one".to_owned());
        }
    }
    let serve_total: f64 = serve_secs.iter().sum();
    let mut report = vec![
        latency_line("serve latency", &serve_secs),
        format!(
            "events_per_s = {} 1/s (simulated events over serve time)",
            events as f64 / serve_total
        ),
    ];
    if durable {
        report.push(latency_line("resume latency", &resume_secs));
    }
    Ok(Measured {
        setup_secs,
        ops,
        report,
    })
}

/// Serves the fleet one system at a time on this thread, exactly as the
/// sharded runtime builds each system, and returns the reports with the
/// summed simulation time.
fn single_thread_fleet(
    size: &Size,
    s: &Setup,
    shared: &Arc<CompiledPolicy>,
    root: u64,
) -> Result<(Vec<dpm_sim::SimReport>, f64), String> {
    let lambda = s.system.requestor().rate();
    let mut reports = Vec::with_capacity(size.systems);
    let mut total = 0.0;
    for i in 0..size.systems {
        let workload = PoissonWorkload::new(lambda).map_err(|e| e.to_string())?;
        let config = SimConfig::new(derive_serve_attempt_seed(root, i as u64, 0))
            .max_requests(size.requests);
        let sim = Simulator::new(
            s.system.provider().clone(),
            s.system.capacity(),
            workload,
            CompiledController::new(Arc::clone(shared)),
            config,
        );
        let (report, secs) = timed(|| sim.run());
        reports.push(report.map_err(|e| format!("simulating system {i}: {e}"))?);
        total += secs;
    }
    Ok((reports, total))
}

/// Per-iteration sums behind the fleet layer metrics.
#[derive(Default)]
struct FleetSums {
    one_shard: f64,
    two_shard: f64,
    sim: f64,
    merge: f64,
    lookup_ns: f64,
    events: f64,
    switches: f64,
    lost: f64,
    plain: f64,
    journaled: f64,
    journal_bytes: f64,
    journal_records: f64,
    swaps: f64,
}

pub fn trace(opts: &Opts, durable: bool) -> Result<Traced, String> {
    let size = size(opts);
    let s = setup(durable)?;
    let shared = Arc::new(s.compiled.clone());
    let mut rng = SplitMix::new(opts.seed, STREAM);
    let mut t = Traced::default();
    let mut sums = FleetSums::default();
    let iterations = {
        let tracer = &t.tracer;
        closed_loop(opts.seconds, 1, |i| {
            let (root, cut) = next_inputs(&mut rng);
            if durable {
                let (d, untraced) = timed(|| durable_op(&size, &s, root, cut, None));
                let d = d?;
                durable_gate(&d)?;
                let (traced, traced_secs) =
                    tracer.op(i, || durable_op(&size, &s, root, cut, Some(tracer)));
                let traced = traced?;
                durable_gate(&traced)?;
                let swaps = config(&size, root)
                    .swaps(SwapPlan::new().swap_at(size.swap_at, s.swap_to.clone()));
                let (plain, plain_secs) = timed(|| serve(&s.system, &s.compiled, &swaps));
                if plain.map_err(|e| e.to_string())?.fingerprint() != d.full.fingerprint() {
                    return Err("journaling changed the served fleet".to_owned());
                }
                sums.plain += plain_secs;
                sums.journaled += d.serve_secs;
                sums.journal_bytes += traced.journal_bytes as f64;
                sums.journal_records += traced.journal_records as f64;
                sums.swaps += traced
                    .full
                    .swap_outcomes()
                    .iter()
                    .filter(|o| o.accepted())
                    .count() as f64;
                let m = traced.full.merged();
                sums.events += m.events() as f64;
                sums.switches += m.switches() as f64;
                sums.lost += m.lost() as f64;
                return Ok((untraced, traced_secs));
            }
            let config = config(&size, root);
            let (outcome, untraced) = timed(|| serve(&s.system, &s.compiled, &config));
            let outcome = outcome.map_err(|e| e.to_string())?;
            let (traced, traced_secs) = tracer.op(i, || {
                tracer.span("serve.serve", || serve(&s.system, &s.compiled, &config))
            });
            if traced.map_err(|e| e.to_string())?.fingerprint() != outcome.fingerprint() {
                return Err("traced serve differs from the untraced one".to_owned());
            }
            let (single, one_shard) =
                timed(|| serve(&s.system, &s.compiled, &config.clone().shards(1)));
            if single.map_err(|e| e.to_string())?.fingerprint() != outcome.fingerprint() {
                return Err("1-shard fingerprint differs from the 2-shard one".to_owned());
            }
            let (reports, sim_secs) = single_thread_fleet(&size, &s, &shared, root)?;
            let (merged, merge_secs) = timed(|| {
                let mut merged = MergedReport::new();
                for r in &reports {
                    merged.absorb(r);
                }
                merged
            });
            if merged != *outcome.merged() {
                return Err("single-thread fleet differs from the served fleet".to_owned());
            }
            let states = s.system.n_states();
            let (acc, lookup_secs) = timed(|| {
                let mut acc = 0usize;
                for _ in 0..LOOKUP_ROUNDS {
                    for j in 0..states {
                        acc += s.compiled.action(black_box(s.system.state(j))).unwrap_or(0);
                    }
                }
                acc
            });
            black_box(acc);
            sums.one_shard += one_shard;
            sums.two_shard += untraced;
            sums.sim += sim_secs;
            sums.merge += merge_secs;
            sums.lookup_ns += lookup_secs * 1e9 / (LOOKUP_ROUNDS * states) as f64;
            sums.events += merged.events() as f64;
            sums.switches += merged.switches() as f64;
            sums.lost += merged.lost() as f64;
            Ok((untraced, traced_secs))
        })
    };
    cleanup();
    (t.untraced_secs, t.traced_secs) = iterations?.into_iter().unzip();
    let n = t.traced_secs.len() as f64;
    t.layers.extend([
        ("sim.events", sums.events / n),
        ("sim.switches", sums.switches / n),
        ("sim.lost", sums.lost / n),
    ]);
    if durable {
        t.layers.extend([
            (
                "serve.journal_overhead_ms",
                (sums.journaled - sums.plain) * 1e3 / n,
            ),
            ("serve.journal_bytes", sums.journal_bytes / n),
            ("serve.journal_records", sums.journal_records / n),
            ("serve.resume_ms", t.tracer.ms_per_op("serve.resume")),
            ("serve.swaps_accepted", sums.swaps / n),
        ]);
    } else {
        t.layers.extend([
            ("sim.run_events_per_s_1t", sums.events / sums.sim),
            ("serve.lookup_ns", sums.lookup_ns / n),
            ("serve.shard_speedup", sums.one_shard / sums.two_shard),
            (
                "serve.overhead_ms",
                (sums.two_shard - sums.sim / SHARDS as f64) * 1e3 / n,
            ),
            ("sim.merge_ms", sums.merge * 1e3 / n),
        ]);
    }
    t.report.push(format!(
        "nproc = {}; serve.shard_speedup and serve.overhead_ms depend on it",
        std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
    ));
    Ok(t)
}
