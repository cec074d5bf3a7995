//! `cluster`: capacity planning for K-server fleets.
//!
//! Set-up builds the paper's Q = 5 SYS chain under the greedy policy.
//! One operation couples K = 3 copies of it with a work-migration term
//! that moves real probability mass (a server in mode 0 with 3 jobs
//! hands one job to a server in mode 0 with 1 job) at a rate drawn
//! log-uniform in [0.01, 0.5], solves the joint chain matrix-free and
//! through exchangeability lumping plus refinement, then solves a 6-state
//! M/M/1/5 fleet at K = 16 in occupancy space. A solve that returns an
//! error counts as a failed operation and the run goes on.

use dpm_cluster::{
    lumped_generator, solve_joint_matrix_free, solve_lumped, ClusterModel, CouplingTerm,
    JointOptions, JointSolution, LumpedSolution,
};
use dpm_core::{PmPolicy, PmSystem, SpModel, SrModel};
use dpm_ctmc::stationary::{Method, Solver};
use dpm_ctmc::SparseGenerator;
use dpm_linalg::{CsrMatrix, DVector, SparseLu};

use crate::rng::SplitMix;
use crate::trace::{span, Tracer};
use crate::{closed_loop, latency_line, setup_and_loop, timed, Measured, Op, Opts, Traced};

const RATE: (f64, f64) = (0.01, 0.5);
/// Rates are stratified over blocks of this many operations.
const BLOCK: usize = 4;
/// Gate: lumped-and-refined π against the matrix-free π.
const REFINE_GATE: f64 = 1e-8;
/// Gate: every distribution's mass.
const MASS_GATE: f64 = 1e-9;
/// Joint-operator matrix–vector products per traced operation.
const MATVECS: usize = 20;
const STREAM: u64 = 3;

struct Size {
    k_joint: usize,
    k_large: usize,
}

fn size(opts: &Opts) -> Size {
    if opts.smoke {
        Size {
            k_joint: 2,
            k_large: 4,
        }
    } else {
        Size {
            k_joint: 3,
            k_large: 16,
        }
    }
}

/// A migration coupling: `(from, to)` local-state moves of the donor and
/// of the receiver, fired together.
type Migration = [(usize, usize); 2];

/// The large fleet's coupling: a full server (5 jobs) hands one job to
/// an idle one, at a fixed rate. Drawn rates are kept off this solve:
/// BiCGSTAB breaks down on some of them (0.04591639442475679 is one) and
/// the fallback `SparseLu` on 20 349 states runs for minutes and
/// gigabytes, past any run's time limit.
const MM1K_MIGRATION: Migration = [(5, 4), (0, 1)];
const MM1K_RATE: f64 = 0.25;

/// What every operation shares: the two local chains and their
/// migration couplings.
struct Setup {
    paper: SparseGenerator,
    paper_migration: Migration,
    mm1k: SparseGenerator,
}

fn setup() -> Result<Setup, String> {
    let (paper, paper_migration) = paper_chain()?;
    let mut transitions = Vec::new();
    for i in 0..5 {
        transitions.push((i, i + 1, 2.0));
        transitions.push((i + 1, i, 3.0));
    }
    Ok(Setup {
        paper,
        paper_migration,
        mm1k: SparseGenerator::from_transitions(6, &transitions).map_err(e)?,
    })
}

/// Coupling rates in stratified blocks.
struct Inputs {
    rng: SplitMix,
    queue: Vec<f64>,
}

impl Inputs {
    fn get(&mut self, i: usize) -> f64 {
        while self.queue.len() <= i {
            let block = self.rng.log_strata(BLOCK, RATE.0, RATE.1);
            self.queue.extend(block);
        }
        self.queue[i]
    }
}

fn e(err: impl std::fmt::Display) -> String {
    err.to_string()
}

/// Index of the stable SYS state with `mode` and `jobs`.
fn stable_state(system: &PmSystem, mode: usize, jobs: usize) -> Result<usize, String> {
    (0..system.n_states())
        .find(|&i| {
            let s = system.state(i);
            !s.is_transfer() && s.mode() == mode && s.requests_present() == jobs
        })
        .ok_or_else(|| format!("no stable state with mode {mode} and {jobs} jobs"))
}

/// The paper's SYS chain under the greedy policy, with its migration
/// coupling: a server in mode 0 with 3 jobs hands one job to a server in
/// mode 0 with 1 job, leaving both with 2.
fn paper_chain() -> Result<(SparseGenerator, Migration), String> {
    let system = PmSystem::builder()
        .provider(SpModel::dac99_server().map_err(e)?)
        .requestor(SrModel::poisson(1.0 / 6.0).map_err(e)?)
        .capacity(5)
        .build()
        .map_err(e)?;
    let chain = PmPolicy::greedy(&system)
        .and_then(|p| system.sparse_generator_for(&p))
        .map_err(e)?;
    let two = stable_state(&system, 0, 2)?;
    let migration = [
        (stable_state(&system, 0, 3)?, two),
        (stable_state(&system, 0, 1)?, two),
    ];
    Ok((chain, migration))
}

/// A K-server fleet of `local` coupled by `migration` at `rate`.
fn coupled_fleet(
    local: SparseGenerator,
    k: usize,
    rate: f64,
    [(d, d2), (r, r2)]: Migration,
) -> Result<ClusterModel, String> {
    let n = local.n_states();
    let term = CouplingTerm::new(
        rate,
        CsrMatrix::from_triplets(n, n, &[(d, d2, 1.0)]).map_err(e)?,
        CsrMatrix::from_triplets(n, n, &[(r, r2, 1.0)]).map_err(e)?,
    )
    .map_err(e)?;
    ClusterModel::new(local, k)
        .and_then(|m| m.with_coupling(term))
        .map_err(e)
}

/// What one operation produced, for the gates and the report.
struct Solved {
    model: ClusterModel,
    joint: JointSolution,
    refined: DVector,
    lumped: LumpedSolution,
    large: LumpedSolution,
}

fn operation(s: &Setup, size: &Size, rate: f64, tracer: Option<&Tracer>) -> Result<Solved, String> {
    let (model, large) = span(tracer, "cluster.model", || {
        Ok::<_, String>((
            coupled_fleet(s.paper.clone(), size.k_joint, rate, s.paper_migration)?,
            coupled_fleet(s.mm1k.clone(), size.k_large, MM1K_RATE, MM1K_MIGRATION)?,
        ))
    })?;
    let joint = span(tracer, "cluster.joint_mf", || {
        solve_joint_matrix_free(&model, &JointOptions::default())
    })
    .map_err(e)?;
    let lumped = span(tracer, "cluster.lumped", || solve_lumped(&model)).map_err(e)?;
    let refined = span(tracer, "cluster.refine", || lumped.refine_joint()).map_err(e)?;
    let large = span(tracer, "cluster.k16_lumped", || solve_lumped(&large)).map_err(e)?;
    Ok(Solved {
        model,
        joint,
        refined,
        lumped,
        large,
    })
}

fn mass_gate(what: &str, pi: &DVector) -> Result<(), String> {
    let mass = pi.sum();
    if (mass - 1.0).abs() > MASS_GATE {
        return Err(format!("{what}: probability mass {mass} is not 1"));
    }
    Ok(())
}

/// Gates: the lumped-and-refined π equals the matrix-free π, and every
/// distribution is normalized.
fn gate(rate: f64, s: &Solved) -> Result<(), String> {
    let pi = s.joint.pi();
    let diff = (0..s.refined.len())
        .map(|i| (s.refined[i] - pi[i]).abs())
        .fold(0.0f64, f64::max);
    if diff.is_nan() || diff > REFINE_GATE {
        return Err(format!(
            "rate {rate}: refined lumped π differs from matrix-free π by {diff:e}"
        ));
    }
    mass_gate("matrix-free joint π", pi)?;
    mass_gate("lumped π", s.lumped.pi())?;
    mass_gate("large-fleet lumped π", s.large.pi())
}

pub fn measure(opts: &Opts) -> Result<Measured, String> {
    let size = size(opts);
    let mut inputs = Inputs {
        rng: SplitMix::new(opts.seed, STREAM),
        queue: Vec::new(),
    };
    let mut last = None;
    let (s, setup_secs, ops) = setup_and_loop(opts.seconds, 1, setup, |s, i| {
        let rate = inputs.get(i);
        let (solved, secs) = timed(|| operation(s, &size, rate, None));
        let solved = match solved {
            Ok(solved) => solved,
            Err(e) => {
                eprintln!("cluster solve failed at rate {rate}: {e}");
                return Ok(Op {
                    secs,
                    success: 0.0,
                    failed: true,
                });
            }
        };
        gate(rate, &solved)?;
        last = Some((rate, solved));
        Ok(Op {
            secs,
            success: 1.0,
            failed: false,
        })
    })?;
    let secs: Vec<f64> = ops.iter().filter(|o| !o.failed).map(|o| o.secs).collect();
    let mut report = vec![latency_line("cluster solve latency", &secs)];
    if let Some((rate, solved)) = last {
        let stats = solved.lumped.stats();
        let occupancy = solved.lumped.mean_occupancy();
        let [(donor, _), (receiver, _)] = s.paper_migration;
        report.push(format!(
            "last operation: rate {rate:.4}; K={} lumped solve ended in {} after {} escalation(s); \
             K={} lumped solve ended in {} after {} sweeps; matrix-free joint solve took {} \
             iterations; mean servers in the donor state {:.4e}, in the receiver state {:.4e}",
            size.k_joint,
            stats.method().name(),
            stats.escalation().len(),
            size.k_large,
            solved.large.stats().method().name(),
            solved.large.stats().sweeps(),
            solved.joint.iterations(),
            occupancy[donor],
            occupancy[receiver],
        ));
    }
    Ok(Measured {
        setup_secs,
        ops,
        report,
    })
}

/// The normalization-row system `solve_lumped`'s direct fallback
/// factors, built as `dpm_ctmc::stationary` builds it: Gᵀ with columns
/// scaled by their largest entry and the last balance row replaced by
/// Σπ = 1.
fn normalization_system(generator: &SparseGenerator) -> Result<CsrMatrix, String> {
    let n = generator.n_states();
    let mut col_max = vec![0.0f64; n];
    for (_, j, v) in generator.csr().iter() {
        if j < n - 1 {
            col_max[j] = col_max[j].max(v.abs());
        }
    }
    let mut triplets = Vec::with_capacity(generator.nnz() + n);
    for (i, j, v) in generator.csr().iter() {
        if j == n - 1 {
            continue;
        }
        let scale = if col_max[j] > 0.0 { col_max[j] } else { 1.0 };
        triplets.push((j, i, v / scale));
    }
    for c in 0..n {
        triplets.push((n - 1, c, 1.0));
    }
    CsrMatrix::from_triplets(n, n, &triplets).map_err(e)
}

/// Per-iteration sums behind the layer metrics measured outside the
/// traced operation.
#[derive(Default)]
struct Sums {
    joint_iters: f64,
    matvec: f64,
    gen: f64,
    solve: f64,
    escalations: f64,
    lu_final: f64,
    factor_nnz: f64,
    factor: f64,
    sweeps: f64,
}

pub fn trace(opts: &Opts) -> Result<Traced, String> {
    let size = size(opts);
    let s = setup()?;
    let mut inputs = Inputs {
        rng: SplitMix::new(opts.seed, STREAM),
        queue: Vec::new(),
    };
    let mut t = Traced::default();
    let mut sums = Sums::default();
    let iterations = {
        let tracer = &t.tracer;
        closed_loop(opts.seconds, 1, |i| {
            let rate = inputs.get(i);
            let (untraced, untraced_secs) = timed(|| operation(&s, &size, rate, None));
            gate(rate, &untraced?)?;
            let (solved, traced_secs) = tracer.op(i, || operation(&s, &size, rate, Some(tracer)));
            let solved = solved?;
            gate(rate, &solved)?;
            sums.joint_iters += solved.joint.iterations() as f64;
            sums.sweeps += solved.large.stats().sweeps() as f64;

            let op = solved.model.joint_operator().map_err(e)?;
            let x = DVector::constant(op.dim(), 1.0 / op.dim() as f64);
            let (y, matvec) = timed(|| {
                let mut y = x.clone();
                for _ in 0..MATVECS {
                    y = op.mul_vec(std::hint::black_box(&x));
                }
                y
            });
            std::hint::black_box(y);
            sums.matvec += matvec / MATVECS as f64;

            let (lumped, gen) = timed(|| lumped_generator(&solved.model));
            let (_, generator) = lumped.map_err(e)?;
            sums.gen += gen;
            let (solution, solve) = timed(|| {
                Solver::new(Method::BiCgStab)
                    .with_default_fallback()
                    .solve(&generator)
            });
            let (_, stats) = solution.map_err(e)?;
            sums.solve += solve;
            sums.escalations += stats.escalation().len() as f64;
            sums.lu_final += f64::from(u8::from(stats.method() == Method::Lu));

            let system = normalization_system(&generator)?;
            let (lu, factor) = timed(|| SparseLu::new(&system));
            sums.factor_nnz += lu.map_err(e)?.factor_nnz() as f64;
            sums.factor += factor;
            Ok((untraced_secs, traced_secs))
        })
    };
    (t.untraced_secs, t.traced_secs) = iterations?.into_iter().unzip();
    let n = t.traced_secs.len() as f64;
    t.layers.extend([
        ("cluster.model_ms", t.tracer.ms_per_op("cluster.model")),
        (
            "cluster.joint_mf_ms",
            t.tracer.ms_per_op("cluster.joint_mf"),
        ),
        ("cluster.refine_ms", t.tracer.ms_per_op("cluster.refine")),
        (
            "cluster.k16_lumped_ms",
            t.tracer.ms_per_op("cluster.k16_lumped"),
        ),
        ("cluster.joint_iters", sums.joint_iters / n),
        ("cluster.k16_sweeps", sums.sweeps / n),
        ("linalg.kron_matvec_us", sums.matvec * 1e6 / n),
        ("cluster.lumped_gen_ms", sums.gen * 1e3 / n),
        ("ctmc.lumped_solve_ms", sums.solve * 1e3 / n),
        ("ctmc.escalations", sums.escalations / n),
        ("ctmc.lu_final_solves", sums.lu_final / n),
        ("linalg.sparse_lu_factor_nnz", sums.factor_nnz / n),
        ("linalg.sparse_lu_factor_ms", sums.factor * 1e3 / n),
    ]);
    t.report.push(
        "cluster.lumped_gen_ms, ctmc.*, linalg.* are re-measured after each traced operation \
         on the same lumped chain; their shares overlap the cluster.lumped span"
            .to_owned(),
    );
    Ok(t)
}
