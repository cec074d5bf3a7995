//! Canonical solve-phase benchmark: kernel-level and end-to-end timings
//! into `BENCH_solve.json`.
//!
//! Three measurement groups, each with a correctness check riding along:
//!
//! 1. **Improvement kernels** at queue capacity `--capacity` (default
//!    100): a materialized dense per-action row scan (the
//!    `O(|S|·|A|·|S|)` baseline), the nested-list reference
//!    [`average::improve_step`], and the CSR kernel
//!    [`average::improve_step_csr`] — all three must pick identical
//!    policies.
//! 2. **Unichain vs multichain policy iteration** on a synthetic unichain
//!    ring: [`average::policy_iteration_from`] and
//!    [`average::policy_iteration_multichain`] must converge to the same
//!    policy and gain (≤ 1e-10), with the wall time of each recorded.
//! 3. **Solve-phase pipeline**: a weight sweep as a
//!    [`dpm_harness::solve::SolvePlan`] at 1 worker versus
//!    `--solve-workers`, checked bit-identical.
//! 4. **Stationary solver tiers**: sparse direct (`SparseLu`) versus the
//!    preconditioned Krylov methods (BiCGSTAB / GMRES + ILU(0)) on
//!    synthetic sparse birth–death chains up to `--tier-states` (default
//!    100 000) states, each at its default `Solver` settings, recording
//!    the direct↔Krylov crossover. All tiers must agree pairwise to
//!    ≤ 1e-8.
//! 5. **Multichain policy iteration** at Q = `--capacity` from the
//!    min-cost ("stay everywhere") start: the median of `--rounds`
//!    repeats, the `SparseLu` factor entries of the final policy's
//!    evaluation matrix, and its evaluation residual `‖c − g + G v‖∞`
//!    as a normwise backward error, which must stay ≤ 1e-8 (the rule
//!    the repo benchmark's `frontier` workload gates on).
//!
//! Deterministic fields (`params`, `checks`) are canonical; wall-clock
//! numbers live under the `timers` key, which the artifact diff strips.
//! On a single-core CI host the speedups are *recorded*, not asserted —
//! the kernel-level gains are algorithmic, the pipeline gain is not.
//!
//! ```text
//! cargo run --release -p dpm-bench --bin bench_solve -- \
//!     [--capacity Q] [--rounds R] [--solve-workers N] \
//!     [--tier-states N] [--seed S] \
//!     [--out results/BENCH_solve.json]
//! ```

use dpm_bench::{row, rule, time_sweeps, timed};
use dpm_core::{optimize, PmSystem, SpModel, SrModel};
use dpm_ctmc::{
    stationary::{self, Method},
    SparseGenerator,
};
use dpm_harness::{
    artifact,
    cli::{self, Args},
    solve, Json, PlanPoint, SolvePlan,
};
use dpm_mdp::{average, Ctmdp, Policy};

/// The paper's server model at an enlarged queue capacity.
fn paper_mdp(capacity: usize, weight: f64) -> Result<Ctmdp, Box<dyn std::error::Error>> {
    let system = PmSystem::builder()
        .provider(SpModel::dac99_server()?)
        .requestor(SrModel::poisson(1.0 / 6.0)?)
        .capacity(capacity)
        .build()?;
    Ok(system.ctmdp(weight)?)
}

/// A synthetic irreducible unichain ring (every policy unichain), the
/// substrate for the unichain-vs-multichain comparison.
fn ring(n: usize) -> Ctmdp {
    let mut b = Ctmdp::builder(n);
    for i in 0..n {
        let next = (i + 1) % n;
        let shortcut = (i + 2) % n;
        #[allow(clippy::cast_precision_loss)]
        let cost = 1.0 + i as f64 * 0.37;
        #[allow(clippy::cast_precision_loss)]
        let rate = 1.0 + i as f64 * 0.01;
        b.action(i, "step", cost, &[(next, rate)]).expect("valid");
        b.action(i, "skip", cost * 1.5, &[(next, 0.3), (shortcut, 0.9)])
            .expect("valid");
    }
    b.build().expect("valid ring")
}

/// Per-action rows of a CTMDP materialized as full dense vectors — the
/// `O(|S|·|A|·|S|)` improvement baseline the CSR kernel is measured
/// against. Materialization happens outside the timed region.
struct DenseActions {
    n_states: usize,
    sa_ptr: Vec<usize>,
    cost: Vec<f64>,
    /// Flattened rows, `n_states` entries per state–action pair.
    rows: Vec<f64>,
}

impl DenseActions {
    fn from_ctmdp(mdp: &Ctmdp) -> DenseActions {
        let n = mdp.n_states();
        let mut sa_ptr = vec![0usize];
        let mut cost = Vec::new();
        let mut rows = Vec::new();
        for state in 0..n {
            for spec in mdp.actions(state) {
                cost.push(spec.cost_rate());
                let mut dense = vec![0.0; n];
                for &(to, rate) in spec.rates() {
                    dense[to] = rate;
                }
                rows.extend_from_slice(&dense);
            }
            sa_ptr.push(cost.len());
        }
        DenseActions {
            n_states: n,
            sa_ptr,
            cost,
            rows,
        }
    }

    fn test_quantity(&self, state: usize, action: usize, bias: &[f64]) -> f64 {
        let sa = self.sa_ptr[state] + action;
        let row = &self.rows[sa * self.n_states..(sa + 1) * self.n_states];
        let here = bias[state];
        let mut q = self.cost[sa];
        for (j, &rate) in row.iter().enumerate() {
            q += rate * (bias[j] - here);
        }
        q
    }

    /// The reference improvement sweep over dense-materialized rows —
    /// identical decision rule, `O(|S|·|A|·|S|)` arithmetic.
    fn improve_step(&self, policy: &Policy, bias: &[f64], tolerance: f64) -> Policy {
        let mut next = policy.clone();
        for state in 0..self.n_states {
            let incumbent = policy.action(state);
            let mut best_action = incumbent;
            let mut best_q = self.test_quantity(state, incumbent, bias);
            for action in 0..self.sa_ptr[state + 1] - self.sa_ptr[state] {
                if action == incumbent {
                    continue;
                }
                let q = self.test_quantity(state, action, bias);
                if q < best_q - tolerance {
                    best_q = q;
                    best_action = action;
                }
            }
            if best_action != incumbent {
                next = next.with_action(state, best_action);
            }
        }
        next
    }
}

/// A sparse birth–death chain with smoothly varying rates: stiff enough
/// to exercise the ILU(0) preconditioner, smooth enough (no bottleneck
/// level) that every solver tier can reach the 1e-8 agreement bound. The
/// substrate for the solver-tier crossover measurement.
fn birth_death_sparse(n: usize) -> Result<SparseGenerator, Box<dyn std::error::Error>> {
    let mut transitions = Vec::with_capacity(2 * (n - 1));
    for i in 0..n - 1 {
        #[allow(clippy::cast_precision_loss)]
        let phase = i as f64 * 0.01;
        transitions.push((i, i + 1, 0.8 + 0.15 * phase.sin()));
        transitions.push((i + 1, i, 1.0 + 0.15 * phase.cos()));
    }
    Ok(SparseGenerator::from_transitions(n, &transitions)?)
}

#[allow(clippy::too_many_lines)]
fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::from_env(&cli::with_resilience_flags(&[
        "capacity",
        "rounds",
        "solve-workers",
        "tier-states",
        "seed",
        "out",
    ]))?;
    let capacity = args.get_usize("capacity", 100)?;
    let rounds = args.get_usize("rounds", 20)?.max(1);
    let solve_workers = args.get_usize("solve-workers", 2)?.max(2);
    let root_seed = args.get_u64("seed", 1300)?;
    let out = args.get_str("out", "results/BENCH_solve.json");

    // ------------------------------------------------------------------
    // 1. Improvement kernels at Q = capacity.
    // ------------------------------------------------------------------
    let mdp = paper_mdp(capacity, 1.0)?;
    let n = mdp.n_states();
    let kernel = mdp.sparse_actions();
    let dense = DenseActions::from_ctmdp(&mdp);
    // A real bias vector: converge policy iteration once and reuse its
    // bias and policy for every timed sweep.
    let initial = mdp.min_cost_policy();
    let solved = average::policy_iteration_multichain(&mdp, initial, &average::Options::default())?;
    let bias = solved.bias().clone();
    let policy = solved.policy().clone();
    let tol = average::Options::default().improvement_tolerance;

    let (from_dense, dense_secs) =
        time_sweeps(rounds, || dense.improve_step(&policy, bias.as_slice(), tol));
    let (from_reference, reference_secs) =
        time_sweeps(rounds, || average::improve_step(&mdp, &policy, &bias, tol));
    let (from_csr, csr_secs) = time_sweeps(rounds, || {
        average::improve_step_csr(&kernel, &policy, &bias, tol)
    });
    let improvement_agrees = from_dense == from_reference && from_reference == from_csr;
    // At a converged policy the improvement sweep must be a fixpoint.
    let improvement_fixpoint = from_csr == policy;

    // ------------------------------------------------------------------
    // 2. Unichain vs multichain policy iteration on the unichain ring.
    // ------------------------------------------------------------------
    let ring_mdp = ring(2 * capacity.max(8));
    let ring_start = Policy::uniform(ring_mdp.n_states(), 1);
    let options = average::Options::default();
    let (unichain, unichain_secs) =
        timed(|| average::policy_iteration_from(&ring_mdp, ring_start.clone(), &options));
    let unichain = unichain?;
    let (multichain, multichain_ring_secs) =
        timed(|| average::policy_iteration_multichain(&ring_mdp, ring_start.clone(), &options));
    let multichain = multichain?;
    let ring_gain_diff = (0..ring_mdp.n_states())
        .map(|i| (multichain.gain_from(i) - unichain.gain()).abs())
        .fold(0.0, f64::max);
    let ring_pi_agrees = unichain.policy() == multichain.policy() && ring_gain_diff <= 1e-10;

    // ------------------------------------------------------------------
    // 3. Solve-phase pipeline, serial vs parallel.
    // ------------------------------------------------------------------
    let mut sweep_plan = SolvePlan::new("bench-solve-sweep", root_seed);
    let mut weight = 0.05;
    let mut n_sweep = 0usize;
    while weight < 50.0 {
        sweep_plan =
            sweep_plan.point(PlanPoint::new(format!("w={weight:.3}")).with("weight", weight));
        weight *= 2.5;
        n_sweep += 1;
    }
    let sweep_system = PmSystem::builder()
        .provider(SpModel::dac99_server()?)
        .requestor(SrModel::poisson(1.0 / 6.0)?)
        .capacity(5)
        .build()?;
    let run_sweep = |workers: usize| {
        solve::run_solve_plan(&sweep_plan, workers, |ctx| {
            let w = ctx.point.param("weight").unwrap().as_f64().unwrap();
            optimize::optimal_policy(&sweep_system, w).map_err(|e| e.to_string())
        })
    };
    let (serial, serial_secs) = timed(|| run_sweep(1));
    let serial = serial?;
    let (parallel, parallel_secs) = timed(|| run_sweep(solve_workers));
    let parallel = parallel?;
    let fingerprint = |records: &[solve::SolveRecord<optimize::OptimalSolution>]| {
        records
            .iter()
            .map(|r| {
                (
                    r.index,
                    r.output.policy().clone(),
                    r.output.metrics().power().to_bits(),
                    r.output.metrics().queue_length().to_bits(),
                    r.output.iterations(),
                )
            })
            .collect::<Vec<_>>()
    };
    let pipeline_identical = fingerprint(&serial) == fingerprint(&parallel);

    // ------------------------------------------------------------------
    // 4. Stationary solver tiers: sparse direct vs preconditioned Krylov.
    // ------------------------------------------------------------------
    let tier_states = args.get_usize("tier-states", 100_000)?;
    let tier_sizes: Vec<usize> = [1_000usize, 10_000, 100_000]
        .into_iter()
        .filter(|&s| s <= tier_states.max(1_000))
        .collect();
    // (size, method name, secs, sweeps, norm_inf diff vs sparse direct)
    let mut tier_rows: Vec<(usize, String, f64, usize, f64)> = Vec::new();
    let mut tiers_agree = true;
    let mut tier_max_diff = 0.0f64;
    let tier_label = |method: Method| {
        if method.is_krylov() {
            format!(
                "{}_{}",
                method.name(),
                stationary::Precond::default().name()
            )
        } else {
            "sparse_lu".to_owned()
        }
    };
    for &size in &tier_sizes {
        let chain = birth_death_sparse(size)?;
        let mut reference = None;
        for method in [Method::Lu, Method::BiCgStab, Method::Gmres] {
            let (solved, secs) = timed(|| stationary::Solver::new(method).solve(&chain));
            let (pi, stats) = solved?;
            let diff = match &reference {
                None => {
                    reference = Some(pi);
                    0.0
                }
                Some(reference) => (&pi - reference).norm_inf(),
            };
            tier_max_diff = tier_max_diff.max(diff);
            tiers_agree &= diff <= 1e-8;
            tier_rows.push((size, tier_label(method), secs, stats.sweeps(), diff));
        }
    }

    // ------------------------------------------------------------------
    // 5. Multichain policy iteration at Q = capacity.
    // ------------------------------------------------------------------
    let mut multichain_runs = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let (run, secs) = timed(|| {
            average::policy_iteration_multichain(
                &mdp,
                mdp.min_cost_policy(),
                &average::Options::default(),
            )
        });
        run?;
        multichain_runs.push(secs);
    }
    multichain_runs.sort_by(f64::total_cmp);
    let multichain_secs = multichain_runs[rounds / 2];
    let final_generator = mdp.sparse_generator_for(&policy)?;
    let multichain_factor_nnz = stationary::ChainGains::new(&final_generator)?.factor_nnz();
    // Normwise backward error: the residual over the scale of the
    // equations, ‖G‖∞ ‖v‖∞ + ‖c‖∞ + ‖g‖∞ (a generator row's absolute sum
    // is twice its exit rate).
    let g_norm = (0..n)
        .map(|i| 2.0 * final_generator.exit_rate(i))
        .fold(0.0, f64::max);
    let equations_scale = g_norm * bias.norm_inf()
        + mdp.cost_rates_for(&policy)?.norm_inf()
        + solved.gains().norm_inf();
    let multichain_backward_error = solved.eval_residual() / equations_scale;
    let multichain_backward_error_ok = multichain_backward_error <= 1e-8;

    // ------------------------------------------------------------------
    // Report + artifact.
    // ------------------------------------------------------------------
    let widths = [26usize, 14, 14];
    println!("Solve-phase benchmark (Q = {capacity}, {n} states, {rounds} sweeps)");
    row(
        &["kernel".into(), "secs/sweep".into(), "speedup".into()],
        &widths,
    );
    rule(&widths);
    for (name, secs) in [
        ("improve: dense scan", dense_secs),
        ("improve: nested lists", reference_secs),
        ("improve: CSR kernel", csr_secs),
    ] {
        row(
            &[
                name.into(),
                format!("{secs:.3e}"),
                format!("{:.1}x", dense_secs / secs),
            ],
            &widths,
        );
    }
    rule(&widths);
    for (name, secs) in [
        ("ring PI: unichain", unichain_secs),
        ("ring PI: multichain", multichain_ring_secs),
    ] {
        row(
            &[
                name.into(),
                format!("{secs:.3e}"),
                format!("{:.1}x", unichain_secs / secs),
            ],
            &widths,
        );
    }
    rule(&widths);
    for (name, secs) in [
        ("solve pipeline: 1 worker", serial_secs),
        ("solve pipeline: parallel", parallel_secs),
    ] {
        row(
            &[
                name.into(),
                format!("{secs:.3e}"),
                format!("{:.1}x", serial_secs / secs),
            ],
            &widths,
        );
    }

    let tier_widths = [10usize, 16, 12, 8, 12];
    println!("\nStationary solver tiers (birth–death chains, diff vs sparse LU)");
    row(
        &[
            "states".into(),
            "method".into(),
            "secs".into(),
            "sweeps".into(),
            "max |diff|".into(),
        ],
        &tier_widths,
    );
    rule(&tier_widths);
    for (size, name, secs, sweeps, diff) in &tier_rows {
        row(
            &[
                format!("{size}"),
                name.clone(),
                format!("{secs:.3e}"),
                format!("{sweeps}"),
                format!("{diff:.2e}"),
            ],
            &tier_widths,
        );
    }
    println!(
        "\nMultichain policy iteration (Q = {capacity}): {} rounds, median {multichain_secs:.3e} s \
         over {rounds} repeats, factor entries {multichain_factor_nnz}, backward error \
         {multichain_backward_error:.2e}",
        solved.iterations()
    );
    println!(
        "\nchecks: improvement kernels agree = {improvement_agrees}, fixpoint = \
         {improvement_fixpoint},\n        ring unichain PI == multichain PI = {ring_pi_agrees} \
         (max gain diff {ring_gain_diff:.2e}), pipeline identical = {pipeline_identical},\n        \
         solver tiers agree = {tiers_agree} (max diff {tier_max_diff:.2e}),\n        \
         multichain backward error ok = {multichain_backward_error_ok}"
    );

    let mut doc = Json::object();
    doc.set("schema_version", 1u64);
    doc.set("experiment", "bench_solve");
    let mut params = Json::object();
    params.set("capacity", capacity);
    params.set("rounds", rounds);
    params.set("n_states", n);
    params.set("nnz", kernel.nnz());
    params.set("sweep_points", n_sweep);
    params.set("root_seed", root_seed);
    params.set("tier_states", tier_states);
    doc.set("params", params);
    let mut checks = Json::object();
    checks.set("improvement_policies_agree", improvement_agrees);
    checks.set("improvement_is_fixpoint", improvement_fixpoint);
    checks.set("ring_unichain_matches_multichain", ring_pi_agrees);
    checks.set("ring_max_gain_diff", Json::num(ring_gain_diff));
    checks.set("solve_parallel_identical", pipeline_identical);
    checks.set("stationary_tiers_agree", tiers_agree);
    checks.set("stationary_tiers_max_diff", Json::num(tier_max_diff));
    checks.set("multichain_iterations", solved.iterations());
    checks.set("multichain_factor_nnz", multichain_factor_nnz);
    checks.set(
        "multichain_backward_error",
        Json::num(multichain_backward_error),
    );
    checks.set("multichain_backward_error_ok", multichain_backward_error_ok);
    doc.set("checks", checks);
    let mut timers = Json::object();
    timers.set("improve_dense_scan_secs", Json::num(dense_secs));
    timers.set("improve_reference_secs", Json::num(reference_secs));
    timers.set("improve_csr_secs", Json::num(csr_secs));
    timers.set(
        "improve_csr_speedup_vs_dense_scan",
        Json::num(dense_secs / csr_secs),
    );
    timers.set("ring_pi_unichain_secs", Json::num(unichain_secs));
    timers.set("ring_pi_multichain_secs", Json::num(multichain_ring_secs));
    timers.set("pipeline_serial_secs", Json::num(serial_secs));
    timers.set("pipeline_parallel_secs", Json::num(parallel_secs));
    timers.set("solve_workers", solve_workers);
    timers.set("multichain_pi_median_secs", Json::num(multichain_secs));
    for (size, name, secs, sweeps, _) in &tier_rows {
        timers.set(&format!("tier_{name}_secs_n{size}"), Json::num(*secs));
        timers.set(&format!("tier_{name}_sweeps_n{size}"), *sweeps);
    }
    for &size in &tier_sizes {
        let fastest = tier_rows
            .iter()
            .filter(|r| r.0 == size)
            .min_by(|a, b| a.2.total_cmp(&b.2))
            .map_or("none", |r| r.1.as_str());
        timers.set(&format!("tier_fastest_n{size}"), fastest);
    }
    doc.set("timers", timers);

    if !(improvement_agrees
        && improvement_fixpoint
        && ring_pi_agrees
        && pipeline_identical
        && tiers_agree
        && multichain_backward_error_ok)
    {
        artifact::write(&out, &doc)?;
        return Err("solve-phase correctness checks failed (see artifact)".into());
    }
    artifact::write(&out, &doc)?;
    println!("artifact: {out}");
    Ok(())
}
