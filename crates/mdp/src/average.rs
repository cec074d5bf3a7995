//! Howard-style policy iteration for the limiting average cost criterion.
//!
//! This is the "policy iteration algorithm" of the paper's Figure 3 (the
//! paper defers the details to Howard 1960 / Miller 1968). For a stationary
//! policy `δ` of a unichain CTMDP, the *gain* `g` (average cost per unit
//! time) and *bias* (relative value) vector `v` solve the evaluation
//! equations
//!
//! ```text
//! c^δ − g·1 + G^δ v = 0,    v[reference] = 0.
//! ```
//!
//! The improvement step then picks, in each state, the action minimizing
//! the *test quantity* `c_i^a + Σ_j s_{i,j}^a v_j`; iteration terminates at
//! a policy that is its own improvement, which is average-cost optimal over
//! all stationary policies (and by Theorem 2.3 of the paper over all
//! piecewise-stationary ones).

use dpm_ctmc::stationary::ChainGains;
use dpm_linalg::DVector;

use crate::{ActionCsr, Ctmdp, MdpError, Policy};

/// Options for [`policy_iteration`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Hard cap on improvement rounds (each round solves one linear
    /// system). Policy iteration converges in finitely many steps, so this
    /// is a safety net only.
    pub max_iterations: usize,
    /// An action must beat the incumbent's test quantity by more than this
    /// to replace it — guards against cycling on ties.
    pub improvement_tolerance: f64,
    /// State whose bias is pinned to zero.
    pub reference_state: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            max_iterations: 1_000,
            improvement_tolerance: 1e-9,
            reference_state: 0,
        }
    }
}

/// Gain and bias of one policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    gain: f64,
    bias: DVector,
}

impl Evaluation {
    /// Average cost per unit time.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Relative values (bias), zero at the reference state.
    #[must_use]
    pub fn bias(&self) -> &DVector {
        &self.bias
    }
}

/// The result of policy iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    policy: Policy,
    gain: f64,
    bias: DVector,
    iterations: usize,
    eval_residual: f64,
    eval_secs: Vec<f64>,
    gain_history: Vec<f64>,
    improvement_deltas: Vec<usize>,
}

impl Solution {
    /// The optimal stationary deterministic policy.
    #[must_use]
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Optimal average cost per unit time.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Bias vector of the optimal policy.
    #[must_use]
    pub fn bias(&self) -> &DVector {
        &self.bias
    }

    /// Improvement rounds performed.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// `‖c − g·1 + G v‖_∞` of the final policy's evaluation equations — an
    /// a-posteriori convergence-quality certificate, computed over the
    /// policy's sparse generator (`O(nnz)`).
    #[must_use]
    pub fn eval_residual(&self) -> f64 {
        self.eval_residual
    }

    /// Wall-clock seconds of each policy-evaluation step, in round order.
    /// Run-volatile: telemetry records these as timers, never as
    /// deterministic outputs.
    #[must_use]
    pub fn eval_timings(&self) -> &[f64] {
        &self.eval_secs
    }

    /// Gain of the policy evaluated at each round (ends at
    /// [`Solution::gain`]); successive differences are the improvement
    /// steps' cost reductions.
    #[must_use]
    pub fn gain_history(&self) -> &[f64] {
        &self.gain_history
    }

    /// Number of states whose action changed in each improvement round
    /// (the final round is always 0 — that is the convergence test).
    #[must_use]
    pub fn improvement_deltas(&self) -> &[usize] {
        &self.improvement_deltas
    }
}

/// `‖c − g + G v‖_∞` over the policy's sparse generator, with per-state
/// gains `g` (constant for unichain solutions).
fn evaluation_residual(
    mdp: &Ctmdp,
    policy: &Policy,
    gain_of: impl Fn(usize) -> f64,
    bias: &DVector,
) -> Result<f64, MdpError> {
    let generator = mdp.sparse_generator_for(policy)?;
    let costs = mdp.cost_rates_for(policy)?;
    let gv = generator.csr().mul_vec(bias);
    let mut worst = 0.0f64;
    for i in 0..mdp.n_states() {
        worst = worst.max((costs[i] - gain_of(i) + gv[i]).abs());
    }
    Ok(worst)
}

/// Solves the evaluation equations for `policy`, returning its gain and
/// bias.
///
/// One sparse factorization of the policy's generator
/// ([`ChainGains`]) gives the class decomposition, the gain and a bias,
/// which is then shifted so that `bias[reference_state] == 0`.
///
/// # Errors
///
/// Returns [`MdpError::InvalidPolicy`] / [`MdpError::InvalidParameter`] for
/// mismatched inputs and [`MdpError::NotUnichain`] if the policy's chain
/// has more than one closed class.
pub fn evaluate(
    mdp: &Ctmdp,
    policy: &Policy,
    reference_state: usize,
) -> Result<Evaluation, MdpError> {
    mdp.check_policy(policy)?;
    let n = mdp.n_states();
    if reference_state >= n {
        return Err(MdpError::InvalidParameter {
            reason: format!("reference state {reference_state} out of range for {n} states"),
        });
    }
    let generator = mdp.sparse_generator_for(policy)?;
    let costs = mdp.cost_rates_for(policy)?;
    let chain = ChainGains::new(&generator)?;
    if chain.closed_classes() != 1 {
        return Err(MdpError::NotUnichain { iteration: 0 });
    }
    let gains = chain.gains(&costs)?;
    let bias = chain.bias(&gains, &costs)?;
    let shift = bias[reference_state];
    Ok(Evaluation {
        gain: gains[reference_state],
        bias: bias.map(|v| v - shift),
    })
}

/// Test quantity `c_i^a + Σ_j s_{i,j}^a v_j` for action `a` in state `i`
/// given bias `v`.
fn test_quantity(mdp: &Ctmdp, state: usize, action: usize, bias: &DVector) -> f64 {
    let spec = &mdp.actions(state)[action];
    let mut q = spec.cost_rate();
    for &(to, rate) in spec.rates() {
        q += rate * (bias[to] - bias[state]);
    }
    q
}

/// One policy-improvement sweep by direct scan of the nested per-action
/// rate lists — the reference implementation the CSR kernel is checked
/// against. In every state the incumbent action wins unless a challenger
/// (scanned in action-index order) beats its test quantity by more than
/// `tolerance`.
///
/// # Panics
///
/// Panics if `policy` does not match `mdp` or `bias` is too short; callers
/// inside policy iteration have already validated both.
#[must_use]
pub fn improve_step(mdp: &Ctmdp, policy: &Policy, bias: &DVector, tolerance: f64) -> Policy {
    let mut next = policy.clone();
    for state in 0..mdp.n_states() {
        let incumbent = policy.action(state);
        let mut best_action = incumbent;
        let mut best_q = test_quantity(mdp, state, incumbent, bias);
        for action in 0..mdp.actions(state).len() {
            if action == incumbent {
                continue;
            }
            let q = test_quantity(mdp, state, action, bias);
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

/// One policy-improvement sweep over a precomputed [`ActionCsr`] table —
/// `O(nnz)` contiguous traversal, bit-identical in argmax choice and
/// tie-breaking to [`improve_step`].
///
/// # Panics
///
/// As [`improve_step`], if the table/policy/bias dimensions disagree.
#[must_use]
pub fn improve_step_csr(
    kernel: &ActionCsr,
    policy: &Policy,
    bias: &DVector,
    tolerance: f64,
) -> Policy {
    let mut next = policy.clone();
    for state in 0..kernel.n_states() {
        let incumbent = policy.action(state);
        let mut best_action = incumbent;
        let mut best_q = kernel.test_quantity(state, incumbent, bias);
        for action in 0..kernel.n_actions(state) {
            if action == incumbent {
                continue;
            }
            let q = kernel.test_quantity(state, action, bias);
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

/// Runs policy iteration to the average-cost optimal stationary policy.
///
/// The initial policy takes the minimum-cost-rate action in each state.
///
/// # Errors
///
/// Returns [`MdpError::NotUnichain`] if some intermediate policy induces a
/// multichain process (the power-management models in `dpm-core` preclude
/// this by construction), and [`MdpError::NotConverged`] if the iteration
/// cap is hit.
///
/// # Examples
///
/// ```
/// use dpm_mdp::{average, Ctmdp};
///
/// # fn main() -> Result<(), dpm_mdp::MdpError> {
/// let mut b = Ctmdp::builder(2);
/// b.action(0, "stay-cheap", 1.0, &[(1, 1.0)])?;
/// b.action(1, "slow", 5.0, &[(0, 1.0)])?;
/// b.action(1, "fast", 9.0, &[(0, 10.0)])?;
/// let mdp = b.build()?;
/// let best = average::policy_iteration(&mdp, &average::Options::default())?;
/// // Fast repair wins: less time spent in the expensive state.
/// assert_eq!(best.policy().action(1), 1);
/// # Ok(())
/// # }
/// ```
pub fn policy_iteration(mdp: &Ctmdp, options: &Options) -> Result<Solution, MdpError> {
    policy_iteration_from(mdp, mdp.min_cost_policy(), options)
}

/// Policy iteration from an explicit starting policy.
///
/// # Errors
///
/// As [`policy_iteration`], plus [`MdpError::InvalidPolicy`] for a
/// mismatched start.
pub fn policy_iteration_from(
    mdp: &Ctmdp,
    initial: Policy,
    options: &Options,
) -> Result<Solution, MdpError> {
    mdp.check_policy(&initial)?;
    let n = mdp.n_states();
    let kernel = mdp.sparse_actions();
    let mut policy = initial;
    let mut eval_secs = Vec::new();
    let mut gain_history = Vec::new();
    let mut improvement_deltas = Vec::new();
    for iteration in 1..=options.max_iterations {
        // dpm-lint: allow(nondeterminism, reason = "eval_secs is a wall-clock diagnostic in the iteration stats, not part of the solved policy or values")
        let eval_start = std::time::Instant::now();
        let eval = match evaluate(mdp, &policy, options.reference_state) {
            Err(MdpError::NotUnichain { .. }) => return Err(MdpError::NotUnichain { iteration }),
            other => other?,
        };
        eval_secs.push(eval_start.elapsed().as_secs_f64());
        gain_history.push(eval.gain);
        // Improvement step over the contiguous per-action CSR rows.
        let next = improve_step_csr(&kernel, &policy, eval.bias(), options.improvement_tolerance);
        let changed = (0..n)
            .filter(|&state| next.action(state) != policy.action(state))
            .count();
        let improved = changed > 0;
        improvement_deltas.push(changed);
        if !improved {
            let eval_residual = evaluation_residual(mdp, &policy, |_| eval.gain, &eval.bias)?;
            return Ok(Solution {
                policy,
                gain: eval.gain,
                bias: eval.bias,
                iterations: iteration,
                eval_residual,
                eval_secs,
                gain_history,
                improvement_deltas,
            });
        }
        policy = next;
    }
    Err(MdpError::NotConverged {
        iterations: options.max_iterations,
    })
}

/// Gains and bias of a possibly multichain policy.
#[derive(Debug, Clone, PartialEq)]
pub struct MultichainEvaluation {
    gains: DVector,
    bias: DVector,
}

impl MultichainEvaluation {
    /// Per-state long-run average cost. Constant within each recurrent
    /// class; absorption-weighted for transient states.
    #[must_use]
    pub fn gains(&self) -> &DVector {
        &self.gains
    }

    /// Bias (relative value) vector, pinned to zero at one state per
    /// closed class.
    #[must_use]
    pub fn bias(&self) -> &DVector {
        &self.bias
    }
}

/// Evaluates a policy without any unichain assumption: per-state gains via
/// the communicating-class decomposition, then a bias vector from the
/// modified evaluation equations (one bias pinned per closed class, that
/// class's redundant equation dropped). Both come from one sparse
/// factorization of the policy's generator ([`ChainGains`]).
///
/// # Errors
///
/// Propagates policy validation and linear-solver failures.
pub fn evaluate_multichain(mdp: &Ctmdp, policy: &Policy) -> Result<MultichainEvaluation, MdpError> {
    let generator = mdp.sparse_generator_for(policy)?;
    let costs = mdp.cost_rates_for(policy)?;
    let chain = ChainGains::new(&generator)?;
    let gains = chain.gains(&costs)?;
    let bias = chain.bias(&gains, &costs)?;
    Ok(MultichainEvaluation { gains, bias })
}

/// Result of multichain policy iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct MultichainSolution {
    policy: Policy,
    gains: DVector,
    bias: DVector,
    iterations: usize,
    eval_residual: f64,
    eval_secs: Vec<f64>,
    improvement_deltas: Vec<usize>,
}

impl MultichainSolution {
    /// The optimal stationary deterministic policy.
    #[must_use]
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// Per-state optimal gains.
    #[must_use]
    pub fn gains(&self) -> &DVector {
        &self.gains
    }

    /// Long-run average cost starting from `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    #[must_use]
    pub fn gain_from(&self, state: usize) -> f64 {
        self.gains[state]
    }

    /// Bias vector of the optimal policy.
    #[must_use]
    pub fn bias(&self) -> &DVector {
        &self.bias
    }

    /// Improvement rounds performed.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// `‖c − g + G v‖_∞` of the final policy's modified evaluation
    /// equations (per-state gains) — the convergence-quality certificate.
    #[must_use]
    pub fn eval_residual(&self) -> f64 {
        self.eval_residual
    }

    /// Wall-clock seconds of each policy-evaluation step, in round order.
    #[must_use]
    pub fn eval_timings(&self) -> &[f64] {
        &self.eval_secs
    }

    /// Number of states whose action changed in each improvement round
    /// (the final round is always 0).
    #[must_use]
    pub fn improvement_deltas(&self) -> &[usize] {
        &self.improvement_deltas
    }
}

/// Policy iteration for general (multichain) average-cost CTMDPs: Howard's
/// two-stage improvement — first reduce the expected gain drift
/// `Σ_j s_{i,j}^a g_j`, then, among drift-minimal actions, reduce the bias
/// test quantity `c_i^a + Σ_j s_{i,j}^a v_j`.
///
/// Use this when policies may split the chain into several recurrent
/// classes (e.g. power-managed systems where "stay asleep forever" is a
/// legal command); for unichain processes [`policy_iteration`] is cheaper.
///
/// # Errors
///
/// Returns [`MdpError::NotConverged`] if the iteration cap is hit, and
/// propagates evaluation failures.
pub fn policy_iteration_multichain(
    mdp: &Ctmdp,
    initial: Policy,
    options: &Options,
) -> Result<MultichainSolution, MdpError> {
    mdp.check_policy(&initial)?;
    let n = mdp.n_states();
    let kernel = mdp.sparse_actions();
    let mut policy = initial;
    let mut eval_secs = Vec::new();
    let mut improvement_deltas = Vec::new();
    let mut drifts: Vec<f64> = Vec::new();
    for iteration in 1..=options.max_iterations {
        // dpm-lint: allow(nondeterminism, reason = "eval_secs is a wall-clock diagnostic in the iteration stats, not part of the solved policy or values")
        let eval_start = std::time::Instant::now();
        let eval = evaluate_multichain(mdp, &policy)?;
        eval_secs.push(eval_start.elapsed().as_secs_f64());
        let gains = eval.gains();
        let bias = eval.bias();
        let scale = 1.0 + gains.norm_inf();
        let tol = options.improvement_tolerance * scale;

        let mut improved = false;
        let mut changed = 0usize;
        let mut next = policy.clone();
        for state in 0..n {
            let current = policy.action(state);
            let n_actions = kernel.n_actions(state);
            // Each action's drift is needed up to three times below; one
            // contiguous kernel pass computes them all.
            drifts.clear();
            drifts.extend((0..n_actions).map(|action| kernel.drift(state, action, gains)));
            let current_drift = drifts[current];
            // Stage 1: gain improvement.
            let mut best_drift = current_drift;
            for &drift in &drifts {
                best_drift = best_drift.min(drift);
            }
            if best_drift < current_drift - tol {
                // Among (near-)minimal-drift actions, take the best bias.
                let mut best_action = current;
                let mut best_test = f64::INFINITY;
                for (action, &drift) in drifts.iter().enumerate() {
                    if drift <= best_drift + tol {
                        let t = kernel.bias_test(state, action, bias);
                        if t < best_test {
                            best_test = t;
                            best_action = action;
                        }
                    }
                }
                if best_action != current {
                    next = next.with_action(state, best_action);
                    improved = true;
                    changed += 1;
                }
                continue;
            }
            // Stage 2: bias improvement among drift-neutral actions.
            let current_test = kernel.bias_test(state, current, bias);
            let mut best_action = current;
            let mut best_test = current_test;
            for (action, &drift) in drifts.iter().enumerate() {
                if action == current {
                    continue;
                }
                if drift <= current_drift + tol {
                    let t = kernel.bias_test(state, action, bias);
                    if t < best_test - tol {
                        best_test = t;
                        best_action = action;
                    }
                }
            }
            if best_action != current {
                next = next.with_action(state, best_action);
                improved = true;
                changed += 1;
            }
        }
        improvement_deltas.push(changed);
        if !improved {
            let eval_residual = evaluation_residual(mdp, &policy, |i| eval.gains[i], &eval.bias)?;
            return Ok(MultichainSolution {
                policy,
                gains: eval.gains,
                bias: eval.bias,
                iterations: iteration,
                eval_residual,
                eval_secs,
                improvement_deltas,
            });
        }
        policy = next;
    }
    Err(MdpError::NotConverged {
        iterations: options.max_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_linalg::DMatrix;

    /// Two-state machine: in state 1 (broken) choose slow cheap repair or
    /// fast expensive repair.
    pub(super) fn repair_mdp(fast_cost: f64) -> Ctmdp {
        let mut b = Ctmdp::builder(2);
        b.action(0, "run", 1.0, &[(1, 1.0)]).unwrap();
        b.action(1, "slow", 5.0, &[(0, 1.0)]).unwrap();
        b.action(1, "fast", fast_cost, &[(0, 10.0)]).unwrap();
        b.build().unwrap()
    }

    /// Reference evaluation of a unichain policy by one dense LU solve of
    /// `−g + Σ_j G_ij v_j = −c_i` in the unknowns `(g, v_j for j ≠ ref)`.
    /// `O(n³)`: the oracle [`evaluate`] is checked against.
    fn dense_evaluation(mdp: &Ctmdp, policy: &Policy, reference_state: usize) -> Evaluation {
        let n = mdp.n_states();
        let generator = mdp.generator_for(policy).unwrap();
        let costs = mdp.cost_rates_for(policy).unwrap();
        let col_of = |j: usize| -> Option<usize> {
            use std::cmp::Ordering;
            match j.cmp(&reference_state) {
                Ordering::Less => Some(1 + j),
                Ordering::Equal => None,
                Ordering::Greater => Some(j),
            }
        };
        let mut a = DMatrix::zeros(n, n);
        let mut b = DVector::zeros(n);
        for i in 0..n {
            a[(i, 0)] = -1.0;
            for j in 0..n {
                if let Some(c) = col_of(j) {
                    a[(i, c)] = generator.rate(i, j);
                }
            }
            b[i] = -costs[i];
        }
        let solution = a.lu().unwrap().solve(&b).unwrap();
        Evaluation {
            gain: solution[0],
            bias: DVector::from_fn(n, |j| col_of(j).map_or(0.0, |c| solution[c])),
        }
    }

    /// Asserts that `eval` matches the dense oracle in gain and bias.
    pub(super) fn assert_matches_dense(
        mdp: &Ctmdp,
        policy: &Policy,
        reference_state: usize,
        eval: &Evaluation,
    ) {
        let dense = dense_evaluation(mdp, policy, reference_state);
        let scale = 1.0 + dense.gain().abs();
        assert!(
            (eval.gain() - dense.gain()).abs() < 1e-10 * scale,
            "policy {policy}: gain {} vs dense {}",
            eval.gain(),
            dense.gain()
        );
        let diff = (eval.bias() - dense.bias()).norm_inf();
        assert!(
            diff < 1e-9 * (scale + dense.bias().norm_inf()),
            "policy {policy}: bias diff {diff}"
        );
    }

    #[test]
    fn evaluation_matches_stationary_average() {
        let mdp = repair_mdp(9.0);
        for policy in mdp.enumerate_policies() {
            let eval = evaluate(&mdp, &policy, 0).unwrap();
            let direct = mdp.average_cost(&policy).unwrap();
            assert!(
                (eval.gain() - direct).abs() < 1e-10,
                "policy {policy}: {} vs {direct}",
                eval.gain()
            );
            assert_eq!(eval.bias()[0], 0.0);
            assert_matches_dense(&mdp, &policy, 0, &eval);
        }
    }

    #[test]
    fn evaluation_handles_transient_states() {
        // 0 -> 1 <-> 2 under the only policy; state 0 transient.
        let mut b = Ctmdp::builder(3);
        b.action(0, "go", 100.0, &[(1, 1.0)]).unwrap();
        b.action(1, "swap", 2.0, &[(2, 1.0)]).unwrap();
        b.action(2, "swap", 4.0, &[(1, 1.0)]).unwrap();
        let mdp = b.build().unwrap();
        let policy = Policy::new(vec![0, 0, 0]);
        for reference in 0..3 {
            let eval = evaluate(&mdp, &policy, reference).unwrap();
            assert!((eval.gain() - 3.0).abs() < 1e-12);
            assert_matches_dense(&mdp, &policy, reference, &eval);
        }
    }

    #[test]
    fn uniformly_fast_two_cycle_is_evaluated() {
        // Rates of 1e14 everywhere put the unit gain column of a dense LU
        // over the unknowns (g, v) below its relative pivot threshold, so
        // that solve calls this healthy chain singular. Unichain-ness is
        // decided by the class count instead.
        let mut b = Ctmdp::builder(2);
        b.action(0, "fast", 1.0, &[(1, 1e14)]).unwrap();
        b.action(1, "fast", 3.0, &[(0, 1e14)]).unwrap();
        let mdp = b.build().unwrap();
        let eval = evaluate(&mdp, &Policy::new(vec![0, 0]), 0).unwrap();
        assert!((eval.gain() - 2.0).abs() < 1e-12, "gain {}", eval.gain());
        assert_eq!(eval.bias()[0], 0.0);
        let solution = policy_iteration(&mdp, &Options::default()).unwrap();
        assert!((solution.gain() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_generator_matches_dense_generator() {
        let mdp = repair_mdp(9.0);
        for policy in mdp.enumerate_policies() {
            let dense = mdp.generator_for(&policy).unwrap();
            let sparse = mdp.sparse_generator_for(&policy).unwrap();
            for i in 0..2 {
                for j in 0..2 {
                    assert!((dense.rate(i, j) - sparse.rate(i, j)).abs() < 1e-15);
                }
            }
        }
    }

    #[test]
    fn evaluation_satisfies_bellman_identity() {
        let mdp = repair_mdp(9.0);
        let policy = Policy::new(vec![0, 1]);
        let eval = evaluate(&mdp, &policy, 0).unwrap();
        // c - g + G v = 0 at every state.
        let g = mdp.generator_for(&policy).unwrap();
        let c = mdp.cost_rates_for(&policy).unwrap();
        let gv = g.matrix().mul_vec(eval.bias());
        for i in 0..2 {
            assert!((c[i] - eval.gain() + gv[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn policy_iteration_finds_brute_force_optimum() {
        for fast_cost in [2.0, 9.0, 30.0, 100.0] {
            let mdp = repair_mdp(fast_cost);
            let solution = policy_iteration(&mdp, &Options::default()).unwrap();
            let brute = mdp
                .enumerate_policies()
                .into_iter()
                .map(|p| mdp.average_cost(&p).unwrap())
                .fold(f64::INFINITY, f64::min);
            assert!(
                (solution.gain() - brute).abs() < 1e-9,
                "fast_cost {fast_cost}: PI {} vs brute {brute}",
                solution.gain()
            );
        }
    }

    #[test]
    fn expensive_fast_repair_is_rejected() {
        // At fast-cost 100 the fast action is never worth it.
        let mdp = repair_mdp(100.0);
        let solution = policy_iteration(&mdp, &Options::default()).unwrap();
        assert_eq!(solution.policy().action(1), 0);
    }

    #[test]
    fn cheap_fast_repair_is_chosen() {
        let mdp = repair_mdp(6.0);
        let solution = policy_iteration(&mdp, &Options::default()).unwrap();
        assert_eq!(solution.policy().action(1), 1);
    }

    #[test]
    fn reference_state_does_not_change_gain() {
        let mdp = repair_mdp(9.0);
        let policy = Policy::new(vec![0, 1]);
        let e0 = evaluate(&mdp, &policy, 0).unwrap();
        let e1 = evaluate(&mdp, &policy, 1).unwrap();
        assert!((e0.gain() - e1.gain()).abs() < 1e-12);
        assert_eq!(e0.bias()[0], 0.0);
        assert_eq!(e1.bias()[1], 0.0);
        // Biases differ by a constant shift.
        let shift = e0.bias()[1] - e1.bias()[1];
        assert!((e0.bias()[0] - (e1.bias()[0] + shift)).abs() < 1e-10);
    }

    #[test]
    fn iteration_count_is_reported() {
        let mdp = repair_mdp(6.0);
        let solution = policy_iteration(&mdp, &Options::default()).unwrap();
        assert!(solution.iterations() >= 1);
        assert!(solution.iterations() <= 4);
    }

    #[test]
    fn convergence_telemetry_is_reported() {
        let mdp = repair_mdp(6.0);
        let solution = policy_iteration(&mdp, &Options::default()).unwrap();
        // One evaluation timing and one improvement delta per iteration,
        // and the final improvement round changes nothing.
        assert_eq!(solution.eval_timings().len(), solution.iterations());
        assert_eq!(solution.improvement_deltas().len(), solution.iterations());
        assert_eq!(*solution.improvement_deltas().last().unwrap(), 0);
        assert!(solution.eval_timings().iter().all(|&t| t >= 0.0));
        // The converged policy satisfies the evaluation equations tightly.
        assert!(solution.eval_residual() < 1e-9);
        assert_eq!(solution.gain_history().len(), solution.iterations());
        assert!((solution.gain_history().last().unwrap() - solution.gain()).abs() < 1e-12);
    }

    #[test]
    fn multichain_convergence_telemetry_is_reported() {
        let mut b = Ctmdp::builder(3);
        b.action(0, "stay", 1.0, &[]).unwrap();
        b.action(0, "hop", 0.5, &[(1, 2.0)]).unwrap();
        b.action(1, "stay", 4.0, &[]).unwrap();
        b.action(1, "back", 2.0, &[(0, 1.0)]).unwrap();
        b.action(2, "stay", 0.1, &[]).unwrap();
        let mdp = b.build().unwrap();
        let sol =
            policy_iteration_multichain(&mdp, Policy::new(vec![0, 0, 0]), &Options::default())
                .unwrap();
        assert_eq!(sol.eval_timings().len(), sol.iterations());
        assert_eq!(sol.improvement_deltas().len(), sol.iterations());
        assert_eq!(*sol.improvement_deltas().last().unwrap(), 0);
        assert!(sol.eval_residual() < 1e-9);
    }

    #[test]
    fn three_state_ring_with_shortcuts() {
        // State 0 cheap, state 2 very expensive; action choice in state 1
        // routes either into 2 or back to 0.
        let mut b = Ctmdp::builder(3);
        b.action(0, "advance", 0.0, &[(1, 1.0)]).unwrap();
        b.action(1, "risky", 0.0, &[(2, 1.0)]).unwrap();
        b.action(1, "safe", 3.0, &[(0, 1.0)]).unwrap();
        b.action(2, "recover", 50.0, &[(0, 0.2)]).unwrap();
        let mdp = b.build().unwrap();
        let solution = policy_iteration(&mdp, &Options::default()).unwrap();
        // Expensive state must be avoided.
        assert_eq!(solution.policy().action(1), 1);
        // Brute force via gain/bias evaluation, which (unlike the stationary
        // solver) handles policies with transient states.
        let brute = mdp
            .enumerate_policies()
            .into_iter()
            .map(|p| evaluate(&mdp, &p, 0).unwrap().gain())
            .fold(f64::INFINITY, f64::min);
        assert!((solution.gain() - brute).abs() < 1e-9);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let mdp = repair_mdp(9.0);
        assert!(evaluate(&mdp, &Policy::new(vec![0]), 0).is_err());
        assert!(evaluate(&mdp, &Policy::new(vec![0, 0]), 5).is_err());
        assert!(policy_iteration_from(&mdp, Policy::new(vec![9, 9]), &Options::default()).is_err());
    }

    #[test]
    fn single_state_process() {
        let mut b = Ctmdp::builder(1);
        b.action(0, "idle", 2.5, &[]).unwrap();
        b.action(0, "other", 4.0, &[]).unwrap();
        let mdp = b.build().unwrap();
        let solution = policy_iteration(&mdp, &Options::default()).unwrap();
        assert_eq!(solution.policy().action(0), 0);
        assert!((solution.gain() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn single_state_evaluation() {
        let mut b = Ctmdp::builder(1);
        b.action(0, "idle", 2.5, &[]).unwrap();
        b.action(0, "other", 4.0, &[]).unwrap();
        let mdp = b.build().unwrap();
        let eval = evaluate(&mdp, &Policy::new(vec![0]), 0).unwrap();
        assert!((eval.gain() - 2.5).abs() < 1e-12);
        let eval = evaluate(&mdp, &Policy::new(vec![1]), 0).unwrap();
        assert_eq!(eval.gain(), 4.0);
        assert_eq!(eval.bias().as_slice(), &[0.0]);
    }
}

#[cfg(test)]
mod kernel_and_reuse_tests {
    use super::tests::{assert_matches_dense, repair_mdp};
    use super::*;

    /// A larger unichain CTMDP (ring with shortcuts) where every policy is
    /// irreducible, so policy iteration takes many improvement rounds.
    fn ring(n: usize) -> Ctmdp {
        let mut b = Ctmdp::builder(n);
        for i in 0..n {
            let next = (i + 1) % n;
            let cost = 1.0 + (i as f64) * 0.37;
            b.action(i, "step", cost, &[(next, 1.0 + (i as f64) * 0.01)])
                .unwrap();
            let shortcut = (i + 2) % n;
            if shortcut != i && shortcut != next {
                b.action(i, "skip", cost * 1.5, &[(next, 0.3), (shortcut, 0.9)])
                    .unwrap();
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn csr_improvement_matches_reference_scan_exactly() {
        let mdp = ring(12);
        let kernel = mdp.sparse_actions();
        for policy in mdp.enumerate_policies().into_iter().take(32) {
            let eval = evaluate(&mdp, &policy, 0).unwrap();
            let tol = Options::default().improvement_tolerance;
            let dense = improve_step(&mdp, &policy, eval.bias(), tol);
            let csr = improve_step_csr(&kernel, &policy, eval.bias(), tol);
            assert_eq!(dense, csr, "policy {policy}");
        }
    }

    #[test]
    fn sparse_direct_matches_dense_evaluation() {
        let mdp = repair_mdp(9.0);
        for policy in mdp.enumerate_policies() {
            let eval = evaluate(&mdp, &policy, 0).unwrap();
            assert_matches_dense(&mdp, &policy, 0, &eval);
        }
    }

    #[test]
    fn sparse_direct_handles_stiff_rates_directly() {
        // A 1e6 rate spread (the instant-event surrogate) costs a direct
        // solve nothing beyond its entries.
        let mut b = Ctmdp::builder(3);
        b.action(0, "instant", 0.5, &[(1, 1e6)]).unwrap();
        b.action(1, "work", 2.0, &[(2, 1.0)]).unwrap();
        b.action(2, "rest", 1.0, &[(0, 0.5)]).unwrap();
        let mdp = b.build().unwrap();
        let policy = Policy::new(vec![0, 0, 0]);
        let eval = evaluate(&mdp, &policy, 0).unwrap();
        assert_matches_dense(&mdp, &policy, 0, &eval);
    }

    #[test]
    fn sparse_direct_diagnoses_multichain_policies() {
        // Two absorbing states: two closed classes.
        let mut b = Ctmdp::builder(2);
        b.action(0, "stay", 1.0, &[]).unwrap();
        b.action(1, "stay", 2.0, &[]).unwrap();
        let mdp = b.build().unwrap();
        assert!(matches!(
            evaluate(&mdp, &Policy::new(vec![0, 0]), 0),
            Err(MdpError::NotUnichain { .. })
        ));
        assert!(matches!(
            policy_iteration(&mdp, &Options::default()),
            Err(MdpError::NotUnichain { iteration: 1 })
        ));
    }
}

#[cfg(test)]
mod multichain_tests {
    use super::tests::assert_matches_dense;
    use super::*;

    /// MDP where "stay put" is legal everywhere, so policies can shatter
    /// the chain into several recurrent classes.
    fn shatterable() -> Ctmdp {
        let mut b = Ctmdp::builder(3);
        // State 0: cheap-ish, can stay (absorbing) or move on.
        b.action(0, "stay", 3.0, &[]).unwrap();
        b.action(0, "go", 3.0, &[(1, 1.0)]).unwrap();
        // State 1: expensive, can stay or move.
        b.action(1, "stay", 10.0, &[]).unwrap();
        b.action(1, "go", 10.0, &[(2, 1.0)]).unwrap();
        // State 2: cheapest.
        b.action(2, "stay", 1.0, &[]).unwrap();
        b.action(2, "back", 5.0, &[(0, 1.0)]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn evaluate_multichain_handles_all_stay() {
        let mdp = shatterable();
        let policy = Policy::new(vec![0, 0, 0]);
        let eval = evaluate_multichain(&mdp, &policy).unwrap();
        assert_eq!(eval.gains().as_slice(), &[3.0, 10.0, 1.0]);
    }

    #[test]
    fn evaluate_multichain_matches_unichain_evaluation() {
        let mdp = shatterable();
        // go, go, stay: unichain (absorbs in state 2).
        let policy = Policy::new(vec![1, 1, 0]);
        let multi = evaluate_multichain(&mdp, &policy).unwrap();
        let uni = evaluate(&mdp, &policy, 2).unwrap();
        assert_matches_dense(&mdp, &policy, 2, &uni);
        for i in 0..3 {
            assert!((multi.gains()[i] - uni.gain()).abs() < 1e-10);
        }
    }

    #[test]
    fn multichain_pi_routes_everything_to_the_cheap_state() {
        let mdp = shatterable();
        // Worst start: everything stays put.
        let sol =
            policy_iteration_multichain(&mdp, Policy::new(vec![0, 0, 0]), &Options::default())
                .unwrap();
        // Optimal: from 0 go to 1, from 1 go to 2, stay at 2 (gain 1
        // everywhere).
        for i in 0..3 {
            assert!(
                (sol.gain_from(i) - 1.0).abs() < 1e-9,
                "state {i}: {}",
                sol.gain_from(i)
            );
        }
        assert_eq!(sol.policy().actions(), &[1, 1, 0]);
        assert!(sol.iterations() >= 2);
    }

    #[test]
    fn multichain_pi_agrees_with_unichain_pi_on_unichain_mdp() {
        let mut b = Ctmdp::builder(2);
        b.action(0, "run", 1.0, &[(1, 1.0)]).unwrap();
        b.action(1, "slow", 5.0, &[(0, 1.0)]).unwrap();
        b.action(1, "fast", 9.0, &[(0, 10.0)]).unwrap();
        let mdp = b.build().unwrap();
        let uni = policy_iteration(&mdp, &Options::default()).unwrap();
        let multi = policy_iteration_multichain(&mdp, Policy::new(vec![0, 0]), &Options::default())
            .unwrap();
        assert_eq!(uni.policy(), multi.policy());
        assert!((multi.gain_from(0) - uni.gain()).abs() < 1e-9);
    }

    #[test]
    fn multichain_pi_keeps_isolated_cheap_class() {
        // If staying where you are is cheapest, PI should not move.
        let mut b = Ctmdp::builder(2);
        b.action(0, "stay", 1.0, &[]).unwrap();
        b.action(0, "go", 1.0, &[(1, 1.0)]).unwrap();
        b.action(1, "stay", 2.0, &[]).unwrap();
        b.action(1, "go", 2.0, &[(0, 1.0)]).unwrap();
        let mdp = b.build().unwrap();
        let sol = policy_iteration_multichain(&mdp, Policy::new(vec![0, 0]), &Options::default())
            .unwrap();
        // From state 0, staying (gain 1) is optimal; from state 1, moving
        // to 0 (gain 1) beats staying (gain 2).
        assert!((sol.gain_from(0) - 1.0).abs() < 1e-9);
        assert!((sol.gain_from(1) - 1.0).abs() < 1e-9);
        assert_eq!(sol.policy().action(0), 0);
        assert_eq!(sol.policy().action(1), 1);
    }
}
