//! Differential tests of [`ChainGains`] against the dense oracle it
//! replaced: per-class stationary solves on dense sub-generators, a dense
//! LU for the transient block, and a dense LU for the bias equations.
//!
//! The generators are multichain by construction — at least two closed
//! classes, singleton absorbing states among them, and transient states —
//! with rates log-uniform over 1e-3…1e6, the spread of the power-managed
//! chains' instantaneous switching rate.

use dpm_ctmc::stationary::{self, ChainGains, Solver};
use dpm_ctmc::{graph, Generator, SparseGenerator};
use dpm_linalg::{DMatrix, DVector};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The closed classes of `generator` and, per state, whether it lies in
/// one.
fn closed_classes(generator: &Generator) -> (Vec<Vec<usize>>, Vec<bool>) {
    let classes = graph::communicating_classes(generator);
    let mut closed = vec![true; classes.len()];
    for (from, to, _) in generator.transitions() {
        if classes.class_of(from) != classes.class_of(to) {
            closed[classes.class_of(from)] = false;
        }
    }
    let members: Vec<Vec<usize>> = (0..classes.len())
        .filter(|&c| closed[c])
        .map(|c| classes.members(c).to_vec())
        .collect();
    let mut recurrent = vec![false; generator.n_states()];
    for &i in members.iter().flatten() {
        recurrent[i] = true;
    }
    (members, recurrent)
}

/// Dense oracle for the gain vector: each closed class's stationary
/// distribution from its own dense sub-generator, then
/// `G_TT g_T = −G_TR g_R` by dense LU.
fn oracle_gains(generator: &Generator, costs: &DVector) -> DVector {
    let n = generator.n_states();
    let (classes, recurrent) = closed_classes(generator);
    let mut gains = DVector::zeros(n);
    for members in &classes {
        let gain = if members.len() == 1 {
            costs[members[0]]
        } else {
            let mut b = Generator::builder(members.len());
            for (local_from, &from) in members.iter().enumerate() {
                for (local_to, &to) in members.iter().enumerate() {
                    let r = generator.rate(from, to);
                    if from != to && r > 0.0 {
                        b.add_rate(local_from, local_to, r);
                    }
                }
            }
            let sub = b.build().expect("closed class is a generator");
            let (pi, _) = Solver::new(stationary::FALLBACK_CHAIN[0])
                .with_default_fallback()
                .solve(&sub)
                .expect("closed class is irreducible");
            members
                .iter()
                .enumerate()
                .map(|(k, &i)| pi[k] * costs[i])
                .sum()
        };
        for &i in members {
            gains[i] = gain;
        }
    }
    let transient: Vec<usize> = (0..n).filter(|&i| !recurrent[i]).collect();
    if !transient.is_empty() {
        let a = DMatrix::from_fn(transient.len(), transient.len(), |r, c| {
            generator.rate(transient[r], transient[c])
        });
        let b = DVector::from_fn(transient.len(), |r| {
            let i = transient[r];
            -(0..n)
                .filter(|&j| recurrent[j] && j != i)
                .map(|j| generator.rate(i, j) * gains[j])
                .sum::<f64>()
        });
        let g_t = a
            .lu()
            .expect("transient block")
            .solve(&b)
            .expect("sizes match");
        for (r, &i) in transient.iter().enumerate() {
            gains[i] = g_t[r];
        }
    }
    gains
}

/// The dense evaluation matrix `A` (the generator restricted to the states
/// that are not the first of a closed class) and those states.
fn dense_evaluation_matrix(generator: &Generator) -> (DMatrix, Vec<usize>) {
    let (classes, _) = closed_classes(generator);
    let unknowns: Vec<usize> = (0..generator.n_states())
        .filter(|i| !classes.iter().any(|members| members[0] == *i))
        .collect();
    let a = DMatrix::from_fn(unknowns.len(), unknowns.len(), |r, c| {
        generator.rate(unknowns[r], unknowns[c])
    });
    (a, unknowns)
}

/// Dense oracle for the bias: `A v = g − c` by dense LU, `v = 0` at the
/// first state of each closed class.
fn oracle_bias(generator: &Generator, gains: &DVector, costs: &DVector) -> DVector {
    let (a, unknowns) = dense_evaluation_matrix(generator);
    let mut bias = DVector::zeros(generator.n_states());
    if !unknowns.is_empty() {
        let b = DVector::from_fn(unknowns.len(), |r| gains[unknowns[r]] - costs[unknowns[r]]);
        let v = a
            .lu()
            .expect("evaluation matrix")
            .solve(&b)
            .expect("sizes match");
        for (r, &i) in unknowns.iter().enumerate() {
            bias[i] = v[r];
        }
    }
    bias
}

/// A random multichain generator on `n ≥ 4` states: `2 ≤ classes ≤ n / 2`
/// closed classes over the first `n / 2` states (a ring plus a chord each;
/// the first is a singleton, so there is always an absorbing state), then
/// transient states that each leak
/// into a lower-labelled state and take one random extra edge. Rates are
/// log-uniform over 1e-3…1e6 and labels are shuffled.
fn random_multichain(n: usize, classes: usize, seed: u64) -> SparseGenerator {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let rate = |rng: &mut ChaCha8Rng| 10f64.powf(rng.gen_range(-3.0..6.0));
    let recurrent = n / 2;
    // Class c covers [bounds[c], bounds[c + 1]), leaving at least one
    // state for each class after it.
    let mut bounds = vec![0, 1, 2];
    for c in 2..classes {
        let lo = bounds[c] + 1;
        let hi = recurrent - (classes - c - 1);
        bounds.push(rng.gen_range(lo..=hi.max(lo)));
    }
    bounds[classes] = recurrent;
    let mut edges = Vec::new();
    for c in 0..classes {
        let (lo, hi) = (bounds[c], bounds[c + 1]);
        for i in lo..hi {
            if hi - lo > 1 {
                edges.push((i, lo + (i + 1 - lo) % (hi - lo), rate(&mut rng)));
                let j = rng.gen_range(lo..hi);
                if j != i {
                    edges.push((i, j, rate(&mut rng)));
                }
            }
        }
    }
    for i in recurrent..n {
        edges.push((i, rng.gen_range(0..i), rate(&mut rng)));
        let j = rng.gen_range(0..n);
        if j != i {
            edges.push((i, j, rate(&mut rng)));
        }
    }
    let mut label: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        label.swap(i, rng.gen_range(0..=i));
    }
    let transitions: Vec<(usize, usize, f64)> = edges
        .into_iter()
        .map(|(i, j, r)| (label[i], label[j], r))
        .collect();
    SparseGenerator::from_transitions(n, &transitions).expect("valid rates")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn chain_gains_match_the_dense_oracle(
        (n, classes) in (6usize..=40).prop_flat_map(|n| (Just(n), 2usize..=(n / 2).min(6))),
        seed in 0u64..u64::MAX,
    ) {
        let sparse = random_multichain(n, classes, seed);
        let dense = sparse.to_generator().expect("valid generator");
        let (closed, recurrent) = closed_classes(&dense);
        prop_assert!(closed.len() >= 2);
        prop_assert!(closed.iter().any(|members| members.len() == 1));
        prop_assert!(recurrent.iter().any(|&r| !r));

        // Nine decades of rates can leave the evaluation matrix singular
        // to working precision; such a draw has no reference solution.
        let (a, _) = dense_evaluation_matrix(&dense);
        let Ok(inverse) = a.clone().lu().and_then(|lu| lu.inverse()) else {
            return;
        };
        let kappa = inverse.norm_inf() * a.norm_inf();

        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED);
        let costs = DVector::from_fn(n, |_| rng.gen_range(0.0..10.0));
        let chain = ChainGains::new(&sparse).expect("evaluation matrix is non-singular");
        // The class distributions from the shared factor pass the guard
        // on their own; the per-class fallback is for worse chains.
        prop_assert_eq!(chain.fallback_classes(), 0);
        let gains = chain.gains(&costs).expect("length matches");
        let bias = chain.bias(&gains, &costs).expect("length matches");
        let expected_gains = oracle_gains(&dense, &costs);
        let expected_bias = oracle_bias(&dense, &expected_gains, &costs);

        // Both sides are backward stable, so they agree to `n` rounding
        // units times the condition number of the evaluation matrix.
        let tol = n as f64 * f64::EPSILON * kappa.max(1.0);
        let gain_diff = (&gains - &expected_gains).norm_inf();
        prop_assert!(gain_diff <= tol * costs.norm_inf(), "gains differ by {gain_diff:e} (κ {kappa:e})");
        let bias_diff = (&bias - &expected_bias).norm_inf();
        prop_assert!(
            bias_diff <= tol * expected_bias.norm_inf().max(costs.norm_inf()),
            "bias differs by {bias_diff:e} (κ {kappa:e})"
        );
    }
}
