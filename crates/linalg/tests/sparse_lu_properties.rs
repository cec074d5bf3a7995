//! Property-based tests pinning the sparse LU factorization to the dense
//! reference: random sparse systems, with and without a dense row, solved
//! both ways (`A x = b` and `Aᵀ x = b`), and the normalization-row systems
//! of random unichain generators with transient states.

use dpm_linalg::{CsrMatrix, DMatrix, DVector, SparseLu};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A random sparse `n × n` system: about three off-diagonal entries per row
/// in `[-5, 5]`, a diagonal of magnitude in `[0.5, 5]` (random sign), and —
/// when `dense_row` — one row with an entry in every column.
fn random_system(n: usize, seed: u64, dense_row: bool) -> CsrMatrix {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    for i in 0..n {
        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
        triplets.push((i, i, sign * rng.gen_range(0.5..5.0)));
        for _ in 0..3 {
            triplets.push((i, rng.gen_range(0..n), rng.gen_range(-5.0..5.0)));
        }
    }
    if dense_row {
        let r = rng.gen_range(0..n);
        for c in 0..n {
            triplets.push((r, c, rng.gen_range(-5.0..5.0)));
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets).expect("valid triplets")
}

/// `‖A⁻¹‖∞` from the dense inverse, or `None` when `a` is singular.
fn inverse_norm(a: &DMatrix) -> Option<f64> {
    Some(a.clone().lu().ok()?.inverse().ok()?.norm_inf())
}

/// A random unichain generator on `n` states: `recurrent` of them form one
/// irreducible class (a ring plus random chords), every other state is
/// transient and leaks into a lower-labelled state, and labels are then
/// shuffled so transient states land anywhere, the last index included.
/// Rates are log-uniform over six decades. Returns the generator and the
/// transient mask.
fn random_unichain(n: usize, recurrent: usize, seed: u64) -> (Vec<(usize, usize, f64)>, Vec<bool>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let rate = |rng: &mut ChaCha8Rng| 10f64.powf(rng.gen_range(-3.0..3.0));
    let mut edges = Vec::new();
    for i in 0..recurrent {
        if recurrent > 1 {
            edges.push((i, (i + 1) % recurrent, rate(&mut rng)));
            let j = rng.gen_range(0..recurrent);
            if j != i {
                edges.push((i, j, rate(&mut rng)));
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
    // Fisher–Yates relabelling.
    let mut label: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        label.swap(i, rng.gen_range(0..=i));
    }
    let mut transient = vec![false; n];
    for (i, &l) in label.iter().enumerate() {
        transient[l] = i >= recurrent;
    }
    let mut triplets = Vec::new();
    for (i, j, r) in edges {
        triplets.push((label[i], label[j], r));
        triplets.push((label[i], label[i], -r));
    }
    (triplets, transient)
}

/// The equilibrated normalization-row system the stationary solvers build:
/// `Gᵀ` with each balance row scaled by its largest entry and row `n − 1`
/// replaced by `Σπ = 1`.
fn normalization_system(n: usize, generator: &[(usize, usize, f64)]) -> CsrMatrix {
    let g = CsrMatrix::from_triplets(n, n, generator).expect("valid generator");
    let mut row_max = vec![0.0f64; n];
    for (_, j, v) in g.iter() {
        row_max[j] = row_max[j].max(v.abs());
    }
    let mut triplets: Vec<(usize, usize, f64)> = g
        .iter()
        .filter(|&(_, j, _)| j < n - 1)
        .map(|(i, j, v)| (j, i, v / row_max[j]))
        .collect();
    triplets.extend((0..n).map(|c| (n - 1, c, 1.0)));
    CsrMatrix::from_triplets(n, n, &triplets).expect("valid system")
}

/// Largest difference between `SparseLu::solve_transposed` on `a` and the
/// dense LU solve of `Aᵀ`, with the forward-error bound it must meet;
/// `None` when `a` is singular.
fn transposed_diff(a: &CsrMatrix, b: &DVector) -> Option<(f64, f64)> {
    let at = a.transpose().to_dense();
    let inv_norm = inverse_norm(&at)?;
    let x = SparseLu::new(a)
        .expect("non-singular")
        .solve_transposed(b)
        .expect("dimension matches");
    let reference = at
        .clone()
        .lu()
        .expect("non-singular")
        .solve(b)
        .expect("dimension matches");
    let kappa = inv_norm * at.norm_inf();
    let bound = 1e-12 * kappa.max(1.0) * reference.norm_inf().max(1.0);
    Some(((&x - &reference).norm_inf(), bound))
}

#[test]
fn solve_transposed_matches_dense_lu_past_the_dense_switch() {
    // Half the entries present: far past the 10% density at which the
    // factorization skips the fill-reducing ordering and eliminates on a
    // dense block from the first step.
    let n = 80;
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    let mut triplets = Vec::new();
    for i in 0..n {
        triplets.push((i, i, 4.0 + rng.gen_range(0.0..1.0)));
        for j in 0..n {
            if j != i && rng.gen_bool(0.5) {
                triplets.push((i, j, rng.gen_range(-1.0..1.0)));
            }
        }
    }
    let a = CsrMatrix::from_triplets(n, n, &triplets).expect("valid triplets");
    assert!(a.density() > 0.4);
    let b = DVector::from_fn(n, |i| ((i * 5 + 1) as f64).cos());
    let (diff, bound) = transposed_diff(&a, &b).expect("non-singular");
    assert!(diff <= bound, "diff {diff:e} > bound {bound:e}");
    let x = SparseLu::new(&a)
        .expect("non-singular")
        .solve(&b)
        .expect("dimension matches");
    let reference = a
        .to_dense()
        .lu()
        .expect("non-singular")
        .solve(&b)
        .expect("dimension matches");
    assert!((&x - &reference).norm_inf() <= bound);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn solve_transposed_matches_dense_lu_on_random_systems(
        n in 1usize..=60,
        seed in 0u64..u64::MAX,
        dense_row in 0usize..2,
    ) {
        let a = random_system(n, seed, dense_row == 1);
        let b = DVector::from_fn(n, |i| ((i * 3 + 2) as f64).cos());
        // A singular draw has no reference solution.
        if let Some((diff, bound)) = transposed_diff(&a, &b) {
            prop_assert!(diff <= bound, "n {n}: diff {diff:e} > bound {bound:e}");
        }
    }

    #[test]
    fn sparse_lu_matches_dense_lu_on_random_systems(
        n in 1usize..=60,
        seed in 0u64..u64::MAX,
        dense_row in 0usize..2,
    ) {
        let a = random_system(n, seed, dense_row == 1);
        let dense = a.to_dense();
        let Some(inv_norm) = inverse_norm(&dense) else {
            // A singular draw has no reference solution.
            return;
        };
        let b = DVector::from_fn(n, |i| ((i * 7 + 3) as f64).sin());
        let x = SparseLu::new(&a).expect("non-singular").solve(&b).expect("dimension matches");
        let reference = dense.clone().lu().expect("non-singular").solve(&b).expect("dimension matches");
        // Forward error is bounded by the condition number times a
        // backward error of a few ulps per entry.
        let kappa = inv_norm * dense.norm_inf();
        let bound = 1e-12 * kappa.max(1.0) * reference.norm_inf().max(1.0);
        prop_assert!(
            (&x - &reference).norm_inf() <= bound,
            "n {n}: diff {:e} > bound {bound:e}",
            (&x - &reference).norm_inf()
        );
    }

    #[test]
    fn sparse_lu_solves_unichain_normalization_systems(
        (n, recurrent) in (2usize..=160).prop_flat_map(|n| (Just(n), 1usize..=n)),
        seed in 0u64..u64::MAX,
    ) {
        let (generator, transient) = random_unichain(n, recurrent, seed);
        let a = normalization_system(n, &generator);
        let mut b = DVector::zeros(n);
        b[n - 1] = 1.0;
        let pi = SparseLu::new(&a).expect("unichain system is non-singular").solve(&b).expect("dimension matches");
        let reference = a.to_dense().lu().expect("non-singular").solve(&b).expect("dimension matches");
        prop_assert!((&pi - &reference).norm_inf() < 1e-8, "diff {:e}", (&pi - &reference).norm_inf());
        prop_assert!((pi.sum() - 1.0).abs() < 1e-10);
        for (i, &t) in transient.iter().enumerate() {
            prop_assert!(pi[i] > -1e-10, "π[{i}] = {:e}", pi[i]);
            if t {
                prop_assert!(pi[i].abs() < 1e-10, "transient π[{i}] = {:e}", pi[i]);
            }
        }
    }
}
