//! Sparse direct LU factorization with a fill-reducing ordering and
//! threshold partial pivoting.
//!
//! [`SparseLu`] factorizes a square [`CsrMatrix`] as `P · A · Q = L · U`
//! by rowwise Gaussian elimination, keeping only the fill-in that actually
//! occurs. It picks both permutations itself:
//!
//! * **`Q`, the column order**, is a symmetric minimum-degree order on the
//!   pattern of `A + Aᵀ`, computed on a quotient graph in the style of AMD
//!   (Amestoy, Davis & Duff) in `O(nnz)` memory. Nodes that are dense by
//!   the matrix's own structure — the all-ones normalization row of a
//!   stationary system, the gain column of a policy-evaluation system —
//!   are left out of the graph and ordered last.
//! * **`P`, the row order**, is threshold partial pivoting: among the
//!   sparse rows with an entry in the pivot column, those within
//!   [`PIVOT_THRESHOLD`] of the column's largest qualify, and the one with
//!   the fewest entries wins, ties to the lowest position. A row whose own
//!   entries dwarf its pivot ranks last, so element growth cannot compound
//!   along a chain of such pivots. Dense rows are held apart and taken only
//!   when no sparse row qualifies: a dense pivot row would fill every row it
//!   updates.
//!
//! Active rows are bucketed by their leading column, so each step visits
//! only the rows it eliminates, and dense rows are stored densely, so
//! eliminating from them costs the pivot row's length rather than theirs.
//! Once the active rows fill [`DENSE_SWITCH`] of the trailing submatrix,
//! they move into a dense block — at most five times the memory of the
//! sparse rows it replaces — and elimination finishes there under the same
//! pivot rule, with contiguous row updates instead of sparse merges. An
//! input already that dense starts there and keeps its natural column
//! order.
//!
//! [`SparseLu::solve_transposed`] reuses the factors for `Aᵀ x = b`.
//!
//! On the generator-shaped systems this workspace solves (`O(1)` entries
//! per row plus a dense row or column) the factor stays within a small
//! multiple of `nnz(A)` — a birth–death chain's normalization system does
//! not fill at all — and a direct solve does not care how stiff the rate
//! spectrum is, so the sweep-count caveat of the uniformization-based
//! iterations does not apply.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::{CsrMatrix, DVector, LinalgError};

/// Relative pivot threshold below which the matrix is treated as singular,
/// matching the dense [`crate::Lu`] criterion.
const PIVOT_EPS: f64 = 1e-13;

/// Threshold partial pivoting: a row qualifies as pivot when its entry in
/// the pivot column is at least this fraction of the column's largest.
/// Bounds the multipliers by `1 / PIVOT_THRESHOLD` while leaving room to
/// pick sparse rows.
const PIVOT_THRESHOLD: f64 = 0.1;

/// Once the active rows hold at least this fraction of the `m²` entries
/// of the trailing `m × m` submatrix, elimination finishes on a dense
/// block: past that density, sparse bookkeeping costs more than the zeros
/// it skips.
const DENSE_SWITCH: f64 = 0.1;

/// A sparse LU factorization `P · A · Q = L · U` with a fill-reducing
/// column order `Q` and threshold partial (row) pivoting `P`.
///
/// # Examples
///
/// ```
/// use dpm_linalg::{CsrMatrix, DVector, SparseLu};
///
/// # fn main() -> Result<(), dpm_linalg::LinalgError> {
/// // [ 2 1 ]        [ 4 ]
/// // [ 1 3 ] x  =   [ 7 ]
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)])?;
/// let x = SparseLu::new(&a)?.solve(&DVector::from_vec(vec![4.0, 7.0]))?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SparseLu {
    n: usize,
    /// Row permutation: `row_perm[k]` is the original row pivoted at step `k`.
    row_perm: Vec<usize>,
    /// Column permutation: `col_perm[k]` is the original column eliminated
    /// at step `k`.
    col_perm: Vec<usize>,
    /// Elimination multipliers per step: `lower[k]` holds `(j, f)` pairs,
    /// ascending in `j < k`, meaning `y[k] -= f · y[j]` during forward
    /// substitution.
    lower: Vec<Vec<(usize, f64)>>,
    /// Upper-triangular rows in step space: `upper[k]` holds `(j, value)`
    /// pairs with `j ≥ k`, the pivot `(k, u_kk)` first.
    upper: Vec<Vec<(usize, f64)>>,
}

/// An active sparse row: its multipliers so far and its remaining entries
/// `(step, value)`, unordered, with the position of its leading
/// (lowest-step) entry and its largest magnitude.
#[derive(Default)]
struct SparseRow {
    lower: Vec<(usize, f64)>,
    entries: Vec<(usize, f64)>,
    lead: usize,
    max: f64,
}

impl SparseRow {
    fn new(entries: Vec<(usize, f64)>) -> Self {
        let mut row = SparseRow {
            entries,
            ..SparseRow::default()
        };
        row.refresh();
        row
    }

    /// Recomputes the leading entry's position and the largest magnitude.
    fn refresh(&mut self) {
        self.lead = (0..self.entries.len())
            .min_by_key(|&i| self.entries[i].0)
            .unwrap_or(0);
        self.max = self.entries.iter().map(|e| e.1.abs()).fold(0.0, f64::max);
    }

    /// The leading entry's step, `None` once the row is empty.
    fn lead_step(&self) -> Option<usize> {
        self.entries.get(self.lead).map(|e| e.0)
    }

    fn lead_value(&self) -> f64 {
        self.entries[self.lead].1
    }

    /// `row −= factor · pivot` at step `k`: drops the eliminated entry,
    /// updates the entries the pivot `tail` shares in place (located
    /// through `slot`) and appends the rest as fill. Entries that cancel to
    /// exactly zero are dropped — they can never pivot and contribute
    /// nothing downstream. `seen` marks, under the unique `stamp`, the tail
    /// entries already present in the row.
    fn subtract_scaled(
        &mut self,
        k: usize,
        factor: f64,
        tail: &[(usize, f64)],
        slot: &[(usize, usize)],
        seen: &mut [usize],
        stamp: usize,
    ) {
        self.entries.retain_mut(|(j, v)| {
            if *j == k {
                return false;
            }
            let (step, s) = slot[*j];
            if step == k {
                *v -= factor * tail[s].1;
                seen[s] = stamp;
            }
            nonzero(*v)
        });
        for (s, &(j, u)) in tail.iter().enumerate() {
            let v = -factor * u;
            if seen[s] != stamp && nonzero(v) {
                self.entries.push((j, v));
            }
        }
        self.refresh();
    }
}

/// An active dense row: its multipliers so far and its values indexed by
/// step (entries of eliminated steps are stale).
struct DenseRow {
    row: usize,
    lower: Vec<(usize, f64)>,
    values: Vec<f64>,
}

/// A row of the dense trailing block that finishes the elimination from
/// step `k` on: its values over steps `k..n`.
struct BlockRow {
    row: usize,
    lower: Vec<(usize, f64)>,
    values: Vec<f64>,
    deferred: bool,
}

/// One row competing for the pivot of an elimination step.
struct Candidate {
    /// The row's index in the caller's active set.
    id: usize,
    /// Magnitude of its entry in the pivot column.
    value: f64,
    /// The tie-break: the step at which the column sharing the row's index
    /// is eliminated.
    position: usize,
    /// A structurally dense row, taken only when no other row qualifies.
    deferred: bool,
}

/// Threshold partial pivoting over one step's `candidates`. Deferred rows
/// compete only when no other row reaches the singularity `floor`. Within
/// the pool, a row qualifies at [`PIVOT_THRESHOLD`] of the pool's largest
/// magnitude. Qualifying rows rank by balance — a row whose own entries
/// dwarf its pivot would pass them on to every row it updates, compounding
/// growth step after step, so it ranks last — then by fewest entries, then
/// by lowest position; `shape` gives a qualifying row's entry count and
/// largest magnitude (the pivot-column entry included). `None` means the
/// step has no acceptable pivot.
fn choose_pivot(
    candidates: &[Candidate],
    floor: f64,
    shape: impl Fn(&Candidate) -> (usize, f64),
) -> Option<&Candidate> {
    [false, true].into_iter().find_map(|deferred| {
        let pool = || candidates.iter().filter(move |c| c.deferred == deferred);
        let max = pool().map(|c| c.value).fold(0.0f64, f64::max);
        if max <= floor {
            return None;
        }
        pool()
            .filter(|c| c.value >= PIVOT_THRESHOLD * max)
            .min_by_key(|c| {
                let (len, row_max) = shape(c);
                (c.value < PIVOT_THRESHOLD * row_max, len, c.position)
            })
    })
}

/// The factors as they are produced, one step at a time.
#[derive(Default)]
struct Factors {
    row_perm: Vec<usize>,
    lower: Vec<Vec<(usize, f64)>>,
    upper: Vec<Vec<(usize, f64)>>,
}

impl Factors {
    fn push(&mut self, row: usize, lower: Vec<(usize, f64)>, upper: Vec<(usize, f64)>) {
        self.row_perm.push(row);
        self.lower.push(lower);
        self.upper.push(upper);
    }
}

impl SparseLu {
    /// Factorizes `a`.
    ///
    /// The column order, the pivot choices and every tie-break depend only
    /// on `a`, so the factorization — like every solver in this workspace —
    /// is a pure function of its input.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] if `a` is not square, or
    /// [`LinalgError::Singular`] (naming the original column) if no
    /// acceptable pivot exists in some column.
    pub fn new(a: &CsrMatrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.nrows();
        let scale = a.iter().map(|(_, _, v)| v.abs()).fold(1.0f64, f64::max);
        let floor = PIVOT_EPS * scale;
        let dense = dense_threshold(n);
        // An input that already fills `DENSE_SWITCH` of its `n²` entries
        // goes straight to the dense block at step 0, so a fill-reducing
        // order could not save anything: keep the natural column order.
        let fill: usize = (0..n)
            .map(|r| match a.row(r).count() {
                len if len > dense => n,
                _ => a.row(r).filter(|&(_, v)| nonzero(v)).count(),
            })
            .sum();
        let col_perm = if fill as f64 >= DENSE_SWITCH * (n * n) as f64 {
            (0..n).collect()
        } else {
            min_degree_order(a, dense)
        };
        let mut step_of = vec![0; n];
        for (k, &c) in col_perm.iter().enumerate() {
            step_of[c] = k;
        }

        // Rows in step space. A sparse row sits in the bucket of its
        // leading step; every step below the current one is already
        // eliminated from it, so bucket `k` holds exactly the sparse rows
        // with an entry in column `k`.
        let mut rows: Vec<SparseRow> = Vec::with_capacity(n);
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut dense_rows: Vec<DenseRow> = Vec::new();
        for r in 0..n {
            let entries = a.row(r).map(|(c, v)| (step_of[c], v));
            if a.row(r).count() > dense {
                let mut values = vec![0.0; n];
                for (k, v) in entries {
                    values[k] = v;
                }
                dense_rows.push(DenseRow {
                    row: r,
                    lower: Vec::new(),
                    values,
                });
                rows.push(SparseRow::default());
            } else {
                let row = SparseRow::new(entries.filter(|&(_, v)| nonzero(v)).collect());
                if let Some(lead) = row.lead_step() {
                    buckets[lead].push(r);
                }
                rows.push(row);
            }
        }
        // Entries held by the active sparse rows.
        let mut active: usize = rows.iter().map(|r| r.entries.len()).sum();

        // `slot[j] = (k, s)`: step `j` sits at `s` in step `k`'s pivot tail.
        let mut slot = vec![(usize::MAX, 0); n];
        // `seen[s] == update`: the row of that update already held tail
        // entry `s`.
        let mut seen = vec![usize::MAX; n];
        let mut update = 0;
        let mut factors = Factors::default();
        let mut candidates = Vec::new();
        for k in 0..n {
            let m = n - k;
            if (active + dense_rows.len() * m) as f64 >= DENSE_SWITCH * (m * m) as f64 {
                let block = buckets[k..]
                    .iter()
                    .flatten()
                    .map(|&r| {
                        let SparseRow { lower, entries, .. } = std::mem::take(&mut rows[r]);
                        let mut values = vec![0.0; m];
                        for (j, v) in entries {
                            values[j - k] = v;
                        }
                        BlockRow {
                            row: r,
                            lower,
                            values,
                            deferred: false,
                        }
                    })
                    .chain(dense_rows.drain(..).map(|d| BlockRow {
                        row: d.row,
                        lower: d.lower,
                        values: d.values[k..].to_vec(),
                        deferred: true,
                    }))
                    .collect();
                eliminate_dense(k, block, &col_perm, &step_of, floor, &mut factors)?;
                break;
            }

            let bucket = std::mem::take(&mut buckets[k]);
            candidates.clear();
            candidates.extend(bucket.iter().map(|&r| Candidate {
                id: r,
                value: rows[r].lead_value().abs(),
                position: step_of[r],
                deferred: false,
            }));
            candidates.extend(dense_rows.iter().enumerate().map(|(i, d)| Candidate {
                id: i,
                value: d.values[k].abs(),
                position: step_of[d.row],
                deferred: true,
            }));
            let shape = |c: &Candidate| (rows[c.id].entries.len(), rows[c.id].max);
            let Some(chosen) = choose_pivot(&candidates, floor, shape) else {
                return Err(LinalgError::Singular { pivot: col_perm[k] });
            };
            let (pivot_row, pivot_lower, pivot_entries) = if chosen.deferred {
                // A dense pivot row: its tail becomes a (dense) upper row.
                let DenseRow { row, lower, values } = dense_rows.remove(chosen.id);
                let entries = (k..n)
                    .map(|j| (j, values[j]))
                    .filter(|&(_, v)| nonzero(v))
                    .collect();
                (row, lower, entries)
            } else {
                let r = chosen.id;
                let SparseRow {
                    lower,
                    mut entries,
                    lead,
                    ..
                } = std::mem::take(&mut rows[r]);
                active -= entries.len();
                entries.swap(0, lead);
                (r, lower, entries)
            };
            let pivot = pivot_entries[0].1;
            let tail = &pivot_entries[1..];
            for (s, &(j, _)) in tail.iter().enumerate() {
                slot[j] = (k, s);
            }
            for &r in &bucket {
                if r == pivot_row {
                    continue;
                }
                let row = &mut rows[r];
                let factor = row.lead_value() / pivot;
                row.lower.push((k, factor));
                active -= row.entries.len();
                row.subtract_scaled(k, factor, tail, &slot, &mut seen, update);
                active += row.entries.len();
                update += 1;
                if let Some(lead) = row.lead_step() {
                    buckets[lead].push(r);
                }
            }
            for d in &mut dense_rows {
                let v = d.values[k];
                if nonzero(v) {
                    let factor = v / pivot;
                    d.lower.push((k, factor));
                    for &(j, u) in tail {
                        d.values[j] -= factor * u;
                    }
                }
            }
            factors.push(pivot_row, pivot_lower, pivot_entries);
        }

        let Factors {
            row_perm,
            lower,
            upper,
        } = factors;
        Ok(SparseLu {
            n,
            row_perm,
            col_perm,
            lower,
            upper,
        })
    }

    /// Dimension of the factorized matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored factor entries (fill-in diagnostic).
    #[must_use]
    pub fn factor_nnz(&self) -> usize {
        self.lower.iter().map(Vec::len).sum::<usize>()
            + self.upper.iter().map(Vec::len).sum::<usize>()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &DVector) -> Result<DVector, LinalgError> {
        let n = self.n;
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "sparse lu solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // y = P b, then forward substitution: each step's multipliers
        // reference strictly earlier steps, so an ascending pass finalizes
        // y[k] before anything reads it.
        let mut y: Vec<f64> = self.row_perm.iter().map(|&r| b[r]).collect();
        for (k, multipliers) in self.lower.iter().enumerate() {
            for &(j, factor) in multipliers {
                let delta = factor * y[j];
                y[k] -= delta;
            }
        }
        // Back substitution over the sparse upper rows gives z = Q⁻¹ x.
        let mut z = vec![0.0; n];
        for k in (0..n).rev() {
            let row = &self.upper[k];
            let mut sum = y[k];
            for &(j, val) in &row[1..] {
                sum -= val * z[j];
            }
            z[k] = sum / row[0].1;
        }
        let mut x = DVector::zeros(n);
        for (k, &c) in self.col_perm.iter().enumerate() {
            x[c] = z[k];
        }
        Ok(x)
    }

    /// Solves `Aᵀ x = b` with the same factors: `Aᵀ = Q · Uᵀ · Lᵀ · P`, so
    /// a forward pass over `Uᵀ` and a backward pass over `Lᵀ`, each
    /// scattering one factor row at a time.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != self.dim()`.
    pub fn solve_transposed(&self, b: &DVector) -> Result<DVector, LinalgError> {
        let n = self.n;
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "sparse lu transposed solve",
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // w = Qᵀ b; Uᵀ s = w: step k's value is final once every earlier
        // upper row has scattered into it.
        let mut w: Vec<f64> = self.col_perm.iter().map(|&c| b[c]).collect();
        for (k, row) in self.upper.iter().enumerate() {
            w[k] /= row[0].1;
            let s = w[k];
            for &(j, val) in &row[1..] {
                w[j] -= val * s;
            }
        }
        // Lᵀ t = s: a descending pass, since step k's multipliers reach
        // only earlier steps.
        for (k, multipliers) in self.lower.iter().enumerate().rev() {
            let t = w[k];
            for &(j, factor) in multipliers {
                w[j] -= factor * t;
            }
        }
        // P x = t.
        let mut x = DVector::zeros(n);
        for (k, &r) in self.row_perm.iter().enumerate() {
            x[r] = w[k];
        }
        Ok(x)
    }
}

/// Finishes the factorization from step `k` on a dense block of the
/// remaining rows, column by column under the same pivot rule.
fn eliminate_dense(
    k: usize,
    mut block: Vec<BlockRow>,
    col_perm: &[usize],
    step_of: &[usize],
    floor: f64,
    factors: &mut Factors,
) -> Result<(), LinalgError> {
    let n = col_perm.len();
    let mut candidates = Vec::with_capacity(block.len());
    for j in 0..n - k {
        candidates.clear();
        candidates.extend(block.iter().enumerate().map(|(i, b)| Candidate {
            id: i,
            value: b.values[j].abs(),
            position: step_of[b.row],
            deferred: b.deferred,
        }));
        let shape = |c: &Candidate| {
            let tail = &block[c.id].values[j..];
            (
                tail.iter().filter(|&&v| nonzero(v)).count(),
                tail.iter().map(|v| v.abs()).fold(0.0, f64::max),
            )
        };
        let Some(chosen) = choose_pivot(&candidates, floor, shape) else {
            return Err(LinalgError::Singular {
                pivot: col_perm[k + j],
            });
        };
        let BlockRow {
            row, lower, values, ..
        } = block.swap_remove(chosen.id);
        let pivot = values[j];
        for b in &mut block {
            let v = b.values[j];
            if nonzero(v) {
                let factor = v / pivot;
                b.lower.push((k + j, factor));
                for (x, &u) in b.values[j + 1..].iter_mut().zip(&values[j + 1..]) {
                    *x -= factor * u;
                }
            }
        }
        let upper = (j..values.len())
            .map(|c| (k + c, values[c]))
            .filter(|&(_, u)| nonzero(u))
            .collect();
        factors.push(row, lower, upper);
    }
    Ok(())
}

/// Degree above which a node of `A + Aᵀ` (and a row of `A`) counts as
/// dense: AMD's default rule, `max(16, 10·√n)`.
fn dense_threshold(n: usize) -> usize {
    16.max(10 * n.isqrt())
}

/// Symmetric minimum-degree elimination order on the pattern of `A + Aᵀ`.
///
/// The graph is kept as a quotient graph: an eliminated node becomes an
/// *element* whose member list stands in for the clique its elimination
/// would create, so memory stays `O(nnz)` however much fill the order
/// implies. Each variable keeps its remaining variable neighbours and its
/// adjacent elements; eliminating a pivot merges its elements into one new
/// element (absorbing them) and prunes variable edges the new element
/// covers. Degrees are AMD's approximate external degrees, elements whose
/// members all lie in the new element are absorbed aggressively, and the
/// next pivot is the minimum degree with ties to the lowest index. Nodes
/// with more than `dense` neighbours are left out and ordered last, in
/// index order.
fn min_degree_order(a: &CsrMatrix, dense: usize) -> Vec<usize> {
    let n = a.nrows();
    let mut vars: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, j, _) in a.iter() {
        if i != j {
            vars[i].push(j);
            vars[j].push(i);
        }
    }
    for adj in &mut vars {
        adj.sort_unstable();
        adj.dedup();
    }
    let is_dense: Vec<bool> = vars.iter().map(|adj| adj.len() > dense).collect();
    for adj in &mut vars {
        adj.retain(|&j| !is_dense[j]);
    }
    let mut degree: Vec<usize> = vars.iter().map(Vec::len).collect();
    // Min-heap on (degree, index); an entry is stale once its node is
    // eliminated or its degree has changed, and is skipped when popped.
    let mut queue: BinaryHeap<Reverse<(usize, usize)>> = (0..n)
        .filter(|&i| !is_dense[i])
        .map(|i| Reverse((degree[i], i)))
        .collect();
    let mut live = queue.len();
    let mut eliminated = vec![false; n];
    let mut elems: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut absorbed = vec![false; n];
    // `in_pivot[i] == step`: node `i` is the pivot of `step` or a member of
    // its new element.
    let mut in_pivot = vec![usize::MAX; n];
    // `outside[e]`, valid when `outside_step[e] == step`: how many members
    // of element `e` lie outside the new element.
    let mut outside = vec![0usize; n];
    let mut outside_step = vec![usize::MAX; n];
    let mut order = Vec::with_capacity(n);

    while let Some(Reverse((d, p))) = queue.pop() {
        if eliminated[p] || d != degree[p] {
            continue;
        }
        eliminated[p] = true;
        let step = order.len();
        order.push(p);
        live -= 1;
        in_pivot[p] = step;
        let mut new_members = Vec::new();
        for &j in &vars[p] {
            if in_pivot[j] != step {
                in_pivot[j] = step;
                new_members.push(j);
            }
        }
        for &e in &elems[p] {
            for &j in &members[e] {
                if in_pivot[j] != step {
                    in_pivot[j] = step;
                    new_members.push(j);
                }
            }
            members[e] = Vec::new();
            absorbed[e] = true;
        }
        vars[p] = Vec::new();
        elems[p] = Vec::new();

        for &i in &new_members {
            elems[i].retain(|&e| !absorbed[e]);
            elems[i].push(p);
            // Drops the pivot and every edge the new element covers.
            vars[i].retain(|&j| in_pivot[j] != step);
            for &e in &elems[i] {
                if e != p {
                    if outside_step[e] != step {
                        outside_step[e] = step;
                        outside[e] = members[e].len();
                    }
                    outside[e] -= 1;
                }
            }
        }
        let others = new_members.len().saturating_sub(1);
        for &i in &new_members {
            let mut external = vars[i].len() + others;
            elems[i].retain(|&e| {
                if e == p {
                    return true;
                }
                if outside[e] == 0 {
                    absorbed[e] = true;
                    members[e] = Vec::new();
                    return false;
                }
                external += outside[e];
                true
            });
            let d = external.min(degree[i] + others).min(live - 1);
            if d != degree[i] {
                degree[i] = d;
                queue.push(Reverse((d, i)));
            }
        }
        members[p] = new_members;
    }
    order.extend((0..n).filter(|&i| is_dense[i]));
    order
}

/// Whether `v` is a stored (non-zero) entry.
fn nonzero(v: f64) -> bool {
    // dpm-lint: allow(float_eq, reason = "exact cancellation check: only entries that are literally 0.0 are dropped, which changes the stored pattern but never a solve result")
    v != 0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DMatrix;

    fn csr_of(dense: &DMatrix) -> CsrMatrix {
        CsrMatrix::from_dense(dense)
    }

    #[test]
    fn matches_dense_lu_on_small_system() {
        let a =
            DMatrix::from_rows(&[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]]).unwrap();
        let b = DVector::from_vec(vec![5.0, -2.0, 9.0]);
        let sparse = SparseLu::new(&csr_of(&a)).unwrap().solve(&b).unwrap();
        let dense = a.clone().lu().unwrap().solve(&b).unwrap();
        for i in 0..3 {
            assert!((sparse[i] - dense[i]).abs() < 1e-12, "component {i}");
        }
    }

    #[test]
    fn pivots_past_leading_zero() {
        let a = DMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = SparseLu::new(&csr_of(&a))
            .unwrap()
            .solve(&DVector::from_vec(vec![3.0, 7.0]))
            .unwrap();
        assert_eq!(x.as_slice(), &[7.0, 3.0]);
    }

    #[test]
    fn pivot_swap_after_recorded_multipliers_is_correct() {
        // Step 0 records multipliers 0.25 and 0.5 for the rows at
        // positions 1 and 2; step 1 then pivots from position 2, swapping
        // the two rows. The multipliers must travel with their rows —
        // a factorization that keys them by position solves this wrong.
        let a =
            DMatrix::from_rows(&[&[1.0, 1.0, 0.0], &[0.25, 0.1, 1.0], &[0.5, 2.0, 3.0]]).unwrap();
        let b = DVector::from_vec(vec![1.0, 2.0, 3.0]);
        let x = SparseLu::new(&csr_of(&a)).unwrap().solve(&b).unwrap();
        let dense = a.clone().lu().unwrap().solve(&b).unwrap();
        for i in 0..3 {
            assert!((x[i] - dense[i]).abs() < 1e-12, "component {i}");
        }
    }

    #[test]
    fn repeated_pivot_swaps_match_dense_lu() {
        // A cyclic generator-style matrix whose sub-diagonal mass grows
        // down each column, so partial pivoting swaps at nearly every
        // step, long after earlier multipliers were recorded.
        let n = 50;
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, i, -1.2 - (i as f64 * 1.7).sin() * 0.3));
            triplets.push((i, (i + 1) % n, 0.3 + i as f64 * 0.02));
            triplets.push((i, (i + 2) % n, 0.9));
        }
        let a = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
        let b = DVector::from_fn(n, |i| (i as f64 * 0.7).cos());
        let x = SparseLu::new(&a).unwrap().solve(&b).unwrap();
        let dense = a.to_dense().lu().unwrap().solve(&b).unwrap();
        for i in 0..n {
            assert!((x[i] - dense[i]).abs() < 1e-9, "component {i}");
        }
    }

    #[test]
    fn detects_singular() {
        let a = DMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            SparseLu::new(&csr_of(&a)),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn detects_structurally_empty_column() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 2.0)]).unwrap();
        assert!(matches!(
            SparseLu::new(&a),
            Err(LinalgError::Singular { pivot: 0 | 1 })
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]).unwrap();
        assert!(matches!(
            SparseLu::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn solve_rejects_wrong_length() {
        let lu = SparseLu::new(&csr_of(&DMatrix::identity(3))).unwrap();
        assert!(lu.solve(&DVector::zeros(2)).is_err());
    }

    #[test]
    fn generator_shaped_system_with_trailing_dense_column_stays_sparse() {
        // Tridiagonal core plus a dense last column: the shape of a
        // policy-evaluation system with the gain column ordered last.
        let n = 60;
        let mut triplets = Vec::new();
        for i in 0..n - 1 {
            triplets.push((i, i, -2.0 - i as f64 * 0.01));
            if i > 0 {
                triplets.push((i, i - 1, 0.7));
            }
            if i + 1 < n - 1 {
                triplets.push((i, i + 1, 1.1));
            }
            triplets.push((i, n - 1, -1.0));
        }
        triplets.push((n - 1, 0, 1.0));
        triplets.push((n - 1, n - 1, 0.5));
        let a = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
        let b = DVector::from_fn(n, |i| (i as f64).sin());

        let sparse_lu = SparseLu::new(&a).unwrap();
        let x = sparse_lu.solve(&b).unwrap();
        let dense = a.to_dense().lu().unwrap().solve(&b).unwrap();
        for i in 0..n {
            assert!((x[i] - dense[i]).abs() < 1e-9, "component {i}");
        }
        // Fill-in stays linear: nowhere near the n² dense entry count.
        assert!(
            sparse_lu.factor_nnz() < 8 * n,
            "factor nnz {} for n {n}",
            sparse_lu.factor_nnz()
        );
    }

    #[test]
    fn stiff_rate_spread_is_solved_directly() {
        // Rates spanning six orders of magnitude: the regime where a
        // uniformization-based iteration needs O(rate ratio) sweeps but a
        // direct factorization is unaffected.
        let a = DMatrix::from_rows(&[
            &[-1e6, 1e6, 0.0],
            &[1.0, -1.0 - 1e-3, 1e-3],
            &[0.0, 2.0, -2.0],
        ])
        .unwrap();
        // Shift to make it nonsingular (resolvent-style system).
        let shifted = DMatrix::from_fn(3, 3, |r, c| a[(r, c)] - f64::from(u8::from(r == c)));
        let b = DVector::from_vec(vec![1.0, 2.0, 3.0]);
        let x = SparseLu::new(&csr_of(&shifted)).unwrap().solve(&b).unwrap();
        let residual = &shifted.mul_vec(&x) - &b;
        assert!(
            residual.norm_inf() < 1e-6,
            "residual {}",
            residual.norm_inf()
        );
    }

    /// The equilibrated normalization-row system of an `n`-state
    /// birth–death chain with smoothly varying rates: balance rows of `Gᵀ`
    /// scaled by their largest entry, the last one replaced by `Σπ = 1`.
    fn birth_death_normalization_system(n: usize) -> CsrMatrix {
        let birth = |i: usize| 0.8 + 0.15 * (i as f64 * 0.01).sin();
        let death = |i: usize| 1.0 + 0.15 * (i as f64 * 0.01).cos();
        let mut triplets = Vec::new();
        for j in 0..n - 1 {
            // Balance row j: inflow from j − 1 and j + 1, outflow of j.
            let outflow = birth(j) + if j > 0 { death(j - 1) } else { 0.0 };
            let mut row = vec![(j, -outflow), (j + 1, death(j))];
            if j > 0 {
                row.push((j - 1, birth(j - 1)));
            }
            let max = row.iter().map(|e| e.1.abs()).fold(0.0, f64::max);
            triplets.extend(row.into_iter().map(|(c, v)| (j, c, v / max)));
        }
        triplets.extend((0..n).map(|c| (n - 1, c, 1.0)));
        CsrMatrix::from_triplets(n, n, &triplets).unwrap()
    }

    #[test]
    fn birth_death_normalization_system_does_not_fill() {
        let n = 4000;
        let a = birth_death_normalization_system(n);
        let lu = SparseLu::new(&a).unwrap();
        assert!(
            lu.factor_nnz() <= 8 * a.nnz(),
            "factor nnz {} for nnz(A) {}",
            lu.factor_nnz(),
            a.nnz()
        );
        let b = DVector::from_fn(n, |i| f64::from(u8::from(i == n - 1)));
        let pi = lu.solve(&b).unwrap();
        let residual = &a.mul_vec(&pi) - &b;
        assert!(
            residual.norm_inf() < 1e-12,
            "residual {}",
            residual.norm_inf()
        );
        assert!((pi.sum() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn factorization_is_deterministic() {
        let a = birth_death_normalization_system(300);
        let b = DVector::from_fn(300, |i| (i as f64 * 0.3).cos());
        let first = SparseLu::new(&a).unwrap().solve(&b).unwrap();
        let second = SparseLu::new(&a).unwrap().solve(&b).unwrap();
        for i in 0..300 {
            assert_eq!(first[i].to_bits(), second[i].to_bits(), "component {i}");
        }
    }

    #[test]
    fn input_past_the_dense_switch_keeps_the_natural_order() {
        // A 30-state cycle with chords: 3 entries per row fill 10% of
        // 30², so elimination starts on the dense block and the ordering
        // is skipped.
        let n = 30;
        let mut triplets = Vec::new();
        for i in 0..n {
            triplets.push((i, i, -3.0 - (i as f64).sin()));
            triplets.push((i, (i + 1) % n, 1.0));
            triplets.push((i, (i + 7) % n, 1.5));
        }
        let a = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
        let lu = SparseLu::new(&a).unwrap();
        assert!(lu.col_perm.iter().copied().eq(0..n));
        let b = DVector::from_fn(n, |i| (i as f64 * 0.3).cos());
        let x = lu.solve_transposed(&b).unwrap();
        let dense = a.to_dense().transpose().lu().unwrap().solve(&b).unwrap();
        for i in 0..n {
            assert!((x[i] - dense[i]).abs() < 1e-12, "component {i}");
        }
    }

    #[test]
    fn dense_row_pivots_when_nothing_else_qualifies() {
        // Row 0 has an entry in every column, so it is held in dense
        // storage; it alone has an entry in column 1, which the ordering
        // eliminates first. The dense row must pivot there and become an
        // ordinary (dense) upper row. Row 1 pins x₀; the rest is a
        // lower-bidiagonal chain.
        let n = 150;
        let mut triplets = vec![(1, 0, 1.0)];
        for c in 0..n {
            triplets.push((0, c, 0.5 + 0.1 * (c as f64).cos()));
        }
        for i in 2..n {
            triplets.push((i, i, 2.0 + (i as f64).sin()));
            if i > 2 {
                triplets.push((i, i - 1, 0.7));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &triplets).unwrap();
        assert!(a.row(0).count() > dense_threshold(n));
        let lu = SparseLu::new(&a).unwrap();
        assert_eq!((lu.col_perm[0], lu.row_perm[0]), (1, 0));
        let b = DVector::from_fn(n, |i| (i as f64 * 0.7).cos());
        let x = lu.solve(&b).unwrap();
        let dense = a.to_dense().lu().unwrap().solve(&b).unwrap();
        for i in 0..n {
            assert!((x[i] - dense[i]).abs() < 1e-12, "component {i}");
        }
    }
}
