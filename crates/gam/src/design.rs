//! Design-matrix assembly for a GAM.
//!
//! Column 0 is the unpenalized intercept; each term occupies a
//! contiguous block after it. A single row is a sorted list of
//! `(column, value)` pairs — a cubic spline contributes 4 non-zeros, a
//! factor 1, a tensor smooth 16 (`Design::row`, used for prediction).
//!
//! Fitting never materializes the training rows. GEF draws every `D*`
//! feature from a finite sampling domain, so a term sees few distinct
//! inputs: `Codebook` evaluates each distinct input's basis row once
//! and keeps a `u32` code per training row. `XᵀWX`, `XᵀWz` and `Xβ` are
//! then sums over codes (and, for a cross block, over the distinct code
//! pairs), which are exact whenever inputs repeat — the discretized
//! cross-products of Li & Wood (2020).

use crate::terms::{BuiltTerm, TermSpec};
use crate::GamError;
use gef_linalg::Matrix;
use std::collections::HashMap;
use std::hash::Hash;

/// Compiled design: terms, column layout, and the block-diagonal
/// penalty matrix.
#[derive(Debug, Clone)]
pub(crate) struct Design {
    pub(crate) terms: Vec<BuiltTerm>,
    /// Column offset of each term; the intercept is column 0.
    pub(crate) offsets: Vec<usize>,
    /// Total number of columns (1 + Σ term widths).
    pub(crate) num_cols: usize,
    /// Block-diagonal penalty (zero row/column for the intercept).
    pub(crate) penalty: Matrix,
}

gef_trace::json_struct!(Design {
    terms,
    offsets,
    num_cols,
    penalty
});

impl Design {
    /// Compile term specifications into a design.
    pub(crate) fn compile(specs: &[TermSpec], penalty_order: usize) -> Result<Self, GamError> {
        if specs.is_empty() {
            return Err(GamError::InvalidSpec(
                "a GAM needs at least one term".into(),
            ));
        }
        let terms: Vec<BuiltTerm> = specs
            .iter()
            .map(BuiltTerm::build)
            .collect::<Result<_, _>>()?;
        let mut offsets = Vec::with_capacity(terms.len());
        let mut col = 1usize; // 0 = intercept
        for t in &terms {
            offsets.push(col);
            col += t.num_cols();
        }
        let num_cols = col;
        let mut penalty = Matrix::zeros(num_cols, num_cols);
        for (t, &off) in terms.iter().zip(&offsets) {
            let p = t.penalty(penalty_order);
            let k = t.num_cols();
            for i in 0..k {
                for j in 0..k {
                    let v = p[(i, j)];
                    if v != 0.0 {
                        penalty[(off + i, off + j)] = v;
                    }
                }
            }
        }
        Ok(Design {
            terms,
            offsets,
            num_cols,
            penalty,
        })
    }

    /// Sparse design row for instance `x` (sorted by column; starts with
    /// the intercept).
    pub(crate) fn row(&self, x: &[f64]) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(1 + self.terms.len() * 4);
        out.push((0usize, 1.0));
        for (t, &off) in self.terms.iter().zip(&self.offsets) {
            t.fill_row(x, off, &mut out);
        }
        out
    }

    /// Sparse design entries of a single term only (columns are shifted
    /// to the term's global offset).
    pub(crate) fn term_row(&self, term: usize, x: &[f64]) -> Vec<(usize, f64)> {
        let mut out = Vec::with_capacity(16);
        self.terms[term].fill_row(x, self.offsets[term], &mut out);
        out
    }

    /// Column range `[start, end)` of a term.
    pub(crate) fn term_cols(&self, term: usize) -> (usize, usize) {
        let start = self.offsets[term];
        (start, start + self.terms[term].num_cols())
    }
}

/// Dot product of a sparse row with a dense coefficient vector.
#[inline]
pub(crate) fn sparse_dot(row: &[(usize, f64)], beta: &[f64]) -> f64 {
    row.iter().map(|&(c, v)| v * beta[c]).sum()
}

/// One term's distinct training inputs.
#[derive(Debug)]
struct TermCodes {
    /// Code of each training row.
    codes: Vec<u32>,
    /// Training rows per code.
    counts: Vec<f64>,
    /// Non-zeros per code row (fixed by the term's kind).
    width: usize,
    /// The code rows, `width` `(column, value)` entries each, sorted by
    /// column.
    entries: Vec<(usize, f64)>,
}

impl TermCodes {
    fn row(&self, code: usize) -> &[(usize, f64)] {
        &self.entries[code * self.width..(code + 1) * self.width]
    }

    fn len(&self) -> usize {
        self.counts.len()
    }

    /// The term's contribution `X̄ₜβ` at each code.
    fn values(&self, beta: &[f64]) -> Vec<f64> {
        self.entries
            .chunks_exact(self.width)
            .map(|row| sparse_dot(row, beta))
            .collect()
    }
}

/// The cross block between terms `s < t`.
#[derive(Debug)]
struct Pair {
    s: usize,
    t: usize,
    /// `None` when the pair does not compress and every row is its own
    /// combination.
    combos: Option<Combos>,
}

/// A pair's distinct `(code_s, code_t)` combinations.
#[derive(Debug)]
struct Combos {
    /// Combination id of each training row.
    ids: Vec<u32>,
    /// The combinations, by id.
    codes: Vec<(u32, u32)>,
}

/// The training rows of one fit, stored as per-term codebooks.
///
/// Rows share a code only when the term's feature values are bit-for-bit
/// equal, so every sum below equals its row-by-row counterpart up to
/// rounding. With `n` rows, `Kₜ` codes and `C_st` combinations, one
/// [`Codebook::cross_products`] costs `O(n · pairs)` additions plus
/// `Σ Kₜ wₜ² + Σ C_st w_s w_t` multiply-adds (`w` = non-zeros per row),
/// against `n (Σ wₜ)²` row by row. On continuous inputs `Kₜ = n`, no
/// pair compresses, and the cost falls back to the row-wise one.
#[derive(Debug)]
pub(crate) struct Codebook {
    rows: usize,
    num_cols: usize,
    terms: Vec<TermCodes>,
    pairs: Vec<Pair>,
}

impl Codebook {
    /// Encode the training rows `xs` (at most `u32::MAX` of them).
    pub(crate) fn build(design: &Design, xs: &[Vec<f64>]) -> Self {
        let n = xs.len();
        let terms: Vec<TermCodes> = design
            .terms
            .iter()
            .zip(&design.offsets)
            .map(|(term, &off)| {
                let (a, b) = match term {
                    BuiltTerm::Spline { feature, .. } | BuiltTerm::Factor { feature, .. } => {
                        (*feature, None)
                    }
                    BuiltTerm::Tensor { features, .. } => (features.0, Some(features.1)),
                };
                let keys = xs
                    .iter()
                    .map(|x| (x[a].to_bits(), b.map_or(0, |b| x[b].to_bits())));
                // n keys never exceed the limit n.
                let (codes, firsts) = encode(keys, n).unwrap_or_default();
                let mut counts = vec![0.0; firsts.len()];
                for &k in &codes {
                    counts[k as usize] += 1.0;
                }
                let mut entries = Vec::new();
                for &i in &firsts {
                    term.fill_row(&xs[i as usize], off, &mut entries);
                }
                TermCodes {
                    codes,
                    counts,
                    width: entries.len() / firsts.len().max(1),
                    entries,
                }
            })
            .collect();
        // A pair is worth an index only if it at least halves the rows.
        let limit = n / 2;
        let mut pairs = Vec::new();
        for s in 0..terms.len() {
            for t in s + 1..terms.len() {
                let (cs, ct) = (&terms[s], &terms[t]);
                let combos = (cs.len().max(ct.len()) <= limit)
                    .then(|| {
                        let keys = cs
                            .codes
                            .iter()
                            .zip(&ct.codes)
                            .map(|(&a, &b)| (u64::from(a) << 32) | u64::from(b));
                        encode(keys, limit)
                    })
                    .flatten()
                    .map(|(ids, firsts)| Combos {
                        ids,
                        codes: firsts
                            .iter()
                            .map(|&i| (cs.codes[i as usize], ct.codes[i as usize]))
                            .collect(),
                    });
                pairs.push(Pair { s, t, combos });
            }
        }
        Codebook {
            rows: n,
            num_cols: design.num_cols,
            terms,
            pairs,
        }
    }

    /// `(XᵀWX, XᵀWz)` for the rows' `(w, wz)`: weights and weighted
    /// working responses, in row order. One pass sums them into codes
    /// and combinations (a pair that does not compress adds its outer
    /// products row by row), then each code and combination adds one
    /// outer product.
    pub(crate) fn cross_products(
        &self,
        weights: impl IntoIterator<Item = (f64, f64)>,
    ) -> (Matrix, Vec<f64>) {
        let p = self.num_cols;
        let mut g = Matrix::zeros(p, p);
        let mut b = vec![0.0; p];
        let gd = g.data_mut();
        let mut term_sums: Vec<_> = self
            .terms
            .iter()
            .map(|t| (vec![0.0; t.len()], vec![0.0; t.len()]))
            .collect();
        let mut pair_sums: Vec<_> = self
            .pairs
            .iter()
            .map(|pair| vec![0.0; pair.combos.as_ref().map_or(0, |c| c.codes.len())])
            .collect();
        for (i, (wi, zi)) in weights.into_iter().enumerate() {
            gd[0] += wi;
            b[0] += zi;
            for (term, (sw, swz)) in self.terms.iter().zip(&mut term_sums) {
                let k = term.codes[i] as usize;
                sw[k] += wi;
                swz[k] += zi;
            }
            for (pair, sw) in self.pairs.iter().zip(&mut pair_sums) {
                match &pair.combos {
                    Some(combos) => sw[combos.ids[i] as usize] += wi,
                    None => {
                        let (ts, tt) = (&self.terms[pair.s], &self.terms[pair.t]);
                        let (ks, kt) = (ts.codes[i] as usize, tt.codes[i] as usize);
                        add_outer(gd, p, wi, ts.row(ks), tt.row(kt));
                    }
                }
            }
        }
        for (term, (sw, swz)) in self.terms.iter().zip(&term_sums) {
            for (k, (&wk, &zk)) in sw.iter().zip(swz).enumerate() {
                let row = term.row(k);
                for (a, &(c, v)) in row.iter().enumerate() {
                    gd[c] += wk * v;
                    b[c] += zk * v;
                    add_outer(gd, p, wk, &row[a..a + 1], &row[a..]);
                }
            }
        }
        for (pair, sw) in self.pairs.iter().zip(&pair_sums) {
            let (ts, tt) = (&self.terms[pair.s], &self.terms[pair.t]);
            for (&wc, &(ks, kt)) in sw.iter().zip(pair.combos.iter().flat_map(|c| &c.codes)) {
                add_outer(gd, p, wc, ts.row(ks as usize), tt.row(kt as usize));
            }
        }
        g.mirror_upper();
        (g, b)
    }

    /// The linear predictor `Xβ` of every training row.
    pub(crate) fn linear_predictor(&self, beta: &[f64]) -> Vec<f64> {
        let mut eta = vec![beta[0]; self.rows];
        for term in &self.terms {
            let values = term.values(beta);
            for (e, &k) in eta.iter_mut().zip(&term.codes) {
                *e += values[k as usize];
            }
        }
        eta
    }

    /// Training column means of the design.
    pub(crate) fn column_means(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.num_cols];
        sums[0] = self.rows as f64;
        for term in &self.terms {
            for (k, &count) in term.counts.iter().enumerate() {
                for &(c, v) in term.row(k) {
                    sums[c] += count * v;
                }
            }
        }
        sums.iter().map(|s| s / self.rows as f64).collect()
    }

    /// Mean and standard deviation of each term's training contribution.
    pub(crate) fn component_stats(&self, beta: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let n = self.rows as f64;
        self.terms
            .iter()
            .map(|term| {
                let (mut sum, mut sq) = (0.0, 0.0);
                for (&count, c) in term.counts.iter().zip(term.values(beta)) {
                    sum += count * c;
                    sq += count * c * c;
                }
                let mean = sum / n;
                (mean, (sq / n - mean * mean).max(0.0).sqrt())
            })
            .unzip()
    }
}

/// `g[a, b] += w · va · vb` for every `(a, va)` in `left`, `(b, vb)` in
/// `right` (row-major, `p` columns).
#[inline]
fn add_outer(g: &mut [f64], p: usize, w: f64, left: &[(usize, f64)], right: &[(usize, f64)]) {
    for &(a, va) in left {
        let wa = w * va;
        let row = &mut g[a * p..(a + 1) * p];
        for &(b, vb) in right {
            row[b] += wa * vb;
        }
    }
}

/// Code each key by first occurrence: returns each key's code and the
/// index of the first key with each code, or `None` once more than
/// `limit` distinct keys appear. Codes follow the key order alone, never
/// the map's (randomly keyed) hashing, so every run codes alike.
fn encode<K: Hash + Eq>(
    keys: impl Iterator<Item = K>,
    limit: usize,
) -> Option<(Vec<u32>, Vec<u32>)> {
    let mut seen = HashMap::new();
    let mut codes = Vec::with_capacity(keys.size_hint().0);
    let mut firsts = Vec::new();
    for (i, key) in keys.enumerate() {
        let next = firsts.len() as u32;
        let code = *seen.entry(key).or_insert(next);
        if code == next {
            if firsts.len() == limit {
                return None;
            }
            firsts.push(i as u32);
        }
        codes.push(code);
    }
    Some((codes, firsts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<TermSpec> {
        vec![
            TermSpec::spline(0, (0.0, 1.0)),                    // 20 cols
            TermSpec::factor(1, vec![0.0, 1.0, 2.0]),           // 3 cols
            TermSpec::tensor((0, 2), ((0.0, 1.0), (0.0, 1.0))), // 64 cols
        ]
    }

    #[test]
    fn column_layout() {
        let d = Design::compile(&specs(), 2).unwrap();
        assert_eq!(d.offsets, vec![1, 21, 24]);
        assert_eq!(d.num_cols, 88);
        assert_eq!(d.term_cols(1), (21, 24));
        assert_eq!(d.term_cols(2), (24, 88));
    }

    #[test]
    fn row_is_sorted_and_intercept_first() {
        let d = Design::compile(&specs(), 2).unwrap();
        let row = d.row(&[0.5, 1.0, 0.25]);
        assert_eq!(row[0], (0, 1.0));
        for w in row.windows(2) {
            assert!(w[0].0 < w[1].0, "row not sorted: {row:?}");
        }
        // 1 intercept + 4 spline + 1 factor + 16 tensor
        assert_eq!(row.len(), 22);
    }

    #[test]
    fn penalty_is_block_diagonal_with_free_intercept() {
        let d = Design::compile(&specs(), 2).unwrap();
        // Intercept row/col all zero.
        for j in 0..d.num_cols {
            assert_eq!(d.penalty[(0, j)], 0.0);
            assert_eq!(d.penalty[(j, 0)], 0.0);
        }
        // No cross-term coupling.
        let (s1, e1) = d.term_cols(0);
        let (s2, e2) = d.term_cols(1);
        for i in s1..e1 {
            for j in s2..e2 {
                assert_eq!(d.penalty[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn rejects_empty_spec() {
        assert!(Design::compile(&[], 2).is_err());
    }

    /// Spline, anchored spline, factor, tensor and anchored tensor terms.
    fn oracle_design() -> Design {
        let anchors: Vec<f64> = (0..=20).map(|i| (f64::from(i) / 20.0).powi(2)).collect();
        Design::compile(
            &[
                TermSpec::spline(0, (0.0, 1.0)),
                TermSpec::SplineAnchored {
                    feature: 1,
                    num_basis: 12,
                    degree: 3,
                    anchors: anchors.clone(),
                },
                TermSpec::factor(2, vec![0.0, 1.0, 2.0]),
                TermSpec::tensor((0, 1), ((0.0, 1.0), (0.0, 1.0))),
                TermSpec::TensorAnchored {
                    features: (1, 3),
                    num_basis: (6, 5),
                    anchors: (anchors.clone(), anchors),
                    degree: 2,
                },
            ],
            2,
        )
        .unwrap()
    }

    /// Rows whose feature `j` takes `levels[j]` distinct values (0 =
    /// continuous, every row distinct).
    fn oracle_rows(rng: &mut gef_trace::rng::Rng, n: usize, levels: [usize; 4]) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                levels
                    .iter()
                    .enumerate()
                    .map(|(j, &k)| {
                        let u = match k {
                            0 => rng.unit(),
                            k => rng.below(k) as f64 / (k - 1).max(1) as f64,
                        };
                        if j == 2 {
                            2.0 * u
                        } else {
                            u
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// `|got − want| ≤ 1e-12 · scale`, element by element.
    fn assert_close(got: &[f64], want: &[f64], scale: &[f64], what: &str) {
        assert_eq!(got.len(), want.len());
        for (i, ((g, w), s)) in got.iter().zip(want).zip(scale).enumerate() {
            assert!((g - w).abs() <= 1e-12 * s, "{what}[{i}]: {g} vs {w}");
        }
    }

    #[test]
    fn codebook_matches_dense_row_by_row_reference() {
        let design = oracle_design();
        let p = design.num_cols;
        let mut rng = gef_trace::rng::Rng::new(0x0c0d);
        for (levels, compresses) in [
            ([9, 7, 3, 4], true),
            ([0, 0, 0, 0], false),
            ([9, 0, 3, 4], false),
        ] {
            let n = 600;
            let xs = oracle_rows(&mut rng, n, levels);
            let w: Vec<f64> = (0..n).map(|_| rng.uniform(0.05, 1.0)).collect();
            let wz: Vec<f64> = w.iter().map(|&wi| wi * rng.uniform(-3.0, 3.0)).collect();
            let beta: Vec<f64> = (0..p).map(|_| rng.uniform(-1.0, 1.0)).collect();

            // Dense reference, accumulated row by row.
            let mut g_ref = vec![0.0; p * p];
            let (mut b_ref, mut b_scale) = (vec![0.0; p], vec![0.0; p]);
            let (mut eta_ref, mut eta_scale) = (vec![0.0; n], vec![0.0; n]);
            let mut means_ref = vec![0.0; p];
            for (i, x) in xs.iter().enumerate() {
                let mut dense = vec![0.0; p];
                for (c, v) in design.row(x) {
                    dense[c] += v;
                }
                for a in 0..p {
                    for b in 0..p {
                        g_ref[a * p + b] += w[i] * dense[a] * dense[b];
                    }
                    b_ref[a] += wz[i] * dense[a];
                    b_scale[a] += (wz[i] * dense[a]).abs();
                    eta_ref[i] += dense[a] * beta[a];
                    eta_scale[i] += (dense[a] * beta[a]).abs();
                    means_ref[a] += dense[a] / n as f64;
                }
            }

            let book = Codebook::build(&design, &xs);
            let every_pair = book.pairs.iter().all(|pair| pair.combos.is_some());
            assert_eq!(every_pair, compresses, "levels {levels:?}");
            if levels == [0; 4] {
                assert!(book.terms.iter().all(|t| t.len() == n));
                assert!(book.pairs.iter().all(|pair| pair.combos.is_none()));
            }
            let (g, b) = book.cross_products(w.iter().copied().zip(wz.iter().copied()));
            // XᵀWX has non-negative terms only (w > 0, basis values ≥ 0),
            // so each entry is its own scale.
            assert_close(g.data(), &g_ref, &g_ref, "XᵀWX");
            assert_close(&b, &b_ref, &b_scale, "XᵀWz");
            assert_close(&book.linear_predictor(&beta), &eta_ref, &eta_scale, "η");
            assert_close(&book.column_means(), &means_ref, &means_ref, "means");
        }
    }

    #[test]
    fn sparse_dot_matches_dense() {
        let row = vec![(0usize, 1.0), (3, 0.5), (7, -2.0)];
        let beta = vec![1.0, 9.0, 9.0, 2.0, 9.0, 9.0, 9.0, 0.25];
        assert!((sparse_dot(&row, &beta) - (1.0 + 1.0 - 0.5)).abs() < 1e-12);
    }
}
