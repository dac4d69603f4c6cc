//! Penalized GAM fitting: PIRLS with a GCV-tuned shared smoothing
//! parameter.
//!
//! Following the paper (Sec. 3.5), all penalized terms share a single
//! smoothing coefficient λ (`λ₁ = … = λ_{p+q}`), selected by
//! Generalized Cross Validation over a log-spaced grid. The Gaussian /
//! identity case reduces to one penalized least-squares solve per λ
//! candidate (with the normal equations accumulated once); the Binomial
//! / logit case runs a full penalized IRLS per candidate.
//!
//! Bayesian credible intervals use the posterior covariance
//! `Vβ = (XᵀWX + λS)⁻¹ φ` (Wood 2006), the same construction PyGAM uses
//! for the intervals shown in the paper's spline plots.

use crate::design::{sparse_dot, Codebook, Design};
use crate::terms::TermSpec;
use crate::{GamError, Result};
use gef_linalg::{Cholesky, Matrix};
use gef_trace::json::{self, ToJson};

/// Link function (with its implied error distribution, as in the paper:
/// identity/Normal for regression, logit/Binomial for classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// Identity link, Gaussian errors.
    Identity,
    /// Logit link, Binomial errors; responses must lie in `[0, 1]`.
    Logit,
}

gef_trace::json_enum!(Link { Identity, Logit });

impl Link {
    /// Inverse link: map a linear predictor to the response scale.
    #[inline]
    pub fn inverse(&self, eta: f64) -> f64 {
        match self {
            Link::Identity => eta,
            Link::Logit => {
                if eta >= 0.0 {
                    1.0 / (1.0 + (-eta).exp())
                } else {
                    let e = eta.exp();
                    e / (1.0 + e)
                }
            }
        }
    }
}

/// How λ is chosen.
#[derive(Debug, Clone, PartialEq)]
pub enum LambdaSelection {
    /// Use a fixed λ.
    Fixed(f64),
    /// Minimize GCV over the given grid of λ candidates.
    GcvGrid(Vec<f64>),
}

impl Default for LambdaSelection {
    /// 13 log-spaced candidates in `[1e-4, 1e4]`.
    fn default() -> Self {
        LambdaSelection::GcvGrid(gef_linalg::stats::logspace(1e-4, 1e4, 13))
    }
}

/// Full specification of a GAM to fit.
#[derive(Debug, Clone)]
pub struct GamSpec {
    /// Additive terms (at least one).
    pub terms: Vec<TermSpec>,
    /// Link / distribution.
    pub link: Link,
    /// Smoothing-parameter selection.
    pub lambda: LambdaSelection,
    /// Difference-penalty order (2 = curvature, the default).
    pub penalty_order: usize,
    /// Maximum PIRLS iterations (logit only).
    pub max_pirls_iter: usize,
    /// PIRLS convergence tolerance on coefficients.
    pub tol: f64,
}

impl GamSpec {
    /// A regression (identity link) spec with default λ selection.
    pub fn regression(terms: Vec<TermSpec>) -> Self {
        GamSpec {
            terms,
            link: Link::Identity,
            lambda: LambdaSelection::default(),
            penalty_order: 2,
            max_pirls_iter: 25,
            tol: 1e-8,
        }
    }

    /// A binary-classification (logit link) spec with default λ
    /// selection.
    pub fn classification(terms: Vec<TermSpec>) -> Self {
        GamSpec {
            link: Link::Logit,
            ..GamSpec::regression(terms)
        }
    }
}

/// Summary statistics of a fit.
#[derive(Debug, Clone, Copy)]
pub struct FitSummary {
    /// Selected smoothing parameter.
    pub lambda: f64,
    /// GCV score at the selected λ.
    pub gcv: f64,
    /// Effective degrees of freedom `tr(A)`.
    pub edf: f64,
    /// Scale parameter φ (σ̂² for Gaussian, 1 for Binomial).
    pub scale: f64,
    /// Residual sum of squares (Gaussian) or deviance (Binomial).
    pub deviance: f64,
    /// Number of training observations.
    pub n_obs: usize,
    /// PIRLS iterations used at the selected λ (1 for Gaussian).
    pub pirls_iters: usize,
    /// Step-halvings taken by PIRLS at the selected λ (0 for Gaussian
    /// and for cleanly converging logit fits).
    pub step_halvings: usize,
}

gef_trace::json_struct!(FitSummary {
    lambda,
    gcv,
    edf,
    scale,
    deviance,
    n_obs,
    pirls_iters,
    step_halvings = default,
});

/// A fitted Generalized Additive Model.
#[derive(Debug, Clone)]
pub struct Gam {
    design: Design,
    specs: Vec<TermSpec>,
    link: Link,
    beta: Vec<f64>,
    /// Posterior covariance of β (Bayesian, Wood 2006).
    cov: Matrix,
    summary: FitSummary,
    /// Mean training contribution of each term (used to center
    /// component plots, as the paper does in Fig. 4).
    component_means: Vec<f64>,
    /// Standard deviation of each term's training contribution — used
    /// as the term importance for sorting components.
    component_sds: Vec<f64>,
}

gef_trace::json_struct!(Gam {
    design,
    specs,
    link,
    beta,
    cov,
    summary,
    component_means,
    component_sds
});

/// Fit a GAM.
///
/// `xs` are row-major instances, `ys` the responses (in `[0, 1]` for
/// [`Link::Logit`]).
pub fn fit(spec: &GamSpec, xs: &[Vec<f64>], ys: &[f64]) -> Result<Gam> {
    let _span = gef_trace::Span::enter("gam.fit");
    if xs.len() != ys.len() {
        return Err(GamError::InvalidData(format!(
            "{} rows but {} responses",
            xs.len(),
            ys.len()
        )));
    }
    if xs.is_empty() {
        return Err(GamError::InvalidData("empty training set".into()));
    }
    let max_feature = spec
        .terms
        .iter()
        .flat_map(|t| t.features())
        .max()
        .unwrap_or(0);
    if xs[0].len() <= max_feature {
        return Err(GamError::InvalidData(format!(
            "terms reference feature {max_feature} but rows have {} features",
            xs[0].len()
        )));
    }
    if spec.link == Link::Logit && ys.iter().any(|&y| !(0.0..=1.0).contains(&y)) {
        return Err(GamError::InvalidData(
            "logit link requires responses in [0, 1]".into(),
        ));
    }
    if ys.iter().any(|y| !y.is_finite()) {
        return Err(GamError::InvalidData("non-finite response".into()));
    }
    let design = gef_trace::time("gam.design_compile", || {
        Design::compile(&spec.terms, spec.penalty_order)
    })?;
    let n = xs.len();
    let p = design.num_cols;
    if n < p {
        // Penalization makes this solvable, but warn via error for the
        // clearly degenerate case of fewer rows than a single term.
        if n < 8 {
            return Err(GamError::InvalidData(format!(
                "{n} rows is too few to fit {p} coefficients"
            )));
        }
    }
    if u32::try_from(n).is_err() {
        return Err(GamError::InvalidData(format!(
            "{n} rows exceed the u32 row codes of the design codebook"
        )));
    }
    // Encode each term's distinct inputs once; every λ candidate and
    // every PIRLS iteration reads this codebook.
    let book = Codebook::build(&design, xs);

    let grid: Vec<f64> = match &spec.lambda {
        LambdaSelection::Fixed(l) => vec![*l],
        LambdaSelection::GcvGrid(g) => {
            if g.is_empty() {
                return Err(GamError::EmptyLambdaGrid);
            }
            g.clone()
        }
    };
    for &l in &grid {
        // `!(l >= 0)` deliberately rejects NaN alongside negatives.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(l >= 0.0) || !l.is_finite() {
            return Err(GamError::InvalidSpec(format!("invalid λ {l}")));
        }
    }

    // Soft sum-to-zero constraints: each smooth term's basis spans the
    // constant function (B-splines are a partition of unity; factor
    // one-hots sum to 1), which aliases the intercept. We pin each
    // term's *mean training contribution* to zero with a λ-independent
    // quadratic penalty κ·(c_t c_tᵀ), where c_t is the term's training
    // column-mean vector. This keeps the design sparse (unlike a
    // reparameterization) while making both the point estimates and the
    // Bayesian covariance identifiable.
    let constraint = constraint_penalty(&design, &book.column_means());

    let fitted = match spec.link {
        Link::Identity => fit_gaussian(&design, &book, ys, &grid, &constraint)?,
        Link::Logit => fit_logit(
            &design,
            &book,
            ys,
            &grid,
            spec.max_pirls_iter,
            spec.tol,
            &constraint,
        )?,
    };
    let (beta, cov, summary) = fitted;
    if gef_trace::enabled() {
        let t = gef_trace::global();
        t.gauge("gam.lambda", summary.lambda);
        t.gauge("gam.gcv", summary.gcv);
        t.gauge("gam.edf", summary.edf);
        t.gauge("gam.deviance", summary.deviance);
        t.gauge("gam.pirls_iters", summary.pirls_iters as f64);
    }

    // Per-term training contributions (for centering and importance).
    let (component_means, component_sds) = book.component_stats(&beta);

    Ok(Gam {
        design,
        specs: spec.terms.clone(),
        link: spec.link,
        beta,
        cov,
        summary,
        component_means,
        component_sds,
    })
}

type Fitted = (Vec<f64>, Matrix, FitSummary);

/// Build the block-diagonal soft identifiability-constraint matrix.
///
/// * Univariate terms get the outer product of their (unit-normalized)
///   training column means: penalizing `βᵀ (c cᵀ) β` drives the term's
///   average contribution to zero without densifying the design.
/// * Tensor terms instead get **marginal-mean** constraints
///   `(ā āᵀ) ⊗ I + I ⊗ (b̄ b̄ᵀ)`, where `ā`/`b̄` are the training means
///   of the marginal bases. A tensor basis spans pure univariate
///   functions of either feature; without these constraints it aliases
///   the main-effect splines (inflating their credible bands and
///   scrambling the functional decomposition). This is the
///   soft-constraint analogue of mgcv's `ti()` interaction smooths.
///   Because each marginal basis is a partition of unity, the marginal
///   means are exact row/column sums of the tensor's column means.
fn constraint_penalty(design: &Design, means: &[f64]) -> Matrix {
    let p = design.num_cols;
    let mut sc = Matrix::zeros(p, p);
    for t in 0..design.terms.len() {
        let (start, end) = design.term_cols(t);
        if let crate::terms::BuiltTerm::Tensor {
            basis_a, basis_b, ..
        } = &design.terms[t]
        {
            let ka = basis_a.num_basis();
            let kb = basis_b.num_basis();
            // Marginal means: ā_i = Σ_j c[(i,j)], b̄_j = Σ_i c[(i,j)].
            let mut a_bar = vec![0.0; ka];
            let mut b_bar = vec![0.0; kb];
            for i in 0..ka {
                for j in 0..kb {
                    let c = means[start + i * kb + j];
                    a_bar[i] += c;
                    b_bar[j] += c;
                }
            }
            let a2: f64 = a_bar.iter().map(|v| v * v).sum();
            let b2: f64 = b_bar.iter().map(|v| v * v).sum();
            // (ā āᵀ) ⊗ I: kills pure functions of feature b.
            if a2 > 0.0 {
                for i1 in 0..ka {
                    for i2 in 0..ka {
                        let v = a_bar[i1] * a_bar[i2] / a2;
                        if v != 0.0 {
                            for j in 0..kb {
                                sc[(start + i1 * kb + j, start + i2 * kb + j)] += v;
                            }
                        }
                    }
                }
            }
            // I ⊗ (b̄ b̄ᵀ): kills pure functions of feature a.
            if b2 > 0.0 {
                for i in 0..ka {
                    for j1 in 0..kb {
                        for j2 in 0..kb {
                            let v = b_bar[j1] * b_bar[j2] / b2;
                            if v != 0.0 {
                                sc[(start + i * kb + j1, start + i * kb + j2)] += v;
                            }
                        }
                    }
                }
            }
            continue;
        }
        let norm2: f64 = means[start..end].iter().map(|m| m * m).sum();
        if norm2 <= 0.0 {
            continue;
        }
        for i in start..end {
            for j in start..end {
                sc[(i, j)] += means[i] * means[j] / norm2;
            }
        }
    }
    sc
}

/// Small deterministic ridge keeping the penalized system positive
/// definite along term-vs-intercept constant directions (each spline
/// basis is a partition of unity, so its constant direction aliases the
/// intercept; the difference penalty does not remove it).
fn ridge_for(g: &Matrix) -> f64 {
    let p = g.rows();
    let mean_diag = (0..p).map(|i| g[(i, i)].abs()).sum::<f64>() / p as f64;
    1e-7 * mean_diag.max(f64::MIN_POSITIVE)
}

fn penalized_chol(
    g: &Matrix,
    penalty: &Matrix,
    lambda: f64,
    constraint: &Matrix,
    ridge: f64,
) -> Result<Cholesky> {
    let mut c = g.clone();
    c.add_scaled(penalty, lambda)?;
    // λ-independent constraint strength: strong enough to pin the
    // aliased constant directions, orders of magnitude above the data
    // curvature along them (which is shared with the intercept).
    let p = c.rows();
    let kappa = 10.0 * (0..p).map(|i| g[(i, i)].abs()).sum::<f64>() / p as f64;
    c.add_scaled(constraint, kappa)?;
    for i in 0..p {
        c[(i, i)] += ridge;
    }
    Ok(Cholesky::factor_jittered(&c, 1e-10, 14)?)
}

/// `tr(C⁻¹ G)` — the effective degrees of freedom.
fn edf_trace(chol: &Cholesky, g: &Matrix) -> Result<f64> {
    let inv_g = chol.solve_matrix(g)?;
    Ok((0..g.rows()).map(|i| inv_g[(i, i)]).sum())
}

fn fit_gaussian(
    design: &Design,
    book: &Codebook,
    ys: &[f64],
    grid: &[f64],
    constraint: &Matrix,
) -> Result<Fitted> {
    let n = ys.len();
    // Accumulate XᵀX, Xᵀy, yᵀy once.
    let (g, b) = book.cross_products(ys.iter().map(|&y| (1.0, y)));
    let yty: f64 = ys.iter().map(|y| y * y).sum();
    let ridge = ridge_for(&g);

    let _grid_span = gef_trace::Span::enter("gam.gcv_grid");
    // Each λ candidate owns its factorization, so the grid evaluates on
    // the gef-par pool; results come back in grid order. A candidate
    // whose factorization or solve fails is skipped, not fatal: other λ
    // values (typically larger, better conditioned) may still produce a
    // usable fit — the PR 2 per-candidate error-skip semantics.
    let evals = gef_par::map(
        grid.len(),
        gef_par::Options::coarse().with_label("gam.gcv_candidate"),
        |gi| {
            let _eval_span = gef_trace::Span::enter("gam.gcv_eval");
            let lambda = grid[gi];
            (|| -> Result<(f64, Vec<f64>, Cholesky, f64, f64)> {
                // Per-λ cooperative checkpoint: a passed hard deadline stops
                // the grid search with a typed error instead of grinding on.
                if gef_trace::budget::hard_exceeded() {
                    return Err(GamError::DeadlineExceeded { at: "gcv_grid" });
                }
                let chol = penalized_chol(&g, &design.penalty, lambda, constraint, ridge)?;
                let beta = chol.solve(&b)?;
                let bt_b: f64 = beta.iter().zip(&b).map(|(x, y)| x * y).sum();
                let g_beta = g.matvec(&beta)?;
                let bt_g_b: f64 = beta.iter().zip(&g_beta).map(|(x, y)| x * y).sum();
                let rss = (yty - 2.0 * bt_b + bt_g_b).max(0.0);
                let edf = edf_trace(&chol, &g)?;
                let denom = (n as f64 - edf).max(1.0);
                let gcv = n as f64 * rss / (denom * denom);
                Ok((gcv, beta, chol, rss, edf))
            })()
        },
    )?;
    // Selection and event emission stay serial and in grid order, so
    // the telemetry stream is identical at every thread count.
    let mut best: Option<(f64, f64, Vec<f64>, Cholesky, f64, f64)> = None; // (gcv, λ, β, chol, rss, edf)
    let mut last_err: Option<GamError> = None;
    let mut evaluated = 0usize;
    for (gi, eval) in evals.into_iter().enumerate() {
        let lambda = grid[gi];
        let (gcv, beta, chol, rss, edf) = match eval {
            Ok(v) => v,
            Err(e) => {
                last_err = Some(e);
                continue;
            }
        };
        evaluated += 1;
        if gef_trace::enabled() {
            gef_trace::global().event(
                "gam.gcv",
                &[
                    ("lambda", lambda),
                    ("gcv", gcv),
                    ("edf", edf),
                    ("deviance", rss),
                    ("pirls_iters", 1.0),
                ],
            );
        }
        if !gcv.is_finite() {
            continue;
        }
        if best.as_ref().is_none_or(|bst| gcv < bst.0) {
            best = Some((gcv, lambda, beta, chol, rss, edf));
        }
    }
    let Some((gcv, lambda, beta, chol, rss, edf)) = best else {
        return Err(match last_err {
            // Every candidate died in linear algebra before producing a
            // GCV score: surface the underlying numerical failure.
            Some(e) if evaluated == 0 => e,
            _ => GamError::NonFiniteGcv {
                candidates: grid.len(),
            },
        });
    };
    let scale = rss / (n as f64 - edf).max(1.0);
    let mut cov = chol.inverse()?;
    for v in cov.data_mut() {
        *v *= scale;
    }
    Ok((
        beta,
        cov,
        FitSummary {
            lambda,
            gcv,
            edf,
            scale,
            deviance: rss,
            n_obs: n,
            pirls_iters: 1,
            step_halvings: 0,
        },
    ))
}

#[allow(clippy::too_many_arguments)]
fn fit_logit(
    design: &Design,
    book: &Codebook,
    ys: &[f64],
    grid: &[f64],
    max_iter: usize,
    tol: f64,
    constraint: &Matrix,
) -> Result<Fitted> {
    let n = ys.len();
    let _grid_span = gef_trace::Span::enter("gam.gcv_grid");
    // λ candidates evaluate on the gef-par pool (each PIRLS run owns its
    // factorization); results come back in grid order. A diverging PIRLS
    // run at one λ (typically a small one on near-separable data) is
    // skipped; better-conditioned candidates can still win the grid.
    let evals = gef_par::map(
        grid.len(),
        gef_par::Options::coarse().with_label("gam.gcv_candidate"),
        |gi| {
            let _eval_span = gef_trace::Span::enter("gam.gcv_eval");
            let lambda = grid[gi];
            (|| -> Result<(Pirls, f64, f64)> {
                // Per-λ cooperative checkpoint (the PIRLS loop inside adds a
                // per-iteration one).
                if gef_trace::budget::hard_exceeded() {
                    return Err(GamError::DeadlineExceeded { at: "gcv_grid" });
                }
                let run = pirls_logit(design, book, ys, lambda, max_iter, tol, constraint)?;
                let edf = edf_trace(&run.chol, &run.weighted_gram)?;
                let denom = (n as f64 - edf).max(1.0);
                let gcv = n as f64 * run.deviance / (denom * denom);
                Ok((run, edf, gcv))
            })()
        },
    )?;
    // Selection and per-candidate telemetry (PIRLS counters + events)
    // stay serial and in grid order, so the event stream is identical
    // at every thread count.
    type LogitBest = (f64, f64, Pirls, f64);
    let mut best: Option<LogitBest> = None;
    let mut last_err: Option<GamError> = None;
    let mut evaluated = 0usize;
    for (gi, eval) in evals.into_iter().enumerate() {
        let lambda = grid[gi];
        let (run, edf, gcv) = match eval {
            Ok(v) => v,
            Err(e) => {
                last_err = Some(e);
                continue;
            }
        };
        evaluated += 1;
        if gef_trace::enabled() {
            gef_trace::counter!("gam.pirls_iterations").add(run.iters as u64);
            if run.step_halvings > 0 {
                gef_trace::counter!("gam.pirls_step_halvings").add(run.step_halvings as u64);
            }
            if run.capped {
                gef_trace::counter!("gam.pirls_unconverged").add(1);
            }
            gef_trace::global().event(
                "gam.pirls",
                &[
                    ("lambda", lambda),
                    ("iters", run.iters as f64),
                    ("final_delta", run.final_delta),
                    ("step_halvings", run.step_halvings as f64),
                ],
            );
            gef_trace::global().event(
                "gam.gcv",
                &[
                    ("lambda", lambda),
                    ("gcv", gcv),
                    ("edf", edf),
                    ("deviance", run.deviance),
                    ("pirls_iters", run.iters as f64),
                ],
            );
        }
        if !gcv.is_finite() {
            continue;
        }
        if best.as_ref().is_none_or(|bst| gcv < bst.0) {
            best = Some((gcv, lambda, run, edf));
        }
    }
    let Some((gcv, lambda, run, edf)) = best else {
        return Err(match last_err {
            Some(e) if evaluated == 0 => e,
            _ => GamError::NonFiniteGcv {
                candidates: grid.len(),
            },
        });
    };
    let cov = run.chol.inverse()?;
    Ok((
        run.beta,
        cov,
        FitSummary {
            lambda,
            gcv,
            edf,
            scale: 1.0,
            deviance: run.deviance,
            n_obs: n,
            pirls_iters: run.iters,
            step_halvings: run.step_halvings,
        },
    ))
}

/// Result of one penalized IRLS run at a fixed λ.
struct Pirls {
    beta: Vec<f64>,
    chol: Cholesky,
    /// Final weighted Gram matrix `XᵀWX` (needed for the edf trace).
    weighted_gram: Matrix,
    deviance: f64,
    iters: usize,
    step_halvings: usize,
    /// Max-norm coefficient change of the last accepted step, carried
    /// out so the coordinator can emit the `gam.pirls` event in grid
    /// order (PIRLS runs may execute on pool workers).
    final_delta: f64,
    /// The run stopped at the iteration cap without converging.
    capped: bool,
}

/// Binomial deviance of the responses under linear predictors `eta`.
fn binomial_deviance(ys: &[f64], eta: &[f64]) -> f64 {
    ys.iter()
        .zip(eta)
        .map(|(&y, &e)| {
            let mu = Link::Logit.inverse(e).clamp(1e-12, 1.0 - 1e-12);
            let term_y = if y > 0.0 { y * (y / mu).ln() } else { 0.0 };
            let term_n = if y < 1.0 {
                (1.0 - y) * ((1.0 - y) / (1.0 - mu)).ln()
            } else {
                0.0
            };
            2.0 * (term_y + term_n)
        })
        .sum()
}

/// Maximum step-halvings per PIRLS iteration before giving up on the
/// candidate step.
const MAX_STEP_HALVINGS: usize = 12;

/// One penalized IRLS run for the logit link at a fixed λ.
///
/// Each Newton/IRLS step is guarded by **step-halving** (mgcv-style):
/// if the candidate coefficients raise the penalized-model deviance (or
/// make it non-finite), the step is repeatedly halved back toward the
/// previous iterate. A step that stays non-finite after
/// [`MAX_STEP_HALVINGS`] halvings aborts the run with
/// [`GamError::PirlsDiverged`]; a finite but non-improving step keeps
/// the previous iterate and stops early (best-effort convergence on
/// e.g. separable data).
#[allow(clippy::too_many_arguments)]
fn pirls_logit(
    design: &Design,
    book: &Codebook,
    ys: &[f64],
    lambda: f64,
    max_iter: usize,
    tol: f64,
    constraint: &Matrix,
) -> Result<Pirls> {
    let p = design.num_cols;
    // Initialize the linear predictor from shrunken responses.
    let mut eta: Vec<f64> = ys
        .iter()
        .map(|&y| {
            let mu = (0.5 * (y + 0.5)).clamp(0.05, 0.95);
            (mu / (1.0 - mu)).ln()
        })
        .collect();
    let mut beta = vec![0.0; p];
    let mut result: Option<(Cholesky, Matrix)> = None;
    let mut iters = 0;
    let mut last_delta = f64::INFINITY;
    // The initial eta is a heuristic warm start, not X·β for any β, so
    // the first accepted step has no previous deviance to compare
    // against: any finite deviance is accepted.
    let mut prev_dev = f64::INFINITY;
    let mut step_halvings = 0usize;
    let mut capped = true;
    // Budget cap on PIRLS iterations (0 = unlimited): a process-wide
    // clamp on top of the spec's own `max_pirls_iter`.
    let max_iter = match gef_trace::budget::pirls_iter_cap() {
        0 => max_iter,
        cap => max_iter.min(cap as usize),
    };
    for it in 0..max_iter {
        // Per-iteration cooperative checkpoint: one relaxed load when no
        // budget is armed, so unbudgeted runs stay bit-identical.
        if gef_trace::budget::hard_exceeded() {
            return Err(GamError::DeadlineExceeded { at: "pirls" });
        }
        if gef_trace::fault::fires("pirls.stall") {
            // Simulated wedged iteration: burns wall-clock without any
            // numeric effect, so only a deadline can bound the run.
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        iters = it + 1;
        let (g, b) = book.cross_products(ys.iter().zip(&eta).map(|(&y, &e)| {
            let mu = Link::Logit.inverse(e);
            let w = (mu * (1.0 - mu)).max(1e-6);
            (w, w * (e + (y - mu) / w))
        }));
        let ridge = ridge_for(&g);
        let chol = penalized_chol(&g, &design.penalty, lambda, constraint, ridge)?;
        let mut new_beta = chol.solve(&b)?;
        if gef_trace::fault::fires("pirls.iter") {
            // Simulated solver corruption: non-finite coefficients.
            new_beta.fill(f64::NAN);
        }
        if gef_trace::fault::fires("pirls.step") {
            // Simulated overshoot: finite but wildly overscaled step,
            // recoverable by step-halving.
            for v in &mut new_beta {
                *v = *v * 64.0 + 64.0;
            }
        }
        // Step-halving: walk the candidate back toward the previous
        // iterate while it makes the deviance worse or non-finite.
        let mut halved = 0usize;
        let (new_eta, dev, accepted) = loop {
            let mut cand_eta = book.linear_predictor(&new_beta);
            for e in &mut cand_eta {
                *e = e.clamp(-30.0, 30.0);
            }
            let dev = binomial_deviance(ys, &cand_eta);
            if dev.is_finite() && dev <= prev_dev + 1e-6 * (1.0 + prev_dev.abs()) {
                break (cand_eta, dev, true);
            }
            if halved >= MAX_STEP_HALVINGS {
                if !dev.is_finite() {
                    return Err(GamError::PirlsDiverged {
                        iters,
                        deviance: dev,
                    });
                }
                // Finite but no improvement even at a tiny step: the
                // previous iterate is (numerically) the optimum.
                break (eta.clone(), prev_dev, false);
            }
            halved += 1;
            for (nb, ob) in new_beta.iter_mut().zip(&beta) {
                *nb = 0.5 * (*nb + *ob);
            }
        };
        step_halvings += halved;
        if !accepted {
            // Kept the previous iterate; its factorization is already in
            // `result` (the first iteration always either accepts a
            // finite step or diverges above).
            last_delta = 0.0;
            capped = false;
            break;
        }
        let delta = new_beta
            .iter()
            .zip(&beta)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        let scale_ref = new_beta.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
        beta = new_beta;
        eta = new_eta;
        prev_dev = dev;
        result = Some((chol, g));
        last_delta = delta;
        if delta < tol * (1.0 + scale_ref) {
            capped = false;
            break;
        }
    }
    let Some((chol, weighted_gram)) = result else {
        // Only reachable when the very first iteration exhausted its
        // halvings without a finite improvement.
        return Err(GamError::PirlsDiverged {
            iters,
            deviance: prev_dev,
        });
    };
    Ok(Pirls {
        beta,
        chol,
        weighted_gram,
        deviance: prev_dev,
        iters,
        step_halvings,
        final_delta: last_delta,
        capped,
    })
}

impl Gam {
    /// Linear predictor η(x).
    pub fn predict_raw(&self, x: &[f64]) -> f64 {
        sparse_dot(&self.design.row(x), &self.beta)
    }

    /// Response-scale prediction (identity or inverse-logit).
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.link.inverse(self.predict_raw(x))
    }

    /// Batch response-scale predictions.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Number of additive terms.
    pub fn num_terms(&self) -> usize {
        self.design.terms.len()
    }

    /// The term specifications this model was fitted with.
    pub fn term_specs(&self) -> &[TermSpec] {
        &self.specs
    }

    /// Label of a term, e.g. `s(3)`.
    pub fn term_label(&self, term: usize) -> String {
        self.specs[term].label()
    }

    /// Link function of the model.
    pub fn link(&self) -> Link {
        self.link
    }

    /// Fit summary (λ, GCV, edf, scale, deviance).
    pub fn summary(&self) -> &FitSummary {
        &self.summary
    }

    /// Coefficient vector (intercept first).
    pub fn coefficients(&self) -> &[f64] {
        &self.beta
    }

    /// Stable 64-bit content digest of the fitted model (domain-tagged
    /// `gef-gam/v1`): term labels, link, selected λ, and every
    /// coefficient's exact bit pattern. Bit-identical fits — and only
    /// those — digest equal; explanation provenance uses it to
    /// fingerprint the surrogate independently of its JSON encoding.
    pub fn content_digest(&self) -> u64 {
        let mut d = gef_trace::hash::Digest::new("gef-gam/v1");
        d.write_str(match self.link {
            Link::Identity => "identity",
            Link::Logit => "logit",
        });
        d.write_u64(self.specs.len() as u64);
        for spec in &self.specs {
            d.write_str(&spec.label());
        }
        d.write_f64(self.summary.lambda);
        d.write_f64s(&self.beta);
        d.finish()
    }

    /// Effective intercept on the linear-predictor scale: the raw
    /// intercept plus every term's (training) mean contribution, so
    /// `predict_raw(x) = effective_intercept() + Σ component(t, x)`.
    pub fn effective_intercept(&self) -> f64 {
        self.beta[0] + self.component_means.iter().sum::<f64>()
    }

    /// Centered contribution of one term at instance `x` (the paper's
    /// component value: the spline evaluated at `x`, centered on its
    /// training mean).
    pub fn component(&self, term: usize, x: &[f64]) -> f64 {
        let row = self.design.term_row(term, x);
        sparse_dot(&row, &self.beta) - self.component_means[term]
    }

    /// Centered contribution and its Bayesian standard error.
    pub fn component_with_se(&self, term: usize, x: &[f64]) -> (f64, f64) {
        let row = self.design.term_row(term, x);
        let est = sparse_dot(&row, &self.beta) - self.component_means[term];
        // se² = bᵀ V_block b over the term's columns.
        let mut se2 = 0.0;
        for &(ci, vi) in &row {
            for &(cj, vj) in &row {
                se2 += vi * vj * self.cov[(ci, cj)];
            }
        }
        (est, se2.max(0.0).sqrt())
    }

    /// Evaluate a univariate term's centered curve with a symmetric
    /// credible band at the given feature values. `z` is the normal
    /// quantile (1.96 for a 95% band).
    ///
    /// Returns `(estimate, lower, upper)` per value. Errors if the term
    /// is a tensor (bivariate) term.
    pub fn univariate_curve(
        &self,
        term: usize,
        values: &[f64],
        z: f64,
    ) -> Result<Vec<(f64, f64, f64)>> {
        let feats = self.specs[term].features();
        if feats.len() != 1 {
            return Err(GamError::InvalidSpec(format!(
                "term {term} ({}) is not univariate",
                self.term_label(term)
            )));
        }
        let f = feats[0];
        let mut x = vec![0.0; f + 1];
        Ok(values
            .iter()
            .map(|&v| {
                x[f] = v;
                let (est, se) = self.component_with_se(term, &x);
                (est, est - z * se, est + z * se)
            })
            .collect())
    }

    /// Evaluate a tensor term's centered surface on the grid
    /// `values_a × values_b`. Returns a row-major matrix of estimates.
    pub fn tensor_surface(
        &self,
        term: usize,
        values_a: &[f64],
        values_b: &[f64],
    ) -> Result<Vec<Vec<f64>>> {
        let feats = self.specs[term].features();
        if feats.len() != 2 {
            return Err(GamError::InvalidSpec(format!(
                "term {term} ({}) is not bivariate",
                self.term_label(term)
            )));
        }
        let (fa, fb) = (feats[0], feats[1]);
        let width = fa.max(fb) + 1;
        let mut x = vec![0.0; width];
        let mut out = Vec::with_capacity(values_a.len());
        for &a in values_a {
            let mut row = Vec::with_capacity(values_b.len());
            for &b in values_b {
                x[fa] = a;
                x[fb] = b;
                row.push(self.component(term, &x));
            }
            out.push(row);
        }
        Ok(out)
    }

    /// Importance of a term: the standard deviation of its contribution
    /// over the training data (used to sort component plots).
    pub fn term_importance(&self, term: usize) -> f64 {
        self.component_sds[term]
    }

    /// Serialize the fitted model (coefficients, bases, covariance) to
    /// JSON, so a surrogate can be archived and reloaded without
    /// refitting.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Reload a fitted model from [`Gam::to_json`] output.
    pub fn from_json(s: &str) -> Result<Gam> {
        json::decode(s).map_err(|e| GamError::InvalidData(format!("json: {e}")))
    }

    /// Terms sorted by descending importance.
    pub fn terms_by_importance(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.num_terms()).collect();
        idx.sort_by(|&a, &b| self.component_sds[b].total_cmp(&self.component_sds[a]));
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        (0..n).map(|_| (0..d).map(|_| next()).collect()).collect()
    }

    #[test]
    fn recovers_sine_plus_line() {
        let xs = uniform(2000, 2, 1);
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 2.0 * x[0] + (x[1] * std::f64::consts::PI * 2.0).sin())
            .collect();
        let spec = GamSpec::regression(vec![
            TermSpec::spline(0, (0.0, 1.0)),
            TermSpec::spline(1, (0.0, 1.0)),
        ]);
        let gam = fit(&spec, &xs, &ys).unwrap();
        let rmse: f64 = (xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (gam.predict(x) - y).powi(2))
            .sum::<f64>()
            / xs.len() as f64)
            .sqrt();
        assert!(rmse < 0.02, "rmse={rmse}");
        // The component of term 1 should look like the sine (centered).
        let c_low = gam.component(1, &[0.0, 0.25]);
        let c_high = gam.component(1, &[0.0, 0.75]);
        assert!((c_low - 1.0).abs() < 0.1, "c(0.25)={c_low}");
        assert!((c_high + 1.0).abs() < 0.1, "c(0.75)={c_high}");
    }

    #[test]
    fn components_sum_to_prediction() {
        let xs = uniform(500, 2, 3);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] - 0.5 * x[1] + 1.0).collect();
        let spec = GamSpec::regression(vec![
            TermSpec::spline(0, (0.0, 1.0)),
            TermSpec::spline(1, (0.0, 1.0)),
        ]);
        let gam = fit(&spec, &xs, &ys).unwrap();
        for x in xs.iter().take(20) {
            let sum = gam.effective_intercept() + gam.component(0, x) + gam.component(1, x);
            assert!((sum - gam.predict_raw(x)).abs() < 1e-9);
        }
    }

    #[test]
    fn heavy_smoothing_flattens_curve() {
        let xs = uniform(800, 1, 5);
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 20.0).sin()).collect();
        let smooth = fit(
            &GamSpec {
                lambda: LambdaSelection::Fixed(1e8),
                ..GamSpec::regression(vec![TermSpec::spline(0, (0.0, 1.0))])
            },
            &xs,
            &ys,
        )
        .unwrap();
        let wiggly = fit(
            &GamSpec {
                lambda: LambdaSelection::Fixed(1e-6),
                ..GamSpec::regression(vec![TermSpec::spline(0, (0.0, 1.0))])
            },
            &xs,
            &ys,
        )
        .unwrap();
        // With huge λ the component collapses toward a line; its sd is
        // far below the wiggly fit's.
        assert!(smooth.term_importance(0) < 0.5 * wiggly.term_importance(0));
        assert!(smooth.summary().edf < wiggly.summary().edf);
    }

    #[test]
    fn gcv_picks_reasonable_lambda() {
        let xs = uniform(1500, 1, 7);
        // Noisy smooth signal: GCV should neither pin to the smallest
        // nor necessarily the largest λ, and fit must track the signal.
        let mut state = 17u64;
        let mut noise = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 0.4
        };
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 6.0).sin() + noise()).collect();
        let gam = fit(
            &GamSpec::regression(vec![TermSpec::spline(0, (0.0, 1.0))]),
            &xs,
            &ys,
        )
        .unwrap();
        // Residual rmse close to the noise floor (sd ≈ 0.115).
        let rmse = (gam.summary().deviance / xs.len() as f64).sqrt();
        assert!(rmse > 0.08 && rmse < 0.16, "rmse={rmse}");
        assert!(gam.summary().lambda > 0.0);
    }

    #[test]
    fn factor_term_fits_group_means() {
        let n = 600;
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![(i % 3) as f64]).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| match x[0] as usize {
                0 => 1.0,
                1 => -2.0,
                _ => 0.5,
            })
            .collect();
        let spec = GamSpec {
            lambda: LambdaSelection::Fixed(1e-6),
            ..GamSpec::regression(vec![TermSpec::factor(0, vec![0.0, 1.0, 2.0])])
        };
        let gam = fit(&spec, &xs, &ys).unwrap();
        assert!((gam.predict(&[0.0]) - 1.0).abs() < 1e-3);
        assert!((gam.predict(&[1.0]) + 2.0).abs() < 1e-3);
        assert!((gam.predict(&[2.0]) - 0.5).abs() < 1e-3);
    }

    #[test]
    fn tensor_term_captures_interaction() {
        let xs = uniform(3000, 2, 11);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[1]).collect();
        // Univariate-only model cannot represent x0*x1; adding the
        // tensor term must cut the error dramatically.
        let uni = fit(
            &GamSpec::regression(vec![
                TermSpec::spline(0, (0.0, 1.0)),
                TermSpec::spline(1, (0.0, 1.0)),
            ]),
            &xs,
            &ys,
        )
        .unwrap();
        let with_te = fit(
            &GamSpec::regression(vec![
                TermSpec::spline(0, (0.0, 1.0)),
                TermSpec::spline(1, (0.0, 1.0)),
                TermSpec::tensor((0, 1), ((0.0, 1.0), (0.0, 1.0))),
            ]),
            &xs,
            &ys,
        )
        .unwrap();
        let rss_uni = uni.summary().deviance;
        let rss_te = with_te.summary().deviance;
        assert!(
            rss_te < 0.2 * rss_uni,
            "tensor should capture interaction: {rss_te} vs {rss_uni}"
        );
    }

    #[test]
    fn logit_link_learns_probability() {
        let xs = uniform(2000, 1, 13);
        let ys: Vec<f64> = xs.iter().map(|x| f64::from(x[0] > 0.5)).collect();
        let gam = fit(
            &GamSpec::classification(vec![TermSpec::spline(0, (0.0, 1.0))]),
            &xs,
            &ys,
        )
        .unwrap();
        assert!(gam.predict(&[0.9]) > 0.9);
        assert!(gam.predict(&[0.1]) < 0.1);
        assert!(gam.summary().pirls_iters >= 2);
        assert_eq!(gam.summary().scale, 1.0);
    }

    #[test]
    fn credible_band_contains_estimate_and_grows_with_z() {
        let xs = uniform(500, 1, 21);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * 2.0).collect();
        let gam = fit(
            &GamSpec::regression(vec![TermSpec::spline(0, (0.0, 1.0))]),
            &xs,
            &ys,
        )
        .unwrap();
        let grid: Vec<f64> = (0..21).map(|i| i as f64 / 20.0).collect();
        let band95 = gam.univariate_curve(0, &grid, 1.96).unwrap();
        let band50 = gam.univariate_curve(0, &grid, 0.674).unwrap();
        for ((e95, lo95, hi95), (_, lo50, hi50)) in band95.iter().zip(&band50) {
            assert!(lo95 <= e95 && e95 <= hi95);
            assert!(lo95 <= lo50 && hi50 <= hi95);
        }
    }

    #[test]
    fn curve_errors_on_tensor_term() {
        let xs = uniform(300, 2, 23);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[1]).collect();
        let gam = fit(
            &GamSpec::regression(vec![TermSpec::tensor((0, 1), ((0.0, 1.0), (0.0, 1.0)))]),
            &xs,
            &ys,
        )
        .unwrap();
        assert!(gam.univariate_curve(0, &[0.5], 1.96).is_err());
        assert!(gam.tensor_surface(0, &[0.2, 0.8], &[0.3]).is_ok());
    }

    #[test]
    fn importance_ranks_strong_term_first() {
        let xs = uniform(1000, 2, 29);
        let ys: Vec<f64> = xs.iter().map(|x| 5.0 * x[0] + 0.1 * x[1]).collect();
        let gam = fit(
            &GamSpec::regression(vec![
                TermSpec::spline(1, (0.0, 1.0)),
                TermSpec::spline(0, (0.0, 1.0)),
            ]),
            &xs,
            &ys,
        )
        .unwrap();
        // Term index 1 is the spline on feature 0 (the strong one).
        assert_eq!(gam.terms_by_importance()[0], 1);
        assert!(gam.term_importance(1) > 5.0 * gam.term_importance(0));
    }

    #[test]
    fn tensor_does_not_steal_main_effects() {
        // y = sin(2πx0) + 3·(x0−.5)(x1−.5): with marginal constraints
        // the spline on x0 must keep the sine and the tensor must hold
        // only the product structure.
        let xs = uniform(4000, 2, 77);
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (x[0] * std::f64::consts::PI * 2.0).sin() + 3.0 * (x[0] - 0.5) * (x[1] - 0.5))
            .collect();
        let gam = fit(
            &GamSpec::regression(vec![
                TermSpec::spline(0, (0.0, 1.0)),
                TermSpec::spline(1, (0.0, 1.0)),
                TermSpec::tensor((0, 1), ((0.0, 1.0), (0.0, 1.0))),
            ]),
            &xs,
            &ys,
        )
        .unwrap();
        // Spline on x0 carries the sine: check two probe points.
        let c_quarter = gam.component(0, &[0.25, 0.0]);
        let c_three_q = gam.component(0, &[0.75, 0.0]);
        assert!((c_quarter - 1.0).abs() < 0.15, "c(0.25)={c_quarter}");
        assert!((c_three_q + 1.0).abs() < 0.15, "c(0.75)={c_three_q}");
        // The spline's standard error stays modest (no aliasing blowup).
        let (_, se) = gam.component_with_se(0, &[0.5, 0.5]);
        assert!(se < 0.2, "se={se}");
        // The tensor term is (approximately) free of main effects: its
        // average over x1 at fixed x0 is near zero.
        let te = gam
            .term_specs()
            .iter()
            .position(|t| matches!(t, TermSpec::Tensor { .. }))
            .unwrap();
        for &a in &[0.2, 0.5, 0.8] {
            let avg: f64 = (0..21)
                .map(|i| gam.component(te, &[a, i as f64 / 20.0]))
                .sum::<f64>()
                / 21.0;
            assert!(avg.abs() < 0.12, "tensor marginal at x0={a}: {avg}");
        }
        // And it still captures the interaction (nonzero corners).
        let corner = gam.component(te, &[0.95, 0.95]);
        assert!(corner > 0.3, "tensor corner = {corner}");
    }

    #[test]
    fn gam_json_round_trip_preserves_predictions() {
        let xs = uniform(400, 2, 41);
        let ys: Vec<f64> = xs.iter().map(|x| x[0] + (x[1] * 5.0).sin()).collect();
        let gam = fit(
            &GamSpec::regression(vec![
                TermSpec::spline(0, (0.0, 1.0)),
                TermSpec::spline(1, (0.0, 1.0)),
            ]),
            &xs,
            &ys,
        )
        .unwrap();
        let json = gam.to_json();
        let reloaded = Gam::from_json(&json).unwrap();
        for x in xs.iter().take(25) {
            assert_eq!(gam.predict(x), reloaded.predict(x));
            let (e1, s1) = gam.component_with_se(0, x);
            let (e2, s2) = reloaded.component_with_se(0, x);
            assert_eq!(e1, e2);
            assert_eq!(s1, s2);
        }
        assert!(Gam::from_json("{").is_err());
    }

    #[test]
    fn rejects_bad_inputs() {
        let spec = GamSpec::regression(vec![TermSpec::spline(0, (0.0, 1.0))]);
        assert!(fit(&spec, &[], &[]).is_err());
        assert!(fit(&spec, &[vec![0.1]], &[1.0, 2.0]).is_err());
        // Term references out-of-range feature.
        let spec2 = GamSpec::regression(vec![TermSpec::spline(3, (0.0, 1.0))]);
        let xs = uniform(100, 1, 31);
        let ys = vec![0.0; 100];
        assert!(fit(&spec2, &xs, &ys).is_err());
        // Logit with out-of-range responses.
        let spec3 = GamSpec::classification(vec![TermSpec::spline(0, (0.0, 1.0))]);
        assert!(fit(&spec3, &xs, &vec![2.0; 100]).is_err());
        // NaN responses.
        assert!(fit(&spec, &xs, &vec![f64::NAN; 100]).is_err());
        // Empty λ grid.
        let spec4 = GamSpec {
            lambda: LambdaSelection::GcvGrid(vec![]),
            ..GamSpec::regression(vec![TermSpec::spline(0, (0.0, 1.0))])
        };
        assert!(fit(&spec4, &xs, &ys).is_err());
    }
}
