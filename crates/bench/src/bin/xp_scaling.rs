//! Thread-scaling sweep for the gef-par runtime (see PERFORMANCE.md).
//!
//! Measures serial-vs-parallel wall-clock for the three hottest phases
//! of the GEF pipeline — forest training, D* labeling, and the λ-grid
//! GCV search — at `GEF_THREADS` ∈ {1, 2, 4, 8} (in-process via
//! [`gef_par::set_threads`], so one run covers the whole sweep), and
//! writes the machine-readable trajectory to `BENCH_scaling.json`.
//!
//! Every configuration uses [`gef_bench::timed_run_warmed`]: the worker
//! pool is prestarted and one untimed warmup iteration runs first, so
//! thread start-up and cold caches are never charged to a measurement.
//!
//! A second mode, `--ci-label <label>`, runs two pipeline explanations —
//! a regression forest, and a `BinaryLogistic` forest with one pair so
//! the PIRLS events and counters are covered — at the
//! *environment-configured* `GEF_THREADS` and emits the collected
//! telemetry under `<label>`: the hook `ci.sh` uses to diff telemetry
//! reports between thread counts.

use gef_bench::{print_table, timed_run_warmed, train_paper_forest, RunSize, Timing};
use gef_core::{GefConfig, GefExplainer, SamplingStrategy};
use gef_data::synthetic::{make_d_prime, NUM_FEATURES};
use gef_forest::Objective;
use gef_gam::{fit, GamSpec, TermSpec};
use gef_trace::json::JsonWriter;

/// Thread counts swept (the PERFORMANCE.md protocol).
const SWEEP: [usize; 4] = [1, 2, 4, 8];

struct PhaseTimes {
    threads: usize,
    train: Timing,
    label: Timing,
    gcv: Timing,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--ci-label") {
        let label = args
            .get(pos + 1)
            .expect("--ci-label requires a label argument");
        ci_run(label);
        return;
    }
    sweep();
}

/// Two deterministic pipeline explanations (regression, then logistic
/// with one pair) at the env-configured thread count, telemetry emitted
/// under `label`. `ci.sh` runs this twice (GEF_THREADS=1 and 4) and
/// diffs the reports' non-timing fields.
fn ci_run(label: &str) {
    let size = RunSize::from_args();
    let rows = size.pick(2_000, 6_000, 12_000);
    let regression = make_d_prime(rows, 1);
    let classification = gef_data::census::census_sim_sized(rows, 7);
    for (name, data, objective, num_univariate) in [
        (
            "regression",
            regression,
            Objective::RegressionL2,
            NUM_FEATURES,
        ),
        ("logistic", classification, Objective::BinaryLogistic, 5),
    ] {
        let forest = train_paper_forest(&data.xs, &data.ys, size, objective);
        let exp = GefExplainer::new(GefConfig {
            num_univariate,
            num_interactions: 1,
            sampling: SamplingStrategy::EquiSize(size.pick(300, 1_000, 4_000)),
            n_samples: size.pick(4_000, 20_000, 50_000),
            seed: 3,
            ..Default::default()
        })
        .explain(&forest)
        .expect("pipeline succeeds");
        println!(
            "[{label}] {name} threads={} lambda={:e} rmse={:.6} r2={:.6} degradations={}",
            gef_par::threads(),
            exp.gam.summary().lambda,
            exp.fidelity_rmse,
            exp.fidelity_r2,
            exp.degradations.len()
        );
    }
    gef_bench::emit_telemetry(label);
}

fn sweep() {
    let size = RunSize::from_args();
    let logical_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# gef-par scaling sweep ({} logical core(s), {:?} run)",
        logical_cores, size
    );

    // Shared inputs, built once so every thread count measures identical
    // work. D' for training; a large uniform batch for labeling.
    let data = make_d_prime(size.pick(3_000, 10_000, 20_000), 1);
    let label_n = size.pick(30_000, 120_000, 400_000);
    let gam_n = size.pick(4_000, 12_000, 30_000);

    let mut results: Vec<PhaseTimes> = Vec::new();
    for &t in &SWEEP {
        gef_par::set_threads(t);
        gef_par::prestart();

        let (forest, train) = timed_run_warmed("xp.scaling.train", || {
            train_paper_forest(&data.xs, &data.ys, size, Objective::RegressionL2)
        });

        let (label_xs, _) = gef_bench::common_fidelity_set(&forest, label_n, 7);
        let (labels, label) = timed_run_warmed("xp.scaling.label", || {
            forest.predict_batch(&label_xs).expect("no deadline armed")
        });

        // λ-grid GCV search on a surrogate-style spline GAM over the
        // labeled batch (the same shape the pipeline's gam_fit stage
        // solves).
        let gam_xs = &label_xs[..gam_n.min(label_xs.len())];
        let gam_ys = &labels[..gam_xs.len()];
        let terms: Vec<TermSpec> = (0..NUM_FEATURES)
            .map(|f| {
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for x in gam_xs {
                    lo = lo.min(x[f]);
                    hi = hi.max(x[f]);
                }
                TermSpec::spline(f, (lo, hi))
            })
            .collect();
        let spec = GamSpec::regression(terms);
        let (gam, gcv) = timed_run_warmed("xp.scaling.gcv", || {
            fit(&spec, gam_xs, gam_ys).expect("GAM fit succeeds")
        });

        println!(
            "threads={t}: train {:.3}s, label {:.3}s, gcv {:.3}s \
             (median of {}; selected lambda {:e})",
            train.median_s,
            label.median_s,
            gcv.median_s,
            train.iters,
            gam.summary().lambda
        );
        results.push(PhaseTimes {
            threads: t,
            train,
            label,
            gcv,
        });
    }
    gef_par::set_threads(1);

    let base = &results[0];
    let mut rows = Vec::new();
    for r in &results {
        rows.push(vec![
            r.threads.to_string(),
            format!("{:.3}", r.train.median_s),
            format!("{:.2}x", base.train.median_s / r.train.median_s.max(1e-12)),
            format!("{:.3}", r.label.median_s),
            format!("{:.2}x", base.label.median_s / r.label.median_s.max(1e-12)),
            format!("{:.3}", r.gcv.median_s),
            format!("{:.2}x", base.gcv.median_s / r.gcv.median_s.max(1e-12)),
        ]);
    }
    println!();
    print_table(
        &[
            "threads",
            "train (s)",
            "speedup",
            "label (s)",
            "speedup",
            "gcv (s)",
            "speedup",
        ],
        &rows,
    );

    let json = render_json(size, logical_cores, &results);
    std::fs::write("BENCH_scaling.json", &json).expect("write BENCH_scaling.json");
    println!("\nwrote BENCH_scaling.json");
    gef_bench::emit_telemetry("xp_scaling");
}

fn render_json(size: RunSize, logical_cores: usize, results: &[PhaseTimes]) -> String {
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64);
    let mut w = JsonWriter::new();
    w.begin_object();
    w.field_str("schema", "gef-bench/scaling/v2");
    w.field_u64("created_unix_ms", unix_ms);
    w.field_str("run_size", &format!("{size:?}"));
    w.key("machine");
    w.begin_object();
    w.field_u64("logical_cores", logical_cores as u64);
    w.field_str("os", std::env::consts::OS);
    w.field_str("arch", std::env::consts::ARCH);
    w.end_object();
    w.key("sweep");
    w.begin_array();
    let base = &results[0];
    for r in results {
        w.begin_object();
        w.field_u64("threads", r.threads as u64);
        r.train.write_json_fields(&mut w, "forest_train");
        r.label.write_json_fields(&mut w, "dstar_label");
        r.gcv.write_json_fields(&mut w, "gcv_search");
        w.field_f64(
            "forest_train_speedup",
            base.train.median_s / r.train.median_s.max(1e-12),
        );
        w.field_f64(
            "dstar_label_speedup",
            base.label.median_s / r.label.median_s.max(1e-12),
        );
        w.field_f64(
            "gcv_search_speedup",
            base.gcv.median_s / r.gcv.median_s.max(1e-12),
        );
        w.end_object();
    }
    w.end_array();
    w.end_object();
    let mut out = w.finish();
    out.push('\n');
    out
}
